"""Cancellation inside a same-timestamp cohort of events.

Several events due at one microsecond fire in ``seq`` order, and a
callback may cancel another event of the same cohort.  These tests pin
what happens then: a cancel that lands after its victim fired is a
no-op, one that lands before stops the victim, and the live-event count
stays exact either way.  Each case runs through both public runners,
``EventLoop.run_until`` and ``EventLoop.run_while``, which share one
drain loop and must agree.
"""

from repro.sim.engine import EventLoop


def _run(loop: EventLoop, mode: str) -> None:
    if mode == "run_until":
        loop.run_until(30)
    else:
        assert loop.run_while(lambda: True, 30) is False


def test_cancel_after_victim_fired_is_noop_in_both_modes():
    # The canceller sits *after* its victim in seq order: the victim has
    # already fired by the time the cancel lands.
    def run(mode):
        loop = EventLoop()
        fired = []
        victim = loop.schedule(10, lambda: fired.append("victim"))
        loop.schedule(10, lambda: victim.cancel())
        _run(loop, mode)
        assert not victim.cancelled
        return fired, loop.events_fired, loop.pending()

    until = run("run_until")
    assert until == run("run_while")
    assert until == (["victim"], 2, 0)


def test_cohort_cancel_before_victim_fires():
    # The canceller sits *before* its victim in seq order within the
    # same cohort: the victim must not fire, and the live count must not
    # drift.
    def run(mode):
        loop = EventLoop()
        fired = []
        holder = {}
        loop.schedule(10, lambda: holder["victim"].cancel())
        holder["victim"] = loop.schedule(
            10, lambda: fired.append("victim")
        )
        loop.schedule(10, lambda: fired.append("tail"))
        assert loop.pending() == 3
        _run(loop, mode)
        return fired, loop.events_fired, loop.pending()

    until = run("run_until")
    assert until == run("run_while")
    assert until[0] == ["tail"]
    assert until[1] == 2
    assert until[2] == 0  # no live-counter drift
