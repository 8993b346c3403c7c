"""Tests for the discrete-event loop."""

import pytest

from repro.sim.engine import EventLoop, SimulationError
from repro.sim.timebase import format_time


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(30, lambda: fired.append("c"))
    loop.schedule(10, lambda: fired.append("a"))
    loop.schedule(20, lambda: fired.append("b"))
    loop.run_until(100)
    assert fired == ["a", "b", "c"]
    assert loop.now == 100


def test_same_time_events_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for tag in "abc":
        loop.schedule(5, lambda tag=tag: fired.append(tag))
    loop.run_until(5)
    assert fired == ["a", "b", "c"]


def test_zero_delay_event_runs():
    loop = EventLoop()
    fired = []
    loop.schedule(0, lambda: fired.append(1))
    loop.run_until(0)
    assert fired == [1]


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    loop = EventLoop()
    loop.run_until(50)
    with pytest.raises(SimulationError):
        loop.schedule_at(40, lambda: None)


def test_run_until_backwards_rejected():
    loop = EventLoop()
    loop.run_until(10)
    with pytest.raises(SimulationError):
        loop.run_until(5)


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(10, lambda: fired.append(1))
    handle.cancel()
    assert handle.cancelled
    loop.run_until(20)
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_events_scheduled_during_run_fire():
    loop = EventLoop()
    fired = []

    def first():
        fired.append("first")
        loop.schedule(5, lambda: fired.append("second"))

    loop.schedule(10, first)
    loop.run_until(20)
    assert fired == ["first", "second"]


def test_event_beyond_deadline_stays_queued():
    loop = EventLoop()
    fired = []
    loop.schedule(100, lambda: fired.append(1))
    loop.run_until(50)
    assert fired == []
    assert loop.pending() == 1
    loop.run_until(100)
    assert fired == [1]


def test_events_fired_counter():
    loop = EventLoop()
    for _ in range(3):
        loop.schedule(1, lambda: None)
    loop.run_until(1)
    assert loop.events_fired == 3


def test_run_while_stops_on_condition():
    loop = EventLoop()
    state = {"stop": False}
    loop.schedule(10, lambda: state.update(stop=True))
    loop.schedule(20, lambda: None)
    satisfied = loop.run_while(lambda: not state["stop"], 100)
    assert satisfied
    assert loop.now == 10  # stopped at the event that flipped the flag


def test_run_while_deadline():
    loop = EventLoop()
    loop.schedule(10, lambda: None)
    satisfied = loop.run_while(lambda: True, 50)
    assert not satisfied
    assert loop.now == 50


def test_run_while_already_satisfied():
    loop = EventLoop()
    assert loop.run_while(lambda: False, 100)
    assert loop.now == 0


def test_run_while_bad_interval():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.run_while(lambda: True, 10, check_interval=0)


@pytest.mark.parametrize("holds", [True, False])
def test_run_while_backwards_rejected(holds):
    # Regression: run_while used to accept a deadline before now and
    # set the clock back to it, so an event scheduled "later" could
    # fire at a time that had already passed.
    loop = EventLoop()
    loop.run_until(100)
    with pytest.raises(SimulationError):
        loop.run_while(lambda: holds, 50)
    assert loop.now == 100
    with pytest.raises(SimulationError):
        loop.schedule_at(60, lambda: None)


def test_run_while_does_not_delegate_to_run_until(monkeypatch):
    # Both public runners drain through the shared private loop; a
    # tracer wrapping each by name must see one call per run.
    def forbidden(self, deadline):
        raise AssertionError("run_while called run_until")

    monkeypatch.setattr(EventLoop, "run_until", forbidden)
    loop = EventLoop()
    loop.schedule(10, lambda: None)
    assert not loop.run_while(lambda: True, 20)
    assert loop.events_fired == 1


def test_handle_when():
    loop = EventLoop()
    handle = loop.schedule(25, lambda: None)
    assert handle.when == 25


def test_repr():
    loop = EventLoop()
    loop.schedule(5, lambda: None)
    assert "pending=1" in repr(loop)


def test_format_time():
    assert format_time(1) == "1us"
    assert format_time(1500) == "1.500ms"
    assert format_time(2_500_000) == "2.500s"
    assert format_time(-1500) == "-1.500ms"


# ------------------------------------------------- cancellation mid-drain


def test_cancelling_inside_a_callback_keeps_the_drain_exact():
    # A callback cancels most of the queued timers mid-drain, then
    # schedules zero-delay work.  The running drain skips every
    # cancelled entry: the follow-on fires in this run, and no surviving
    # timer fires twice.
    loop = EventLoop()
    fired = []
    timers = [
        loop.schedule(100 + i, lambda i=i: fired.append(i))
        for i in range(96)
    ]

    def burst():
        for handle in timers[:80]:
            handle.cancel()
        loop.schedule(0, lambda: fired.append("follow-on"))

    loop.schedule(1, burst)
    loop.run_until(300)
    assert fired == ["follow-on"] + list(range(80, 96))
    assert loop.pending() == 0
    loop.run_until(400)
    assert loop.events_fired == 18


def test_followon_work_at_current_timestamp_fires_in_seq_order():
    # Zero-delay work scheduled by a callback gets a higher seq than
    # everything already queued for the current microsecond.
    loop = EventLoop()
    fired = []
    loop.schedule(
        10, lambda: (fired.append("a"), loop.schedule(
            0, lambda: fired.append("a-child")
        ))
    )
    loop.schedule(10, lambda: fired.append("b"))
    loop.run_until(30)
    assert fired == ["a", "b", "a-child"]
