"""The overload gate: an exact count of runqueues with a task to spare.

``Scheduler.overload`` mirrors the kernel's ``rd->overload``.  Every
runqueue keeps it exact, and the balancers skip their walks while it is
zero and no probe consumes balance records.  These tests hold the count
to a from-scratch recount under random scheduler operations, check that
the gate only skips walks that could not have moved a task, and check
that probe consumers and schedules see no difference.
"""

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.experiments.scenarios import build_bug_scenario
from repro.obs import ProbeTracepointBridge
from repro.obs.tracepoints import TracepointRegistry
from repro.sched import balance as lb
from repro.sched.features import SchedFeatures
from repro.sched.runqueue import has_spare_task
from repro.sched.sanitizer import CoherenceError
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import two_nodes
from repro.viz.events import (
    BalanceEvent,
    ConsideredEvent,
    FanoutProbe,
    Probe,
    TraceBuffer,
    TraceProbe,
)
from repro.workloads.base import Run, Sleep, TaskSpec

BUGS = (
    "group-imbalance",
    "group-construction",
    "overload-on-wakeup",
    "missing-domains",
)


class _Listener(Probe):
    """An active probe with no hooks of its own.

    It inherits ``wants_balance`` from the base class, so patching
    ``Probe.wants_balance`` to return True forces every balance walk.
    """


def _force_ungated(monkeypatch):
    monkeypatch.setattr(Probe, "wants_balance", lambda self: True)


def _recount(sched):
    """Queues with a task to spare, counted from the tree and curr."""
    return sum(
        1
        for cpu in sched.cpus
        if has_spare_task(
            len(cpu.rq._tree) + (1 if cpu.rq.curr is not None else 0)
        )
    )


# ------------------------------------------------------- stateful recount


class OverloadCountMachine(RuleBasedStateMachine):
    """Random scheduler operations; the count must always equal a recount."""

    features = SchedFeatures()

    def __init__(self):
        super().__init__()
        self.sched = Scheduler(two_nodes(cores_per_node=2), self.features)
        self.now = 0
        self.sleeping = []

    def _advance(self, dt):
        self.now += dt
        return self.now

    def _online(self):
        return [c.cpu_id for c in self.sched.cpus if c.online]

    def _queued(self):
        return [
            (cpu.cpu_id, task)
            for cpu in self.sched.cpus
            for task in cpu.rq.queued_tasks()
        ]

    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def enqueue_new(self, data, dt):
        cpu_id = data.draw(st.sampled_from(self._online()))
        task = Task(f"t{len(self.sched.tasks)}")
        self.sched.enqueue_task_on(task, cpu_id, self._advance(dt))

    @precondition(lambda self: self.sleeping)
    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def wake(self, data, dt):
        task = self.sleeping.pop(data.draw(
            st.integers(0, len(self.sleeping) - 1)
        ))
        waker = data.draw(st.sampled_from([None, *self._online()]))
        self.sched.wake_task(task, waker, self._advance(dt))

    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def pick(self, data, dt):
        idle = [
            c for c in self._online() if self.sched.cpu(c).rq.curr is None
        ]
        if idle:
            cpu_id = data.draw(st.sampled_from(idle))
            self.sched.pick_next_task(cpu_id, self._advance(dt))

    @rule(data=st.data(), requeue=st.booleans(), dt=st.integers(0, 3 * MS))
    def deschedule(self, data, requeue, dt):
        busy = [c.cpu_id for c in self.sched.cpus if c.rq.curr is not None]
        if not busy:
            return
        cpu_id = data.draw(st.sampled_from(busy))
        task = self.sched.deschedule(cpu_id, self._advance(dt), requeue)
        if not requeue:
            task.state = TaskState.SLEEPING
            self.sleeping.append(task)

    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def migrate(self, data, dt):
        queued = self._queued()
        if not queued:
            return
        src, task = data.draw(st.sampled_from(queued))
        dst = data.draw(st.sampled_from(self._online()))
        if dst != src:
            self.sched.migrate_task(task, src, dst, self._advance(dt), "test")

    @rule(dt=st.integers(0, 3 * MS))
    def tick(self, dt):
        self.sched.tick(self._advance(dt))

    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def offline(self, data, dt):
        online = self._online()
        if len(online) < 2:
            return
        cpu_id = data.draw(st.sampled_from(online))
        now = self._advance(dt)
        running = self.sched.deschedule(cpu_id, now, requeue=False)
        if running is not None:
            running.state = TaskState.BLOCKED
            self.sleeping.append(running)
        self.sleeping.extend(self.sched.set_cpu_online(cpu_id, False, now))

    @rule(data=st.data(), dt=st.integers(0, 3 * MS))
    def online(self, data, dt):
        offline = [c.cpu_id for c in self.sched.cpus if not c.online]
        if offline:
            cpu_id = data.draw(st.sampled_from(offline))
            self.sched.set_cpu_online(cpu_id, True, self._advance(dt))

    @invariant()
    def count_matches_recount(self):
        assert self.sched.overload.value == _recount(self.sched)
        assert self.sched.overload.value == lb.overloaded_rqs(self.sched)


OverloadCountMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestOverloadCount = OverloadCountMachine.TestCase


# ------------------------------------------------------------- soundness


def _mixed_system():
    """Sleepers and a few hogs on 8 CPUs: the count often drops to 0."""
    system = System(two_nodes(cores_per_node=4), seed=3)

    def sleeper():
        while True:
            yield Run(1 * MS)
            yield Sleep(2 * MS)

    def hog():
        while True:
            yield Run(5 * MS)

    for i in range(10):
        body = hog if i % 4 == 0 else sleeper
        system.spawn(TaskSpec(f"t{i}", lambda b=body: b()), parent_cpu=i % 3)
    return system


def _assert_ungated_walks_move_nothing(sched, cpu_ids, now):
    """Run every level's walk for ``cpu_ids``; each must move 0 tasks."""
    bpass = sched.vec_pass(now)
    walks = 0
    for cpu_id in cpu_ids:
        for domain in sched.domain_builder.domains_of(cpu_id):
            assert lb.balance_domain(sched, domain, cpu_id, now, bpass) == 0
            walks += 1
    return walks


@pytest.mark.parametrize(
    "build",
    [
        _mixed_system,
        lambda: build_bug_scenario("overload-on-wakeup", "buggy").system,
        lambda: build_bug_scenario("group-construction", "fixed").system,
        lambda: build_bug_scenario("missing-domains", "fixed").system,
    ],
    ids=[
        "mixed", "overload-on-wakeup", "group-construction-fixed",
        "missing-domains-fixed",
    ],
)
def test_zero_count_means_no_walk_can_move(monkeypatch, build):
    """Whenever the count is 0, the ungated walk moves nothing anywhere."""
    _force_ungated(monkeypatch)
    system = build()
    system.attach_probe(_Listener())
    sched = system.scheduler
    walks = [0]
    original = lb.newidle_balance

    def checked_newidle(sched_, cpu_id, now):
        if sched_.overload.value == 0:
            idle = [
                c.cpu_id for c in sched_.cpus if c.online and c.is_idle
            ]
            walks[0] += _assert_ungated_walks_move_nothing(sched_, idle, now)
        return original(sched_, cpu_id, now)

    def at_tick(now):
        if sched.overload.value == 0:
            online = [c.cpu_id for c in sched.cpus if c.online]
            walks[0] += _assert_ungated_walks_move_nothing(sched, online, now)

    monkeypatch.setattr(lb, "newidle_balance", checked_newidle)
    system.tick_hooks.append(at_tick)
    system.run_for(150 * MS)
    assert walks[0] > 0  # the count really did sit at zero


# ------------------------------------------------- probes and schedules


def _digest(system, buffer):
    """SHA-256 of the end state plus every non-float trace field."""
    sched = system.scheduler
    hasher = hashlib.sha256()
    hasher.update(repr((
        system.now, system.loop.events_fired, sched.balance_calls,
        sched.total_migrations,
    )).encode())
    for record in buffer:
        fields = sorted(
            (k, tuple(sorted(v)) if isinstance(v, frozenset) else v)
            for k, v in vars(record).items()
            if not isinstance(v, float)
        )
        hasher.update(repr((type(record).__name__, fields)).encode())
    return hasher.hexdigest()


def _run_scenarios(scenarios, probe_factory):
    """Run each (bug, variant, seed, us) scenario; returns per-run results.

    Each result is (digest, balance records, find_busiest_group calls).
    """
    results = []
    calls = [0]
    original = lb.find_busiest_group

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lb, "find_busiest_group", counted)
        for bug, variant, seed, duration in scenarios:
            buffer = TraceBuffer()
            probes = probe_factory(buffer)

            def instrument(system):
                for probe in probes:
                    system.attach_probe(probe)

            calls[0] = 0
            scenario = build_bug_scenario(
                bug, variant, seed=seed, instrument=instrument
            )
            scenario.run(duration)
            balance, rest = [], TraceBuffer()
            for event in buffer:
                if isinstance(event, (ConsideredEvent, BalanceEvent)):
                    balance.append(event)
                else:
                    rest.append(event)
            results.append(
                (_digest(scenario.system, rest), balance, calls[0])
            )
    return results


#: table4-sized (every bug, 50 ms) and figure2-sized (100 ms) scenarios.
SCENARIOS = [(bug, "buggy", 1234, 50 * MS) for bug in BUGS] + [
    ("group-imbalance", "fixed", 99, 100 * MS),
]


def _quiet(buffer):
    return [TraceProbe(buffer, record_load=False, record_considered=False),
            _Listener()]


def _considering(buffer):
    return [TraceProbe(buffer, record_load=False, record_considered=True),
            _Listener()]


def test_gate_does_not_change_the_schedule(monkeypatch):
    gated = _run_scenarios(SCENARIOS, _quiet)
    _force_ungated(monkeypatch)
    ungated = _run_scenarios(SCENARIOS, _quiet)
    assert [r[0] for r in gated] == [r[0] for r in ungated]
    # The gate really skipped walks somewhere.
    assert sum(r[2] for r in gated) < sum(r[2] for r in ungated)


def test_trace_probe_sees_every_balance_record(monkeypatch):
    traced = _run_scenarios(SCENARIOS, _considering)
    gated = _run_scenarios(SCENARIOS, _quiet)
    _force_ungated(monkeypatch)
    forced = _run_scenarios(SCENARIOS, _considering)
    # A consumer of balance records keeps every walk ...
    assert [r[1] for r in traced] == [r[1] for r in forced]
    assert [r[2] for r in traced] == [r[2] for r in forced]
    assert any(r[1] for r in traced)
    # ... and attaching it leaves the schedule as the gated run has it.
    assert [r[0] for r in traced] == [r[0] for r in gated]


def test_wants_balance_defaults():
    assert not Probe().wants_balance()
    assert not _Listener().wants_balance()
    assert TraceProbe().wants_balance()
    assert not TraceProbe(record_considered=False).wants_balance()

    class OutcomesOnly(Probe):
        def on_balance(self, *args):
            pass

    assert OutcomesOnly().wants_balance()


def test_bridge_wants_balance_follows_subscriptions():
    registry = TracepointRegistry()
    bridge = ProbeTracepointBridge(registry)
    fanout = FanoutProbe([_Listener(), bridge])
    assert not bridge.wants_balance() and not fanout.wants_balance()

    def sink(name, now, fields):
        pass

    for name in ("sched.balance", "sched.considered"):
        registry.subscribe(name, sink)
        assert bridge.wants_balance() and fanout.wants_balance()
        registry.unsubscribe(name, sink)
    registry.subscribe("sched.migration", sink)
    assert not bridge.wants_balance()


def test_sanitizer_catches_a_drifted_count():
    sched = Scheduler(
        two_nodes(cores_per_node=2), SchedFeatures().with_sanitizer()
    )
    sched.enqueue_task_on(Task("a"), 0, 0)
    sched.enqueue_task_on(Task("b"), 0, 0)
    assert sched.overload.value == 1
    assert not lb.nothing_to_pull(sched)
    sched.overload.value = 0  # an un-tracked change to the count
    with pytest.raises(CoherenceError) as info:
        lb.nothing_to_pull(sched)
    assert info.value.accessor == "overload-gate"
    assert info.value.field == "overloaded_rqs"
    assert (info.value.cached, info.value.fresh) == (0, 1)
