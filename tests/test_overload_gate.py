"""The spare gate: the exact set of CPUs whose runqueue has a task to spare.

``Scheduler.overload`` refines the kernel's ``rd->overload`` per CPU.
Every runqueue keeps it exact, and the balancers skip an attempt while
no member lies in the domain's non-local groups (the whole walk while
the set is empty) and no probe consumes balance records.  These tests
hold the set to a from-scratch recount under random scheduler
operations on both paths, check that the gate only skips walks that
could not have moved a task, and check that probe consumers and
schedules see no difference.
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
from repro.obs import ChromeTraceBuilder, MetricsRecorder
from repro.sched import balance as lb
from repro.sched.domains import SchedDomain
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
    """An active probe with no hooks of its own, so no interests.

    Patching its ``wants_balance`` to True before it is attached forces
    every balance walk.
    """


def _force_ungated(monkeypatch):
    monkeypatch.setattr(_Listener, "wants_balance", True)


#: Wider than any simulated machine: an attempt "reaching" every CPU.
_EVERY_CPU = frozenset(range(1024))


def _force_global_gate_only(monkeypatch):
    """Open the per-domain gate: every attempt reaches every CPU, so an
    attempt is skipped only while the spare set is empty."""
    monkeypatch.setattr(
        SchedDomain, "remote_cpus", lambda self, cpu_id: _EVERY_CPU
    )


def _recount(sched):
    """CPUs whose queue has a task to spare, counted from queue and curr."""
    return {
        cpu.cpu_id
        for cpu in sched.cpus
        if has_spare_task(
            len(cpu.rq._q) + (1 if cpu.rq.curr is not None else 0)
        )
    }


# ------------------------------------------------------- stateful recount


class OverloadCountMachine(RuleBasedStateMachine):
    """Random scheduler operations; the set must always equal a recount."""

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
            c for c in self._online() if self.sched.cpus[c].rq.curr is None
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
    def set_matches_recount(self):
        spare = self.sched.overload
        assert spare == _recount(self.sched)
        assert spare == lb.overloaded_rqs(self.sched)
        # ``len`` is the old overload count.
        assert len(spare) == sum(
            1 for cpu in self.sched.cpus
            if has_spare_task(cpu.rq.nr_running)
        )

    @invariant()
    def queue_counters_match_recount(self):
        # The fields ``RunQueue.dispatch`` keeps across its one fused
        # transition (and every other mutator keeps incrementally).
        for cpu in self.sched.cpus:
            tasks = cpu.rq.all_tasks()
            assert cpu.rq._nr_running == len(tasks)
            assert cpu.rq._total_weight == sum(t.weight for t in tasks)
            assert cpu.is_idle == (cpu.online and not tasks)


class ReferenceOverloadCountMachine(OverloadCountMachine):
    """The same operations on the reference path."""

    features = SchedFeatures().with_fastpath(False)


_MACHINE_SETTINGS = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    derandomize=True,
)
OverloadCountMachine.TestCase.settings = _MACHINE_SETTINGS
ReferenceOverloadCountMachine.TestCase.settings = _MACHINE_SETTINGS
TestOverloadCount = OverloadCountMachine.TestCase
TestReferenceOverloadCount = ReferenceOverloadCountMachine.TestCase


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
    walks = 0
    for cpu_id in cpu_ids:
        for domain in sched.domain_builder.domains_of(cpu_id):
            assert lb.balance_domain(sched, domain, cpu_id, now) == 0
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
        if not sched_.overload:
            idle = [
                c.cpu_id for c in sched_.cpus if c.online and c.is_idle
            ]
            walks[0] += _assert_ungated_walks_move_nothing(sched_, idle, now)
        return original(sched_, cpu_id, now)

    def at_tick(now):
        if not sched.overload:
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


def _run_scenarios(scenarios, probe_factory, transform=None):
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
                bug, variant, seed=seed, instrument=instrument,
                features_transform=transform,
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


def _reference(features):
    return features.with_fastpath(False)


@pytest.mark.parametrize("transform", [None, _reference],
                         ids=["fast", "reference"])
def test_domain_gate_does_not_change_the_schedule(monkeypatch, transform):
    gated = _run_scenarios(SCENARIOS, _quiet, transform)
    _force_global_gate_only(monkeypatch)
    global_only = _run_scenarios(SCENARIOS, _quiet, transform)
    assert [r[0] for r in gated] == [r[0] for r in global_only]
    # The per-domain gate skipped attempts the global gate ran.
    assert sum(r[2] for r in gated) < sum(r[2] for r in global_only)


@pytest.mark.parametrize("transform", [None, _reference],
                         ids=["fast", "reference"])
def test_domain_gate_keeps_every_balance_record(monkeypatch, transform):
    traced = _run_scenarios(SCENARIOS, _considering, transform)
    gated = _run_scenarios(SCENARIOS, _quiet, transform)
    _force_global_gate_only(monkeypatch)
    forced = _run_scenarios(SCENARIOS, _considering, transform)
    # A consumer of balance records sees the same records whether or
    # not the per-domain gate is open ...
    assert [r[1] for r in traced] == [r[1] for r in forced]
    assert [r[2] for r in traced] == [r[2] for r in forced]
    assert any(r[1] for r in traced)
    # ... and attaching it leaves the schedule as the gated run has it.
    assert [r[0] for r in traced] == [r[0] for r in gated]


def test_wants_balance_defaults():
    assert Probe().wants_balance is False
    assert _Listener().wants_balance is False
    assert TraceProbe().wants_balance is True
    assert TraceProbe(record_considered=False).wants_balance is False

    class OutcomesOnly(Probe):
        def on_balance(self, *args):
            pass

    class Declined(OutcomesOnly):
        wants_balance = False

    assert OutcomesOnly().wants_balance is True
    assert Declined().wants_balance is False
    # The other two interests follow their own hooks.
    assert OutcomesOnly().wants_rq_load is False
    assert OutcomesOnly().wants_callback is False


def test_obs_consumers_want_balance_as_they_record():
    # The recorder counts balance outcomes and considered-core reports;
    # the trace builder draws neither, so alone it keeps the gate shut.
    recorder, builder = MetricsRecorder(), ChromeTraceBuilder(2)
    assert recorder.wants_balance is True
    assert builder.wants_balance is False
    assert FanoutProbe([_Listener(), recorder]).wants_balance is True
    assert FanoutProbe([_Listener(), builder]).wants_balance is False
    # Neither consumes load samples.
    assert FanoutProbe([recorder, builder]).wants_rq_load is False
    # A fanout reads its members' interests as they come and go.
    fanout = FanoutProbe([builder])
    fanout.add(recorder)
    assert fanout.active and fanout.wants_balance
    fanout.remove(recorder)
    assert fanout.active and not fanout.wants_balance
    fanout.remove(builder)
    assert not fanout.active


def test_sanitizer_catches_a_drifted_count():
    sched = Scheduler(
        two_nodes(cores_per_node=2), SchedFeatures().with_sanitizer()
    )
    sched.enqueue_task_on(Task("a"), 0, 0)
    sched.enqueue_task_on(Task("b"), 0, 0)
    assert sched.overload == {0}
    assert not lb.nothing_to_pull(sched)
    sched.overload.clear()  # an un-tracked change to the set
    with pytest.raises(CoherenceError) as info:
        lb.nothing_to_pull(sched)
    assert info.value.accessor == "overload-gate"
    assert info.value.field == "overloaded_rqs"
    assert (info.value.cached, info.value.fresh) == ([], [0])


def _pair_sched(fastpath=True):
    """Two single-CPU groups at the MC level; cpu 1 has tasks to spare."""
    sched = Scheduler(
        two_nodes(cores_per_node=2),
        SchedFeatures().with_sanitizer().with_fastpath(fastpath),
    )
    for name in "abc":
        sched.enqueue_task_on(Task(name), 1, 0)
    domain = sched.domain_builder.domains_of(0)[0]
    assert 1 in domain.remote_cpus(0) and 0 not in domain.remote_cpus(0)
    return sched, domain


def test_remote_cpus_is_the_union_of_the_other_groups():
    sched, domain = _pair_sched()
    for cpu_id in domain.span:
        local = domain.local_group(cpu_id)
        others = [g for g in domain.groups if g is not local]
        assert domain.remote_cpus(cpu_id) == frozenset().union(
            *(g.cpus for g in others)
        )
    assert domain.remote_cpus(99) == frozenset()


def test_sanitizer_catches_a_drifted_set_at_a_domain_skip():
    sched, domain = _pair_sched()
    sched.overload.clear()  # cpu 1 drops out of the set untracked
    with pytest.raises(CoherenceError) as info:
        lb.balance_domain(sched, domain, 0, 0)
    assert info.value.accessor == "overload-gate"
    assert (info.value.cached, info.value.fresh) == ([], [1])


@pytest.mark.parametrize("fastpath", [True, False])
def test_sanitizer_dry_runs_every_domain_skip(monkeypatch, fastpath):
    sched, domain = _pair_sched(fastpath)
    assert (sched.vec is not None) is fastpath
    # A wrong reach makes the gate skip an attempt that would pull.
    monkeypatch.setattr(
        SchedDomain, "remote_cpus", lambda self, cpu_id: frozenset()
    )
    with pytest.raises(CoherenceError) as info:
        lb.balance_domain(sched, domain, 0, 0)
    assert info.value.accessor == "spare-gate"
    assert info.value.fresh == 1
