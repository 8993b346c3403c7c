"""Tests for the vectorized array-backed core (repro.sched.vecstate).

The end-to-end guarantee -- byte-identical schedules on the reference
and fast paths -- lives in ``tests/test_cross_path.py``.  Pinned here
are the layer's local obligations: the struct-of-arrays mirror must be
exact against the queues, every
invalidation trigger (dirty marks, new timestamps, idle transitions,
divisor bumps, hotplug) must actually drop what it claims to, the folds
must produce the exact objects the scalar fold produces, and the layer
must run without importing numpy.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.sched import wakeup as wk
from repro.sched.balance import (
    _elect_designated,
    compute_group_stats,
    reference_busiest_group,
)
from repro.sched.features import SchedFeatures
from repro.sched.load import LoadTracker
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import two_nodes
from tests.conftest import hog_spec


def _vec_system(seed=7):
    system = System(two_nodes(4, smt_width=2), SchedFeatures(), seed=seed)
    return system, system.scheduler


def _spawn_some(system, n=6):
    for i in range(n):
        system.spawn(hog_spec(f"hog{i}"), parent_cpu=(i * 3) % 8)


# ----------------------------------------------------------- construction


def test_vectorized_feature_builds_vecstate():
    _, sched = _vec_system()
    assert sched.vec is not None
    # Every runqueue is wired to the mirror's dirty tracking.
    for cpu in sched.cpus:
        assert cpu.rq.vec is sched.vec
    # The reference path builds no mirror.
    reference = System(two_nodes(4), SchedFeatures().with_fastpath(False))
    assert reference.scheduler.vec is None
    assert all(cpu.rq.vec is None for cpu in reference.scheduler.cpus)


def test_vectorized_soak_never_imports_numpy():
    # The vectorized core is pure Python; importing numpy would cost
    # every run its import time and resident memory.  A fresh
    # interpreter keeps other tests' imports out of the check.
    prog = (
        "import sys\n"
        "import repro\n"
        "from repro.workloads.base import TaskSpec\n"
        "from repro.workloads.cpubound import cpu_hog_program, periodic_task\n"
        "from repro.sched.features import SchedFeatures\n"
        "from repro.sim.system import System\n"
        "from repro.sim.timebase import MS\n"
        "from repro.topology import amd_bulldozer_64\n"
        "system = System(amd_bulldozer_64(),\n"
        "                SchedFeatures(), seed=3)\n"
        "for i in range(80):\n"
        "    system.spawn(TaskSpec(f'hog{i}', cpu_hog_program()),\n"
        "                 parent_cpu=i % 64)\n"
        "for i in range(16):\n"
        "    system.spawn(periodic_task(f'sleep{i}', 1 * MS, 2 * MS),\n"
        "                 parent_cpu=(i * 5) % 64)\n"
        "system.run_for(20 * MS)\n"
        "assert system.loop.events_fired > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------ mirror sync


def _assert_folds_match(sched, now):
    """Every fold find_busiest reads is the reference fold, exactly."""
    vstate = sched.vec
    for domain in sched.domain_builder.domains_of(0):
        vstate.find_busiest(domain, 0, now)
        folded = [
            (group, compute_group_stats(sched, group, now))
            for group in domain.groups
        ]
        folded = [(group, want) for group, want in folded if want is not None]
        read = vstate._folds_read(domain, 0)
        assert len(read) == len(folded)
        for (group, want), got in zip(folded, read):
            assert got.group is group
            # Exact equality, field by field -- including int-vs-float
            # type (the digest distinguishes them).
            for field in (
                "avg_load", "min_load", "max_load",
                "nr_running", "capacity", "min_nr", "max_nr",
            ):
                g, w = getattr(got, field), getattr(want, field)
                assert g == w and type(g) is type(w), (
                    f"{group}: {field}: {g!r} != {w!r}"
                )


def test_group_folds_match_scalar_fold_exactly():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    _assert_folds_match(sched, system.now)
    # Groups of four CPUs whose queues hold tasks of decayed
    # utilization: the group load sum has enough significant bits that
    # a compensated sum (the builtin ``sum`` of floats since Python
    # 3.12) would round differently from the mirror's left-to-right
    # adds.
    rng = random.Random(5)
    for _ in range(40):
        sched = Scheduler(
            two_nodes(cores_per_node=4), SchedFeatures().without_autogroup()
        )
        for cpu in sched.cpus:
            for i in range(rng.randint(1, 3)):
                task = Task(f"c{cpu.cpu_id}t{i}", nice=rng.choice((0, 5)))
                sched.register_task(task)
                cpu.rq.enqueue(task, 0)
                task.tracker = LoadTracker(0, initial_util=rng.random())
        _assert_folds_match(sched, rng.randint(1, 200_000))


def test_dirty_mark_resamples_only_after_mutation():
    """A mutation stales its own slot only, until that slot is read."""
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    now = system.now
    vstate = sched.vec
    vstate._sample(range(len(sched.cpus)), now)
    assert vstate._at == [now] * len(sched.cpus)
    rq = sched.cpus[0].rq
    before = vstate._loads[0]
    task = Task("late", nice=0)
    rq.enqueue(task, now)  # mutator calls mark_dirty via the wiring
    assert vstate._at[0] == -1
    assert vstate._at[1:] == [now] * (len(sched.cpus) - 1)
    vstate._sample([0], now)
    assert vstate._at[0] == now
    assert vstate._loads[0] == rq.load(now)
    assert vstate._loads[0] != before
    rq.take(task, now)  # restore


@pytest.mark.parametrize(
    "mutator", ["enqueue", "take", "dispatch", "clear_current"]
)
def test_every_mutator_stales_its_own_slot(mutator):
    """Each runqueue mutator marks its mirror slot dirty, and only it."""
    sched = _occupied_sched(SchedFeatures(), idle=(2,))
    now = MS
    rq = sched.cpus[2].rq
    task = Task("mover")
    if mutator != "enqueue":
        rq.enqueue(task, now)
    if mutator == "clear_current":
        rq.dispatch(task, now)
    vstate = sched.vec
    vstate._sample(range(len(sched.cpus)), now)
    version = vstate._version
    if mutator == "enqueue":
        rq.enqueue(task, now)
    elif mutator == "take":
        rq.take(task, now)
    elif mutator == "dispatch":
        rq.dispatch(task, now)
    else:
        rq.clear_current(now)
    assert [i for i, at in enumerate(vstate._at) if at != now] == [2]
    assert vstate._version > version


def test_new_timestamp_stales_every_load_slot():
    """A new timestamp stales every slot; only the slots read resample."""
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    vstate = sched.vec
    vstate._sample(range(len(sched.cpus)), system.now)
    later = system.now + 1_000
    # Every sample is stale at the new timestamp, but none is re-read
    # until a fold asks for it.
    assert later not in vstate._at
    vstate._sample([3], later)
    assert [i for i, at in enumerate(vstate._at) if at == later] == [3]
    vstate._sample(range(len(sched.cpus)), later)
    for cpu in sched.cpus:
        assert vstate._loads[cpu.cpu_id] == cpu.rq.load(later)


def _sampled_at(vstate, now):
    return {i for i, at in enumerate(vstate._at) if at == now}


def test_smt_pair_attempt_resamples_exactly_two_slots():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    smt = sched.domain_builder.domains_of(0)[0]
    assert smt.name == "SMT" and len(smt.span) == 2
    fresh = system.now + 1_000  # nothing sampled at this timestamp yet
    vstate = sched.vec
    vstate.find_busiest(smt, 0, fresh)
    assert _sampled_at(vstate, fresh) == set(smt.span)


def test_wide_attempt_resamples_only_its_domain():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    mc = sched.domain_builder.domains_of(0)[1]
    assert mc.name == "MC" and len(mc.span) < len(sched.cpus)
    fresh = system.now + 1_000
    vstate = sched.vec
    vstate.find_busiest(mc, 0, fresh)
    assert _sampled_at(vstate, fresh) == set(mc.span)


# ------------------------------------------------------ election memoing


def _wide_group(sched):
    """A group whose balance mask spans more than one CPU."""
    for domain in reversed(sched.domain_builder.domains_of(0)):
        try:
            local = domain.local_group(0)
        except ValueError:
            continue
        if len(local.sorted_balance_mask()) > 1:
            return local
    pytest.skip("topology has no multi-CPU balance mask")


def test_designated_memo_tracks_election_on_idle_change():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    now = system.now
    vstate = sched.vec
    group = _wide_group(sched)
    winner = vstate.designated_for(group)
    assert id(group) in vstate._designated
    assert vstate.designated_for(group) == winner  # memo hit
    # A flip is only queued; the entry survives it and is re-elected at
    # the next query, so it always equals a from-scratch election.
    seen = {winner}
    for member in group.sorted_balance_mask():
        rq = sched.cpus[member].rq
        if rq.nr_running == 0:
            rq.enqueue(Task(f"poke{member}"), now)
        else:
            task = next(iter(rq.queued_tasks()), None)
            if task is None:
                continue
            rq.take(task, now)
        assert id(group) in vstate._designated
        assert vstate.designated_for(group) == _elect_designated(sched, group)
        winner = vstate._designated[id(group)]
        assert winner == _elect_designated(sched, group)
        seen.add(winner)
    assert len(seen) > 1  # some flip really moved the election
    # A bare mark without a real change re-elects nothing new.
    vstate.mark_idle_change(group.sorted_balance_mask()[0])
    assert vstate.designated_for(group) == _elect_designated(sched, group)


@pytest.mark.parametrize("leave", ["take", "migrate", "deschedule"])
def test_cpu_going_idle_is_reelected(leave):
    """The last task leaving a CPU makes it idle, and every memoized
    election over it must see that flip."""
    sched = _occupied_sched(SchedFeatures(), idle=(2,))
    vec = sched.vec
    groups = []
    for domain in sched.domain_builder.domains_of(2):
        group = domain.local_group(2)
        if len(group.sorted_balance_mask()) > 1:
            groups.append(group)
    assert groups
    for group in groups:
        assert vec.designated_for(group) == 2  # the only idle CPU
    rq = sched.cpus[2].rq
    task = Task("mover")
    sched.enqueue_task_on(task, 2, 0)  # queued, not dispatched
    if leave == "deschedule":
        rq.dispatch(task, 0)
    for group in groups:
        assert vec.designated_for(group) != 2  # busy now
    if leave == "take":
        rq.take(task, 0)
    elif leave == "migrate":
        sched.migrate_task(task, 2, 0, 0, "test")
    else:
        rq.clear_current(0)
    assert sched.cpus[2].is_idle
    for group in groups:
        assert vec.designated_for(group) == 2
        assert vec.designated_for(group) == _elect_designated(
            sched, group
        )


def test_hotplug_drops_interned_indices_and_balance_plans():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    vstate = sched.vec
    group = _wide_group(sched)
    domain = next(
        d for d in sched.domain_builder.domains_of(0)
        if d.local_group(0) is group
    )
    vstate.find_busiest(domain, 0, system.now)
    vstate.designated_for(group)
    assert vstate._gidx and vstate._gstats
    gen_before = sched.domain_builder.generation
    plan_before = sched.cpus[0].balance_plan
    system.hotplug_cpu(1, False)
    assert sched.domain_builder.generation > gen_before
    assert not vstate._gidx
    assert not vstate._gstats
    assert not vstate._designated
    assert set(vstate._at) == {-1}
    # The per-CPU periodic plans are generation-keyed: the stale plan
    # object may linger but can never be used again.
    if plan_before is not None:
        assert sched.cpus[0].balance_plan_gen != (
            sched.domain_builder.generation
        )
    system.hotplug_cpu(1, True)


def test_hotplug_cycle_reelects_over_the_new_domain_table():
    """An offline/online cycle swaps the domain table -- here back to the
    very same interned one, so the old memo keys match again.  CPU 2
    goes idle and its flip is reconciled while it is offline, where the
    incremental update skips it; only the hotplug reset can bring the
    elections over it up to date."""
    sched = _occupied_sched(
        SchedFeatures().with_fixes("missing_domains"), idle=()
    )
    table = sched.domain_builder._domains

    def elect_all():
        vec = sched.vec
        for cpu in sched.cpus:
            if not cpu.online:
                continue
            for domain in sched.domain_builder.domains_of(cpu.cpu_id):
                group = domain.local_group(cpu.cpu_id)
                yield group, vec.designated_for(group)

    before = {id(group): winner for group, winner in elect_all()}
    sched.deschedule(2, 0, requeue=False)
    sched.set_cpu_online(2, False, 0)
    list(elect_all())
    sched.set_cpu_online(2, True, 0)
    assert sched.domain_builder._domains is table
    elections = list(elect_all())
    assert any(before[id(group)] != winner for group, winner in elections)
    for group, winner in elections:
        assert winner == _elect_designated(sched, group)


# ----------------------------------------------- periodic-balance gates


def _occupied_sched(features, idle=(2,)):
    """two_nodes(4) with one running task on every CPU but ``idle``."""
    sched = Scheduler(two_nodes(cores_per_node=4), features)
    for cpu in sched.cpus:
        if cpu.cpu_id not in idle:
            _run_on(sched, cpu.cpu_id, 0)
    return sched


def _run_on(sched, cpu_id, now):
    task = Task(f"run{cpu_id}@{now}")
    sched.enqueue_task_on(task, cpu_id, now)
    assert sched.pick_next_task(cpu_id, now) is task
    return task


def _tick_to(sched, until_us):
    for now in range(MS, until_us + 1, MS):
        sched.tick(now)


def test_transient_take_set_current_pair_disarms_no_gate():
    sched = _occupied_sched(SchedFeatures())
    _tick_to(sched, 10 * MS)
    vec = sched.vec
    now = 10 * MS + 500
    sched.enqueue_task_on(Task("queued"), 2, now)  # a real flip
    vec.disarm_token()  # reconcile it
    gates, epochs, disarms = list(vec._gate), list(vec._gate_ep), vec._disarms
    # pick_next_task moves the task from the queue to curr in one
    # dispatch: nr_running stays 1, so no idle flip is even queued.
    assert sched.pick_next_task(2, now) is not None
    assert vec._idle_q == []
    assert vec.disarm_token() == disarms
    assert vec._gate == gates
    assert vec._gate_ep == epochs


def test_flip_outside_every_mask_keeps_gate_armed():
    sched = _occupied_sched(SchedFeatures(), idle=(2, 5))
    _tick_to(sched, 10 * MS)
    vec = sched.vec
    now = 10 * MS
    masks = set()
    for domain in sched.domain_builder.domains_of(0):
        masks.update(domain.local_group(0).sorted_balance_mask())
    assert 5 not in masks
    epoch = vec.gate_token(0)
    gate = vec._gate[0]
    assert gate > now  # gated
    disarms = vec._disarms
    sched.enqueue_task_on(Task("outside"), 5, now)  # 5 idle -> busy
    assert vec._idle_q == [5]  # only queued so far
    assert vec.gate_token(0) == epoch  # reconciled: 0 was not disarmed
    assert vec._gate[0] == gate
    assert vec._disarms > disarms  # 5's own node did re-elect


def _winner_gain(features):
    """Node 0's NUMA winner moves from idle CPU 2 to CPU 0, then a tick."""
    sched = _occupied_sched(features)
    _tick_to(sched, 10 * MS)
    vec = sched.vec
    epochs = list(vec._gate_ep) if vec is not None else None
    _run_on(sched, 2, 10 * MS + 500)  # node 0 has no idle CPU left
    changed = None
    if vec is not None:
        vec.disarm_token()
        changed = [
            c for c in range(len(epochs)) if vec._gate_ep[c] != epochs[c]
        ]
    sched.tick(11 * MS)
    return sched, changed


def test_winner_gain_disarms_exactly_that_cpu_and_balances_like_reference():
    fast, changed = _winner_gain(SchedFeatures())
    reference, _ = _winner_gain(SchedFeatures().with_fastpath(False))
    assert changed == [0]
    numa = fast.domain_builder.domains_of(0)[1]
    # CPU 0 won the never-balanced NUMA level and walked it at once.
    assert fast.cpus[0].next_balance_us[numa.level] == (
        11 * MS + numa.balance_interval_us
    )
    assert [c.next_balance_us for c in fast.cpus] == [
        c.next_balance_us for c in reference.cpus
    ]
    assert fast.balance_calls == reference.balance_calls


# ------------------------------------------------- differential machine


class FastAnswersMachine(RuleBasedStateMachine):
    """Random scheduler churn; the fast path's memoized elections and
    idle-sibling wake targets must equal the from-scratch answers."""

    def __init__(self):
        super().__init__()
        self.sched = Scheduler(
            two_nodes(cores_per_node=4, smt_width=2),
            SchedFeatures().with_fixes("overload_on_wakeup"),
        )
        self.now = 0
        self.parked = []

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

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def enqueue(self, data, dt):
        cpu_id = data.draw(st.sampled_from(self._online()))
        task = Task(f"t{len(self.sched.tasks)}")
        self.sched.enqueue_task_on(task, cpu_id, self._advance(dt))

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def take(self, data, dt):
        queued = self._queued()
        if queued:
            cpu_id, task = data.draw(st.sampled_from(queued))
            self.sched.cpus[cpu_id].rq.take(task, self._advance(dt))
            task.state = TaskState.SLEEPING
            self.parked.append(task)

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def set_current(self, data, dt):
        idle = [
            c for c in self._online() if self.sched.cpus[c].rq.curr is None
        ]
        if idle:
            self.sched.pick_next_task(
                data.draw(st.sampled_from(idle)), self._advance(dt)
            )

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def stop_current(self, data, dt):
        busy = [c.cpu_id for c in self.sched.cpus if c.rq.curr is not None]
        if busy:
            task = self.sched.deschedule(
                data.draw(st.sampled_from(busy)), self._advance(dt), False
            )
            task.state = TaskState.SLEEPING
            self.parked.append(task)

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def migrate(self, data, dt):
        queued = self._queued()
        if queued:
            src, task = data.draw(st.sampled_from(queued))
            dst = data.draw(st.sampled_from(self._online()))
            if dst != src and task.can_run_on(dst):
                self.sched.migrate_task(
                    task, src, dst, self._advance(dt), "test"
                )

    @rule(dt=st.integers(0, 2 * MS))
    def tick(self, dt):
        self.sched.tick(self._advance(dt))

    @rule(data=st.data(), dt=st.integers(0, 2 * MS))
    def hotplug(self, data, dt):
        now = self._advance(dt)
        cpu_id = data.draw(st.sampled_from(range(len(self.sched.cpus))))
        cpu = self.sched.cpus[cpu_id]
        if not cpu.online:
            self.sched.set_cpu_online(cpu_id, True, now)
        elif len(self._online()) > 1:
            running = self.sched.deschedule(cpu_id, now, requeue=False)
            if running is not None:
                running.state = TaskState.BLOCKED
                self.parked.append(running)
            self.parked.extend(self.sched.set_cpu_online(cpu_id, False, now))

    @rule(data=st.data())
    def affinity(self, data):
        if self.parked:
            task = data.draw(st.sampled_from(self.parked))
            cpus = data.draw(
                st.frozensets(st.sampled_from(range(8)), min_size=1)
            )
            task.set_affinity(cpus)

    @rule()
    def elect_all(self):
        """Memoize every election, so later flips update them in place."""
        vec = self.sched.vec
        for cpu_id in self._online():
            for domain in self.sched.domain_builder.domains_of(cpu_id):
                vec.designated_for(domain.local_group(cpu_id))

    @invariant()
    def elections_are_current(self):
        """The incremental update lands every memo on the full election,
        and disarms the gate of exactly the CPUs that became a winner."""
        vec = self.sched.vec
        before = dict(vec._designated)
        gates = list(vec._gate)
        vec.disarm_token()
        gained = set()
        for bucket in vec._desig_by_cpu:
            for entry in bucket:
                winner = vec._designated[id(entry.group)]
                assert winner == _elect_designated(self.sched, entry.group)
                if winner != before[id(entry.group)]:
                    gained.add(winner)
        for cpu_id, gate in enumerate(vec._gate):
            if cpu_id in gained:
                assert gate == 0
            else:
                assert gate == gates[cpu_id]

    @invariant()
    def wake_targets_match_scans(self):
        probes = self.parked or [Task("probe")]
        for task in probes:
            if not any(task.can_run_on(c) for c in self._online()):
                continue
            for target in self._online():
                assert wk._fast_idle_sibling(
                    self.sched, task, target, self.now
                ) == wk._scan_idle_sibling(self.sched, task, target, self.now)


FastAnswersMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    derandomize=True,
)
TestFastAnswers = FastAnswersMachine.TestCase


# ------------------------------------------------- busiest-group selection


def test_find_busiest_agrees_with_scalar_selection():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(15 * MS)
    now = system.now
    vstate = sched.vec
    for dst in range(len(sched.cpus)):
        for domain in sched.domain_builder.domains_of(dst):
            busiest, local, _ = vstate.find_busiest(domain, dst, now)
            s_busiest, s_local, _ = reference_busiest_group(
                sched, domain, dst, now
            )
            if s_busiest is None:
                assert busiest is None
            else:
                assert busiest is not None
                assert busiest.group is s_busiest.group
                assert busiest.avg_load == s_busiest.avg_load
                assert busiest.min_load == s_busiest.min_load
            # Balanced or not, both paths return the same local group.
            assert (local is None) == (s_local is None)
            if local is not None:
                assert local.group is s_local.group


def test_find_busiest_returns_local_on_balanced_outcomes():
    """``find_busiest_group``'s contract, ``(None, local)`` on a balanced
    domain, holds on the fast path whether or not a probe listens."""
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(15 * MS)
    balanced = 0
    for dst in range(len(sched.cpus)):
        for domain in sched.domain_builder.domains_of(dst):
            busiest, local, _ = sched.vec.find_busiest(
                domain, dst, system.now
            )
            if busiest is None:
                balanced += 1
                assert local is not None
                assert dst in local.cpus
    assert balanced


def test_sanitized_vectorized_soak_raises_nothing():
    # The coherence sanitizer cross-checks every vectorized fold and
    # election against a from-scratch recompute -- a soak under it is a
    # dense exactness test of the whole mirror protocol.
    features = SchedFeatures().with_sanitizer(True)
    system = System(two_nodes(4, smt_width=2), features, seed=11)
    _spawn_some(system)
    system.run_for(30 * MS)
    assert system.loop.events_fired > 0
