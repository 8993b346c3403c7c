"""Tests for the fast-path layer: the caches must be exact, not just fast.

Every optimization here has a correctness obligation stated in its
docstring -- the O(1) pending counter must agree with the heap, the
runqueue load memo must return exactly what a recompute would, every
memo (the load memo and the balance mirror's fold memos) must hold for
its own timestamp and mutation counters only, and group interning must
never outlive a topology rebuild.
These tests pin each obligation directly; the end-to-end guarantee (same
schedule with the fast paths on or off) lives in
``test_determinism_trace.py``.
"""

import random

import pytest

from repro.sched.features import SchedFeatures
from repro.sched.load import LoadTracker, load_sum
from repro.sched.runqueue import RunQueue
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.sim.engine import EventLoop
from repro.topology import two_nodes


# ------------------------------------------------------------- event loop


def test_pending_counter_tracks_schedule_cancel_fire():
    loop = EventLoop()
    handles = [loop.schedule(10 * (i + 1), lambda: None) for i in range(4)]
    assert loop.pending() == 4
    handles[0].cancel()
    assert loop.pending() == 3
    loop.run_until(20)  # fires the (live) 20us event
    assert loop.pending() == 2


def test_double_cancel_counted_once():
    loop = EventLoop()
    keeper = loop.schedule(10, lambda: None)
    victim = loop.schedule(20, lambda: None)
    victim.cancel()
    victim.cancel()
    victim.cancel()
    assert loop.pending() == 1
    keeper.cancel()
    # A double-decrement would have pushed this negative.
    assert loop.pending() == 0


def test_cancel_after_fire_is_a_noop():
    loop = EventLoop()
    handle = loop.schedule(5, lambda: None)
    loop.schedule(50, lambda: None)
    loop.run_until(10)
    assert loop.pending() == 1
    handle.cancel()
    assert loop.pending() == 1


# --------------------------------------------------------- runqueue cache


def _queued(rq, name, now=0, nice=0):
    task = Task(name, nice=nice)
    rq.enqueue(task, now)
    return task


def _decayed_queue(rq, spec, running):
    """Queue one task per (nice, util) pair; dispatch the first if asked."""
    for i, (nice, util) in enumerate(spec):
        task = _queued(rq, f"t{i}", nice=nice)
        task.tracker = LoadTracker(0, initial_util=util)
    if running:
        rq.dispatch(rq.pick_next(), 0)


def test_load_cache_returns_exactly_the_recomputed_value():
    # Queues of 3-5 tasks with decayed utilization: their loads have
    # enough significant bits that a compensated sum (the builtin
    # ``sum`` of floats since Python 3.12) rounds differently from the
    # memo's left-to-right adds in about one case in four.
    rng = random.Random(20)
    for _ in range(200):
        spec = [
            (rng.choice((-5, 0, 0, 3, 10)), rng.random())
            for _ in range(rng.randint(3, 5))
        ]
        running = rng.random() < 0.5
        now = rng.randint(1, 200_000)
        cached = RunQueue(0)
        plain = RunQueue(0, load_cache=False)
        for rq in (cached, plain):
            _decayed_queue(rq, spec, running)
        first = cached.load(now)
        hits_before = cached.load_cache_hits
        assert cached.load(now) is first
        assert cached.load_cache_hits == hits_before + 1
        want = load_sum(t.load(now) for t in plain.all_tasks())
        assert first == plain.load(now) == want


def test_load_sum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16 at every step; a compensated sum
    # would carry the lost ones and return 1e16 + 2.
    assert load_sum([1e16, 1.0, 1.0]) == 1e16
    assert load_sum([]) == 0 and type(load_sum([])) is int


def test_load_cache_invalidated_by_mutation():
    rq = RunQueue(0)
    _queued(rq, "a")
    now = 10_000
    before = rq.load(now)
    _queued(rq, "b", now=now)
    after = rq.load(now)
    assert after > before
    assert after == pytest.approx(
        sum(t.load(now) for t in rq.all_tasks())
    )


def test_load_cache_invalidated_by_divisor_epoch():
    rq = RunQueue(0)
    _queued(rq, "a")
    now = 10_000
    rq.load(now)
    hits = rq.load_cache_hits
    # A cgroup attach/detach bumps the divisor epoch without touching any
    # runqueue; the cache must miss and recompute.
    rq.divisor_epoch.bump()
    rq.load(now)
    assert rq.load_cache_hits == hits


@pytest.mark.parametrize("util", [0.5, 1.0])
def test_load_memo_holds_for_its_own_timestamp_only(util):
    """Loads decay with time, so a memoized sum answers its own ``now``
    alone: a later timestamp recomputes with no mutation in between,
    even when the tracker has converged (1.0 while running) and the
    value cannot move."""
    rq = RunQueue(0)
    task = _queued(rq, "a")
    task.tracker = LoadTracker(0, initial_util=util)
    rq.dispatch(task, 0)
    first = rq.load(10_000)
    misses = rq.load_cache_misses
    later = rq.load(20_000)
    assert rq.load_cache_misses == misses + 1
    assert later == load_sum(t.load(20_000) for t in rq.all_tasks())
    if util < 1.0:
        assert later > first


@pytest.mark.parametrize("change", ["attach", "detach"])
def test_load_memo_sees_group_membership_change_on_another_cpu(change):
    """A member joining or leaving an autogroup changes every member's
    divisor, so a queue's memoized load goes stale even when the member
    that moved sits on another CPU."""
    sched = Scheduler(two_nodes(cores_per_node=4), SchedFeatures())
    group = sched.cgroups.autogroup_for_tty("pts/1")
    members = [Task(f"m{i}") for i in range(3)]
    for task, cpu_id in zip(members, (0, 0, 1)):
        sched.cgroups.attach(task, group)
        sched.enqueue_task_on(task, cpu_id, 0)
    rq = sched.cpus[0].rq
    now = 10_000
    rq.load(now)
    if change == "attach":
        joiner = Task("joiner")
        sched.cgroups.attach(joiner, group)
        sched.enqueue_task_on(joiner, 1, now)
    else:
        sched.cpus[1].rq.take(members[2], now)
        sched.cgroups.detach(members[2])
    assert rq.load(now) == load_sum(t.load(now) for t in rq.all_tasks())


# ------------------------------------------------------ balance-mirror memos


def make_sched():
    return Scheduler(
        two_nodes(cores_per_node=4), SchedFeatures().without_autogroup()
    )


def add_queued(sched, cpu_id, name):
    task = Task(name)
    sched.register_task(task)
    sched.cpus[cpu_id].rq.enqueue(task, 0)
    return task


def test_group_stats_memo_hits_within_a_pass():
    sched = make_sched()
    add_queued(sched, 0, "t0")
    add_queued(sched, 1, "t1")
    domain = sched.domain_builder.domains_of(0)[-1]
    vstate = sched.vec
    _, local, _ = vstate.find_busiest(domain, 0, 1000)
    fold = vstate._gstats[id(local.group)]
    # A second selection at the same timestamp folds nothing: it reads
    # the same memo entry and hands out the same GroupStats.
    assert vstate.find_busiest(domain, 0, 1000)[1] is local
    assert vstate._gstats[id(local.group)] is fold


def test_a_mutation_refolds_at_the_same_timestamp():
    """A fold is reused only at its own ``(now, version)``: any mutation
    bumps the version, so even a group none of whose members changed is
    refolded into a fresh entry -- with the same values."""
    sched = make_sched()
    add_queued(sched, 0, "t0")
    # Registered up front: registration touches cgroup state (divisor
    # epoch), which legitimately drops every memo.  The mid-pass event
    # under test is the enqueue alone.
    straggler = Task("t0b")
    sched.register_task(straggler)
    domain = sched.domain_builder.domains_of(0)[-1]
    node1 = next(g for g in domain.groups if 0 not in g.cpus)
    vstate = sched.vec
    _, stats0, _ = vstate.find_busiest(domain, 0, 1000)
    fold1 = vstate._gstats[id(node1)]
    version = vstate._version
    sched.cpus[0].rq.enqueue(straggler, 0)
    assert vstate._version > version
    _, refolded, _ = vstate.find_busiest(domain, 0, 1000)
    fresh1 = vstate._gstats[id(node1)]
    assert fresh1 is not fold1
    assert fresh1[1:3] == [1000, vstate._version]
    assert fresh1[3:9] == fold1[3:9]
    assert refolded is not stats0
    assert refolded.nr_running == stats0.nr_running + 1


# -------------------------------------------------------- group interning


def test_groups_are_interned_across_cpu_perspectives():
    sched = make_sched()
    builder = sched.domain_builder
    top0 = builder.domains_of(0)[-1]
    top1 = builder.domains_of(1)[-1]
    by_cpus_0 = {g.cpus: g for g in top0.groups}
    by_cpus_1 = {g.cpus: g for g in top1.groups}
    assert set(by_cpus_0) == set(by_cpus_1)
    for cpus, group in by_cpus_0.items():
        # Same membership => the very same object, so id-keyed memos are
        # shared between every CPU's domain walk.
        assert by_cpus_1[cpus] is group


def test_interning_pool_does_not_outlive_a_rebuild():
    sched = make_sched()
    builder = sched.domain_builder
    assert builder._group_pool == {}
    old_top = builder.domains_of(0)[-1]
    sched.set_cpu_online(7, False, now=0)
    # Pool cleared again, and the rebuilt domains dropped the dead CPU:
    # stale interned groups must not leak into the new topology.
    assert builder._group_pool == {}
    new_top = builder.domains_of(0)[-1]
    assert all(7 not in g.cpus for g in new_top.groups)
    assert any(7 in g.cpus for g in old_top.groups)


def test_sorted_cpu_tuples_are_cached_and_correct():
    sched = make_sched()
    domain = sched.domain_builder.domains_of(0)[-1]
    for group in domain.groups:
        first = group.sorted_cpus()
        assert first == tuple(sorted(group.cpus))
        assert group.sorted_cpus() is first
        mask = group.sorted_balance_mask()
        assert mask == tuple(sorted(group.balance_mask()))
        assert group.sorted_balance_mask() is mask
