"""Tests for the fast-path layer: the caches must be exact, not just fast.

Every optimization here has a correctness obligation stated in its
docstring -- the O(1) pending counter must agree with the heap, the
runqueue load memo must return exactly what a recompute would, the
balance mirror's fold memos must survive exactly the events that cannot
change their answer, and group interning must never outlive a topology rebuild.
These tests pin each obligation directly; the end-to-end guarantee (same
schedule with the fast paths on or off) lives in
``test_determinism_trace.py``.
"""

import pytest

from repro.sched.features import SchedFeatures
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


def test_compaction_evicts_cancelled_garbage():
    loop = EventLoop()
    handles = [loop.schedule(1000 + i, lambda: None) for i in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    assert loop.compactions >= 1
    assert loop.pending() == 40
    # Compaction keeps garbage a strict minority of the heap (it fires as
    # soon as lazy cancels outnumber live entries, so some sub-threshold
    # garbage may legitimately remain).
    garbage = loop.heap_size() - loop.pending()
    assert garbage <= loop.pending()
    assert loop.heap_size() < 100


def test_small_heaps_are_never_compacted():
    loop = EventLoop()
    handles = [loop.schedule(1000 + i, lambda: None) for i in range(20)]
    for handle in handles:
        handle.cancel()
    assert loop.compactions == 0
    assert loop.heap_size() == 20


def test_compaction_can_be_disabled():
    loop = EventLoop(compact=False)
    handles = [loop.schedule(1000 + i, lambda: None) for i in range(100)]
    for handle in handles:
        handle.cancel()
    assert loop.compactions == 0
    assert loop.heap_size() == 100
    assert loop.pending() == 0


def test_firing_order_identical_with_and_without_compaction():
    def run(compact):
        loop = EventLoop(compact=compact)
        fired = []
        handles = []
        for i in range(200):
            handles.append(
                loop.schedule(10 + i, lambda i=i: fired.append(i))
            )
        for i in range(0, 200, 2):
            handles[i].cancel()
        loop.run_until(300)
        return fired, loop.events_fired

    with_compaction = run(True)
    without_compaction = run(False)
    assert with_compaction == without_compaction
    assert with_compaction[0] == list(range(1, 200, 2))


# --------------------------------------------------------- runqueue cache


def _queued(rq, name, now=0, nice=0):
    task = Task(name, nice=nice)
    rq.enqueue(task, now)
    return task


def test_load_cache_returns_exactly_the_recomputed_value():
    cached = RunQueue(0)
    plain = RunQueue(0, load_cache=False)
    for rq in (cached, plain):
        _queued(rq, "a")
        _queued(rq, "b", nice=5)
    now = 40_000
    first = cached.load(now)
    hits_before = cached.load_cache_hits
    assert cached.load(now) == first
    assert cached.load_cache_hits == hits_before + 1
    assert first == plain.load(now)


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


# ------------------------------------------------------ balance-mirror memos


def make_sched():
    return Scheduler(
        two_nodes(cores_per_node=4), SchedFeatures().without_autogroup()
    )


def add_queued(sched, cpu_id, name):
    task = Task(name)
    sched.register_task(task)
    sched.cpu(cpu_id).rq.enqueue(task, 0)
    return task


def test_group_stats_memo_hits_within_a_pass():
    sched = make_sched()
    add_queued(sched, 0, "t0")
    add_queued(sched, 1, "t1")
    domain = sched.domain_builder.domains_of(0)[-1]
    vstate = sched.vec_pass(1000)
    group = domain.groups[0]
    first = vstate.group_stats(group)
    assert vstate.group_stats(group) is first


def test_group_stats_signature_survives_unrelated_churn():
    sched = make_sched()
    add_queued(sched, 0, "t0")
    # Registered up front: registration touches cgroup state (divisor
    # epoch), which legitimately drops every memo.  The mid-pass event
    # under test is the enqueue alone.
    straggler = Task("t0b")
    sched.register_task(straggler)
    domain = sched.domain_builder.domains_of(0)[-1]
    node0 = next(g for g in domain.groups if 0 in g.cpus)
    node1 = next(g for g in domain.groups if 0 not in g.cpus)
    vstate = sched.vec_pass(1000)
    stats0 = vstate.group_stats(node0)
    stats1 = vstate.group_stats(node1)
    # Churn on node 0 dirties the mirror; node 1's fold is still valid
    # (none of its members' samples changed) and must be reused, while
    # node 0's must be refolded.
    sched.cpu(0).rq.enqueue(straggler, 0)
    assert vstate.group_stats(node1) is stats1
    refolded = vstate.group_stats(node0)
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
