"""Pick-index tie-breaking: equal-vruntime picks in exact rbtree order.

The pick index's ordering contract is the rbtree's composite
``(vruntime, tid)`` insertion key, so equal-vruntime tasks must pick in
tid order on every path that can answer a pick: the rbtree itself (the
scalar reference), the cached-min probe, and the in-frame argmin
recompute.  These tests drain adversarial tie-heavy populations through
each path and cross-check against the tree; a full traced run then
proves the whole scheduler picks identically across the scalar and
vectorized variants, with the replay differ naming the first divergent
event on failure.  Coherence under requeue / migrate / hotplug rides on
the sanitizer's per-pick leftmost cross-check.
"""

import hashlib

import pytest

from repro.sched.pickindex import PickIndex
from repro.sched.rbtree import RBTree
from repro.sched.runqueue import RunQueue
from repro.sched.features import SchedFeatures
from repro.sched.task import Task
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.slo.replay import diff_events, serialize_buffer
from repro.topology import two_nodes
from repro.viz.events import TraceBuffer, TraceProbe

def _task(tid):
    return Task(name=f"t{tid}", program=None, tid=tid)


def _population(n, ties):
    """n tasks over ``ties`` distinct vruntimes, tids shuffled
    deterministically so insertion order fights the pick order."""
    tasks = []
    for i in range(n):
        tid = (i * 7919) % (n * 13) + 1  # coprime stride: unique, shuffled
        tasks.append((i % ties, tid, _task(tid)))
    return tasks


def _drain(index, tree):
    """Pop tasks from both structures in pick order; assert agreement."""
    order = []
    while len(index):
        picked = index.peek()
        pair = tree.leftmost()
        assert pair is not None
        assert picked is pair[1], (
            f"index picked tid {picked.tid} vr {picked.vruntime}, "
            f"tree leftmost tid {pair[1].tid} vr {pair[0][0]}"
        )
        order.append(picked)
        index.remove(picked.tid)
        tree.remove(pair[0])
    assert tree.leftmost() is None
    return order


@pytest.mark.parametrize("n,ties", [(12, 3), (200, 5), (96, 1)])
def test_equal_vruntime_drain_matches_rbtree_order(n, ties):
    # Small and machine-scale queues; ties=1 makes every key a tie, so
    # tid alone decides every single pick.
    index = PickIndex()
    tree = RBTree()
    for vr, tid, task in _population(n, ties):
        task.vruntime = vr
        index.insert(vr, tid, task)
        tree.insert((vr, tid), task)
    order = _drain(index, tree)
    keys = [(t.vruntime, t.tid) for t in order]
    assert keys == sorted(keys)
    assert len(order) == n


def test_stale_cached_min_recompute_preserves_tie_order():
    # Removing the cached minimum leaves the probe stale; the recompute
    # must re-break the remaining all-equal keys by tid, on small and
    # machine-scale queues alike.
    for n in (8, 150):
        index = PickIndex()
        tids = [(i * 31) % (n * 3) + 1 for i in range(n)]
        assert len(set(tids)) == n
        for tid in tids:
            index.insert(5, tid, _task(tid))
        for expected in sorted(tids):
            picked = index.peek()
            assert picked.tid == expected
            index.remove(picked.tid)  # invalidates the cached min
        assert index.peek() is None


def test_requeue_moves_tie_position_exactly_like_tree():
    # A requeue (vruntime change of a queued task) re-sorts both
    # structures; with the sanitizer on, every pick cross-checks the
    # index against the tree's leftmost and raises on any drift.
    rq = RunQueue(cpu_id=0, sanitize=True)
    rq.pidx = PickIndex()
    tasks = [_task(tid) for tid in (3, 1, 2, 5, 4)]
    for task in tasks:
        task.vruntime = 10
        rq.enqueue(task, now=0)
    assert rq.pick_next() is tasks[1]  # tid 1 wins the 5-way tie
    # Push tid 1 to the back, pull tid 4 to the front, re-tie tid 5.
    rq.requeue(tasks[1], 20, now=0)
    rq.requeue(tasks[4], 1, now=0)
    assert rq.pick_next() is tasks[4]
    rq.take(tasks[4], now=0)
    assert rq.pick_next() is tasks[2]  # the (10, 2) tie resumes
    # put_prev / set_current round trip lands back in tie order too.
    rq.take(tasks[2], now=0)
    rq.set_current(tasks[2], now=0)
    rq.put_prev(tasks[2], now=0)
    assert rq.pick_next() is tasks[2]
    drained = []
    while rq.pick_next() is not None:
        drained.append(rq.take(rq.pick_next(), now=0).tid)
    assert drained == [2, 3, 5, 1]


def _traced_stream(variant, seed=13):
    transform = {
        "fast": lambda f: f.with_fastpath(True),
        "vec": lambda f: f.with_vectorized(True),
    }[variant]
    system = System(two_nodes(4, smt_width=2), transform(SchedFeatures()),
                    seed=seed)
    buffer = TraceBuffer()
    system.attach_probe(TraceProbe(buffer=buffer, record_load=False))
    from repro.perf.bench import _hog, _sleeper

    for i in range(6):
        system.spawn(_hog(f"hog{i}"), parent_cpu=(i * 3) % 8)
    for i in range(4):
        system.spawn(_sleeper(f"sleep{i}"), parent_cpu=(i * 5) % 8)
    system.run_for(40 * MS)
    return serialize_buffer(buffer)


def _digest(stream):
    h = hashlib.sha256()
    for event in stream:
        h.update(repr(event).encode())
    return h.hexdigest()


def test_pick_paths_schedule_identically_across_variants():
    # The end-to-end tie-order claim: scalar rbtree picks (fast) and
    # the pick index (vec) must produce byte-identical trace streams.
    # On failure the replay differ names the first divergent event --
    # the actionable form of "digests differ".
    reference = _traced_stream("fast")
    assert len(reference) > 0
    stream = _traced_stream("vec")
    divergence = diff_events(stream, reference)
    if divergence is not None:
        got = stream[divergence] if divergence < len(stream) else None
        want = (
            reference[divergence] if divergence < len(reference) else None
        )
        pytest.fail(
            f"vec: first divergence at event {divergence}: "
            f"vec={got!r} fast={want!r}"
        )
    assert _digest(stream) == _digest(reference)


def test_pick_index_coherent_under_migration_and_hotplug():
    # A sanitized vectorized soak with a mid-run hotplug cycle: every
    # pick cross-checks index-vs-tree, so any coherence break under the
    # migration drain or the offline/online rebuild raises.
    features = SchedFeatures().with_vectorized(True).with_sanitizer(True)
    system = System(two_nodes(4, smt_width=2), features, seed=17)
    from repro.perf.bench import _hog, _sleeper

    for i in range(8):
        system.spawn(_hog(f"hog{i}"), parent_cpu=i % 8)
    for i in range(4):
        system.spawn(_sleeper(f"sleep{i}"), parent_cpu=(i * 5) % 8)
    system.run_for(10 * MS)
    system.hotplug_cpu(2, False)  # drains cpu 2's queue via take()
    system.run_for(10 * MS)
    system.hotplug_cpu(2, True)
    system.run_for(10 * MS)
    assert system.loop.events_fired > 0
    # Terminal structural check: every index mirrors its tree exactly.
    for cpu in system.scheduler.cpus:
        rq = cpu.rq
        assert rq.pidx is not None
        tree_tids = sorted(t.tid for _, t in rq._tree.items()) \
            if hasattr(rq._tree, "items") else None
        if tree_tids is not None:
            assert sorted(rq.pidx._tids) == tree_tids
        assert len(rq.pidx) == rq.nr_queued
        assert rq.pick_next() is (
            rq._tree.leftmost()[1] if rq.nr_queued else None
        )
