"""Pick tie-breaking: equal-vruntime picks in exact rbtree order.

The runqueue picks from its rbtree, keyed by the composite
``(vruntime, tid)``, so equal-vruntime tasks must pick in tid order.
These tests drain adversarial tie-heavy populations through
``RunQueue.pick_next`` and check the order; a full traced run then
proves the whole scheduler picks identically on the reference and fast
paths, with the replay differ naming the first divergent event on
failure.
"""

import hashlib

import pytest

from repro.sched.features import SchedFeatures
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.slo.replay import diff_events, serialize_buffer
from repro.topology import two_nodes
from repro.viz.events import TraceBuffer, TraceProbe
from repro.workloads.cpubound import periodic_task
from tests.conftest import hog_spec

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


def _drain(rq):
    """Take tasks off the queue in pick order."""
    order = []
    while True:
        picked = rq.pick_next()
        if picked is None:
            break
        assert rq.leftmost_vruntime() == picked.vruntime
        order.append(rq.take(picked, now=0))
    assert rq.nr_queued == 0
    return order


@pytest.mark.parametrize("n,ties", [(12, 3), (200, 5), (96, 1)])
def test_equal_vruntime_drain_matches_rbtree_order(n, ties):
    # Small and machine-scale queues; ties=1 makes every key a tie, so
    # tid alone decides every single pick.
    rq = RunQueue(cpu_id=0)
    for vr, tid, task in _population(n, ties):
        task.vruntime = vr
        rq.enqueue(task, now=0)
    order = _drain(rq)
    keys = [(t.vruntime, t.tid) for t in order]
    assert keys == sorted(keys)
    assert len(order) == n


def test_put_prev_lands_back_in_tie_order():
    # A put_prev / set_current round trip re-inserts the task at its
    # (vruntime, tid) position among equal-vruntime ties.
    rq = RunQueue(cpu_id=0)
    tasks = [_task(tid) for tid in (3, 1, 2, 5, 4)]
    for task in tasks:
        task.vruntime = 10
        rq.enqueue(task, now=0)
    assert rq.pick_next() is tasks[1]  # tid 1 wins the 5-way tie
    rq.take(tasks[1], now=0)
    rq.set_current(tasks[1], now=0)
    assert rq.pick_next() is tasks[2]  # the (10, 2) tie is next
    rq.put_prev(tasks[1], now=0)
    assert rq.pick_next() is tasks[1]  # back in front of tid 2
    drained = []
    while rq.pick_next() is not None:
        drained.append(rq.take(rq.pick_next(), now=0).tid)
    assert drained == [1, 2, 3, 4, 5]


def _traced_stream(fastpath, seed=13):
    system = System(two_nodes(4, smt_width=2),
                    SchedFeatures().with_fastpath(fastpath), seed=seed)
    buffer = TraceBuffer()
    system.attach_probe(TraceProbe(buffer=buffer, record_load=False))
    for i in range(6):
        system.spawn(hog_spec(f"hog{i}"), parent_cpu=(i * 3) % 8)
    for i in range(4):
        system.spawn(periodic_task(f"sleep{i}", 1 * MS, 2 * MS),
                     parent_cpu=(i * 5) % 8)
    system.run_for(40 * MS)
    return serialize_buffer(buffer)


def _digest(stream):
    h = hashlib.sha256()
    for event in stream:
        h.update(repr(event).encode())
    return h.hexdigest()


def test_pick_paths_schedule_identically_across_variants():
    # The end-to-end tie-order claim: the reference path and the fast
    # path must produce byte-identical trace streams.  On failure the
    # replay differ names the first divergent event -- the actionable
    # form of "digests differ".
    reference = _traced_stream(False)
    assert len(reference) > 0
    stream = _traced_stream(True)
    divergence = diff_events(stream, reference)
    if divergence is not None:
        got = stream[divergence] if divergence < len(stream) else None
        want = (
            reference[divergence] if divergence < len(reference) else None
        )
        pytest.fail(
            f"fast: first divergence at event {divergence}: "
            f"fast={got!r} reference={want!r}"
        )
    assert _digest(stream) == _digest(reference)


def test_pick_next_coherent_under_migration_and_hotplug():
    # A sanitized fast-path soak with a mid-run hotplug cycle: the
    # migration drain and the offline/online rebuild must leave every
    # queue picking its least (vruntime, tid) task.
    features = SchedFeatures().with_sanitizer(True)
    system = System(two_nodes(4, smt_width=2), features, seed=17)
    for i in range(8):
        system.spawn(hog_spec(f"hog{i}"), parent_cpu=i % 8)
    for i in range(4):
        system.spawn(periodic_task(f"sleep{i}", 1 * MS, 2 * MS),
                     parent_cpu=(i * 5) % 8)
    system.run_for(10 * MS)
    system.hotplug_cpu(2, False)  # drains cpu 2's queue via take()
    system.run_for(10 * MS)
    system.hotplug_cpu(2, True)
    system.run_for(10 * MS)
    assert system.loop.events_fired > 0
    for cpu in system.scheduler.cpus:
        rq = cpu.rq
        queued = list(rq.queued_tasks())
        assert len(queued) == rq.nr_queued
        best = min(queued, key=lambda t: (t.vruntime, t.tid), default=None)
        assert rq.pick_next() is best
