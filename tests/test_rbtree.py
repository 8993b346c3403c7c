"""Timeline properties of the runqueue's waiting list.

The kernel keeps a CFS runqueue's waiting tasks in a red-black tree
ordered by vruntime; the simulator keeps them in a list sorted by the
composite ``(vruntime, tid)`` key.  These tests hold that list to the
tree's timeline contract: empty state, in-order iteration, leftmost and
rightmost ends, and popping the leftmost until the queue drains.
``test_runqueue_order.py`` holds the reference-model and key properties.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.runqueue import RunQueue
from repro.sched.task import Task


def _enqueue_all(rq, keys):
    for vruntime, tid in keys:
        task = Task(f"t{tid}", tid=tid)
        task.vruntime = vruntime
        rq.enqueue(task, now=0)


def _keys(tasks):
    return [(t.vruntime, t.tid) for t in tasks]


def _pop_leftmost(rq):
    return rq.take(rq.pick_next(), now=0)


def test_empty_tree():
    rq = RunQueue(0)
    assert rq.nr_running == rq.nr_queued == 0
    assert rq.pick_next() is None
    assert rq.leftmost_vruntime() is None
    assert rq.queued_tasks() == [] and rq.all_tasks() == []


def test_leftmost_rightmost():
    rq = RunQueue(0)
    _enqueue_all(rq, [(5, 1), (2, 2), (9, 3), (7, 4), (1, 5)])
    queued = rq.queued_tasks()
    assert rq.pick_next() is queued[0]
    assert (queued[0].vruntime, queued[0].tid) == (1, 5)
    assert rq.leftmost_vruntime() == 1
    assert (queued[-1].vruntime, queued[-1].tid) == (9, 3)


def test_pop_leftmost():
    rq = RunQueue(0)
    _enqueue_all(rq, [(3, 1), (1, 2), (2, 3)])
    assert [_pop_leftmost(rq).vruntime for _ in range(3)] == [1, 2, 3]
    assert rq.pick_next() is None
    assert rq.nr_running == 0


def test_inorder_iteration():
    rq = RunQueue(0)
    keys = [(7, 1), (3, 2), (9, 3), (1, 4), (5, 5), (8, 6)]
    _enqueue_all(rq, keys)
    assert _keys(rq.queued_tasks()) == sorted(keys)
    assert rq.leftmost_vruntime() == 1
    assert _keys(rq.all_tasks()) == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(
    vruntimes=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                       max_size=60)
)
def test_pop_leftmost_drains_in_order(vruntimes):
    rq = RunQueue(0)
    _enqueue_all(rq, [(vr, tid) for tid, vr in enumerate(vruntimes, 1)])
    drained = []
    while rq.pick_next() is not None:
        drained.append(_pop_leftmost(rq))
    assert _keys(drained) == sorted(_keys(drained))
    assert len(drained) == len(vruntimes)
    assert rq.nr_running == 0
