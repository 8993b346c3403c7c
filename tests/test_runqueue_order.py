"""Order properties of the runqueue's sorted waiting list.

Waiting tasks sit in a list sorted by the composite ``(vruntime, tid)``
key; the pick is its first entry.  These tests hold the list to a
dict-plus-``sorted`` reference model under random enqueue/take
interleavings, and check key order and duplicate keys.
``test_rbtree.py`` holds the timeline (iteration, leftmost, drain)
properties; ``test_pick_tiebreak.py`` is the tie-break spec.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.runqueue import RunQueue
from repro.sched.task import Task


def _task(vruntime, tid):
    task = Task(f"t{tid}", tid=tid)
    task.vruntime = vruntime
    return task


def _keys(rq):
    return [(t.vruntime, t.tid) for t in rq.queued_tasks()]


def _enqueue_all(rq, keys):
    tasks = {}
    for vruntime, tid in keys:
        task = _task(vruntime, tid)
        rq.enqueue(task, now=0)
        tasks[tid] = task
    return tasks


def test_duplicate_key_rejected():
    rq = RunQueue(0)
    task = _task(5, 1)
    rq.enqueue(task, now=0)
    with pytest.raises(KeyError):
        rq.enqueue(task, now=0)
    # The failed insert changed nothing.
    assert rq.nr_running == 1 and _keys(rq) == [(5, 1)]


def test_take_returns_task_and_rejects_absent():
    rq = RunQueue(0)
    task = _task(5, 1)
    rq.enqueue(task, now=0)
    assert rq.take(task, now=0) is task
    assert rq.nr_queued == 0
    with pytest.raises(KeyError):
        rq.take(task, now=0)
    with pytest.raises(KeyError):
        rq.dequeue(_task(5, 2), now=0)


def test_tuple_keys():
    """Equal vruntimes order by tid, whatever the insertion order."""
    rq = RunQueue(0)
    _enqueue_all(rq, [(100, 2), (100, 1), (50, 9)])
    assert _keys(rq) == [(50, 9), (100, 1), (100, 2)]
    assert rq.pick_next().tid == 9


def test_sequential_insert_delete():
    rq = RunQueue(0)
    tasks = _enqueue_all(rq, [(k, k + 1) for k in range(100)])
    for k in range(0, 100, 2):
        rq.take(tasks[k + 1], now=0)
    assert _keys(rq) == [(k, k + 1) for k in range(1, 100, 2)]
    assert rq.nr_running == 50


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=60),
        ),
        max_size=120,
    )
)
def test_matches_reference_model(ops):
    """Random enqueue/take interleavings match a dict+sorted model."""
    rq = RunQueue(0)
    model = {}  # tid -> task
    for is_insert, vruntime, tid in ops:
        if is_insert:
            if tid in model:
                continue
            task = _task(vruntime, tid)
            rq.enqueue(task, now=0)
            model[tid] = task
        elif tid in model:
            assert rq.take(model.pop(tid), now=0).tid == tid
        else:
            with pytest.raises(KeyError):
                rq.take(_task(vruntime, tid), now=0)
        want = sorted((t.vruntime, t.tid) for t in model.values())
        assert _keys(rq) == want
        assert rq.nr_running == rq.nr_queued == len(model)
        assert rq.leftmost_vruntime() == (want[0][0] if want else None)


@settings(max_examples=100, deadline=None)
@given(keys=st.sets(st.tuples(st.integers(0, 10_000), st.integers(1, 10_000))))
def test_iteration_sorted_property(keys):
    rq = RunQueue(0)
    # Unique tids: a tid names one task.
    unique = {tid: vruntime for vruntime, tid in keys}
    _enqueue_all(rq, [(vr, tid) for tid, vr in unique.items()])
    assert _keys(rq) == sorted((vr, tid) for tid, vr in unique.items())
