"""Tests for the per-CPU runqueue."""

import pytest

from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState
from repro.sim.timebase import SCHED_LATENCY_US
from repro.viz.events import NrRunningEvent, TraceProbe


def make_task(name="t", vruntime=0):
    task = Task(name)
    task.vruntime = vruntime
    return task


def test_empty_queue():
    rq = RunQueue(0)
    assert rq.nr_running == 0
    assert rq.nr_queued == 0
    assert rq.pick_next() is None
    assert rq.leftmost_vruntime() is None


def test_enqueue_orders_by_vruntime():
    rq = RunQueue(0)
    late = make_task("late", vruntime=100)
    early = make_task("early", vruntime=10)
    rq.enqueue(late, now=0)
    rq.enqueue(early, now=0)
    assert rq.pick_next() is early
    assert rq.nr_running == 2
    assert rq.leftmost_vruntime() == 10


def test_equal_vruntime_ties_broken_by_tid():
    rq = RunQueue(0)
    a = make_task("a", vruntime=5)
    b = make_task("b", vruntime=5)
    rq.enqueue(a, 0)
    rq.enqueue(b, 0)
    assert rq.pick_next() is a  # lower tid


def test_enqueue_sets_task_fields():
    rq = RunQueue(3)
    task = make_task()
    rq.enqueue(task, now=50)
    assert task.state is TaskState.RUNNABLE
    assert task.cpu == 3
    assert task.stats.last_enqueue_us == 50


def test_enqueue_running_task_rejected():
    rq = RunQueue(0)
    task = make_task()
    task.state = TaskState.RUNNING
    with pytest.raises(ValueError):
        rq.enqueue(task, 0)


def test_wakeup_enqueue_gets_sleeper_bonus():
    rq = RunQueue(0)
    rq.min_vruntime = 100_000
    sleeper = make_task("s", vruntime=0)
    sleeper.state = TaskState.SLEEPING
    rq.enqueue(sleeper, now=0, wakeup=True)
    assert sleeper.vruntime == 100_000 - SCHED_LATENCY_US // 2


def test_wakeup_enqueue_does_not_rewind_vruntime():
    rq = RunQueue(0)
    rq.min_vruntime = 100
    runner = make_task("r", vruntime=500_000)
    runner.state = TaskState.SLEEPING
    rq.enqueue(runner, now=0, wakeup=True)
    assert runner.vruntime == 500_000  # keeps its larger vruntime


def test_set_current_and_put_prev():
    rq = RunQueue(0)
    task = make_task()
    rq.enqueue(task, 0)
    rq.take(task, 0)
    rq.set_current(task, 0)
    assert task.state is TaskState.RUNNING
    assert task.prev_cpu == 0
    assert rq.nr_running == 1
    assert rq.nr_queued == 0
    rq.put_prev(task, 10)
    assert task.state is TaskState.RUNNABLE
    assert rq.nr_queued == 1
    assert rq.curr is None


def test_put_prev_wrong_task_rejected():
    rq = RunQueue(0)
    a, b = make_task("a"), make_task("b")
    rq.enqueue(a, 0)
    rq.take(a, 0)
    rq.set_current(a, 0)
    with pytest.raises(ValueError):
        rq.put_prev(b, 0)


def test_dequeue_and_take():
    rq = RunQueue(0)
    a = make_task("a", vruntime=1)
    b = make_task("b", vruntime=2)
    rq.enqueue(a, 0)
    rq.enqueue(b, 0)
    rq.dequeue(a, 0)
    assert rq.pick_next() is b
    assert rq.take(b, 0) is b
    assert rq.nr_running == 0


def test_requeue_after_vruntime_change():
    rq = RunQueue(0)
    a = make_task("a", vruntime=1)
    rq.enqueue(a, 0)
    rq.dequeue(a, 0)
    a.vruntime = 999
    rq.enqueue(a, 0)
    assert rq.leftmost_vruntime() == 999


def test_min_vruntime_monotonic():
    rq = RunQueue(0)
    a = make_task("a", vruntime=50)
    rq.enqueue(a, 0)
    rq.update_min_vruntime()
    assert rq.min_vruntime == 50
    rq.dequeue(a, 0)
    a.vruntime = 10  # lower than floor
    rq.update_min_vruntime()
    assert rq.min_vruntime == 50  # never goes backward


def test_load_sums_all_tasks():
    rq = RunQueue(0)
    a, b = make_task("a"), make_task("b")
    rq.enqueue(a, 0)
    rq.enqueue(b, 0)
    assert rq.load(0) == pytest.approx(2048)
    assert rq.total_weight() == 2048


def test_all_tasks_includes_current():
    rq = RunQueue(0)
    a, b = make_task("a"), make_task("b")
    rq.enqueue(a, 0)
    rq.enqueue(b, 0)
    rq.take(a, 0)
    rq.set_current(a, 0)
    assert set(rq.all_tasks()) == {a, b}
    assert list(rq.queued_tasks()) == [b]


def test_probe_notified_on_changes():
    probe = TraceProbe(record_load=False)
    rq = RunQueue(7, probe)
    task = make_task()
    rq.enqueue(task, now=5)
    events = probe.buffer.of_type(NrRunningEvent)
    assert events
    assert events[-1] == NrRunningEvent(5, 7, 1)
    rq.take(task, now=6)
    events = probe.buffer.of_type(NrRunningEvent)
    assert events[-1] == NrRunningEvent(6, 7, 0)


def test_repr():
    rq = RunQueue(2)
    assert "cpu=2" in repr(rq)
