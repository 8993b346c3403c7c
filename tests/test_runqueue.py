"""Tests for the per-CPU runqueue."""

import pytest

from repro.sched.cpu import Cpu
from repro.sched.load import LoadTracker
from repro.sched.runqueue import RunQueue
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState
from repro.sim.timebase import SCHED_LATENCY_US
from repro.topology import two_nodes
from repro.viz.events import NrRunningEvent, Probe, TraceProbe


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
    assert rq.take(a, 0) is a
    assert rq.pick_next() is b
    assert rq.take(b, 0) is b
    assert rq.nr_running == 0


def test_requeue_after_vruntime_change():
    rq = RunQueue(0)
    a = make_task("a", vruntime=1)
    rq.enqueue(a, 0)
    rq.take(a, 0)
    a.vruntime = 999
    rq.enqueue(a, 0)
    assert rq.leftmost_vruntime() == 999


def test_min_vruntime_monotonic():
    rq = RunQueue(0)
    a = make_task("a", vruntime=50)
    rq.enqueue(a, 0)
    rq.update_min_vruntime()
    assert rq.min_vruntime == 50
    rq.take(a, 0)
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


# ------------------------------------------------------------- dispatch


class _Recorder(Probe):
    """Records every runqueue notification, load samples included."""

    def __init__(self):
        self.events = []

    def on_nr_running(self, now, cpu, nr_running):
        self.events.append(("nr", now, cpu, nr_running))

    def on_rq_load(self, now, cpu, load):
        self.events.append(("load", now, cpu, load))


def test_pick_next_task_on_one_task_queue_notifies_zero_then_one():
    probe = _Recorder()
    sched = Scheduler(two_nodes(cores_per_node=2), probe=probe)
    task = Task("only")
    sched.enqueue_task_on(task, 1, 0)
    del probe.events[:]
    assert sched.pick_next_task(1, 500) is task
    assert probe.events == [
        ("nr", 500, 1, 0),
        ("load", 500, 1, 0),
        ("nr", 500, 1, 1),
        ("load", 500, 1, task.load(500)),
    ]


class _VecSpy:
    """Stands in for the fast-path mirror; records the idle flips."""

    def __init__(self):
        self.idle_flips = []

    def mark_dirty(self, cpu_id):
        pass

    def mark_idle_change(self, cpu_id):
        self.idle_flips.append(cpu_id)


def _queue_of(n, load_cache, probe):
    rq = Cpu(3, probe, load_cache=load_cache).rq
    for i in range(n):
        task = Task(f"t{i}", nice=i)
        rq.enqueue(task, 0)
        task.tracker = LoadTracker(0, initial_util=0.3 + 0.2 * i)
    return rq


@pytest.mark.parametrize("load_cache", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dispatch_is_take_then_set_current(n, load_cache):
    """The fused transition ends where the pair ended, with the same
    notifications, but without the pair's transient idle flip."""
    fused_probe, pair_probe = _Recorder(), _Recorder()
    fused = _queue_of(n, load_cache, fused_probe)
    pair = _queue_of(n, load_cache, pair_probe)
    fused.vec = _VecSpy()
    del fused_probe.events[:], pair_probe.events[:]
    now = 7_000
    fused.dispatch(fused.pick_next(), now)
    task = pair.pick_next()
    pair.take(task, now)
    pair.set_current(task, now)
    assert fused_probe.events == pair_probe.events
    for rq in (fused, pair):
        assert rq.curr.state is TaskState.RUNNING
        assert rq.curr.prev_cpu == rq.curr.cpu == 3
    assert fused.curr.name == pair.curr.name
    assert [t.name for t in fused.queued_tasks()] == [
        t.name for t in pair.queued_tasks()
    ]
    assert fused._nr_running == pair._nr_running == n
    assert fused._total_weight == pair._total_weight
    assert fused.owner.is_idle is pair.owner.is_idle is False
    assert fused.overload == pair.overload
    assert fused.load(now) == pair.load(now)
    assert fused.vec.idle_flips == []  # nothing queued for reconcile


def test_dispatch_rejects_a_busy_queue():
    rq = RunQueue(0)
    a, b = make_task("a", vruntime=1), make_task("b", vruntime=2)
    rq.enqueue(a, 0)
    rq.enqueue(b, 0)
    rq.dispatch(a, 0)
    with pytest.raises(ValueError):
        rq.dispatch(b, 0)
