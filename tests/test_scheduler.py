"""Tests for the scheduler facade: lifecycle, switching, tick, hotplug."""

import pytest

from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState
from repro.topology import single_node

FEATURES = SchedFeatures().without_autogroup()


def make_sched(topo=None):
    return Scheduler(topo or single_node(2), FEATURES)


def new_task(sched, name="t", **kwargs):
    task = Task(name, **kwargs)
    sched.register_task(task)
    return task


class TestLifecycle:
    def test_register_attaches_to_root_cgroup(self):
        sched = make_sched()
        task = new_task(sched)
        assert task.cgroup is sched.cgroups.root
        assert sched.tasks[task.tid] is task

    def test_place_new_task_enqueues(self):
        sched = make_sched()
        task = Task("child")
        cpu = sched.place_new_task(task, parent_cpu=0, now=0)
        assert task.state is TaskState.RUNNABLE
        assert task.cpu == cpu
        assert cpu in sched.pending_dispatch

    def test_enqueue_task_on_respects_affinity(self):
        sched = make_sched()
        task = Task("pinned", allowed_cpus=frozenset({1}))
        with pytest.raises(ValueError):
            sched.enqueue_task_on(task, 0, 0)
        sched.enqueue_task_on(task, 1, 0)
        assert task.cpu == 1

    def test_wake_task_state_validation(self):
        sched = make_sched()
        task = new_task(sched)
        task.state = TaskState.RUNNING
        with pytest.raises(ValueError):
            sched.wake_task(task, None, 0)

    def test_wake_counts_stats(self):
        sched = make_sched()
        task = new_task(sched)
        task.state = TaskState.SLEEPING
        task.prev_cpu = 0
        sched.wake_task(task, None, 0)
        assert task.stats.wakeups == 1
        assert task.stats.wakeups_on_busy_core == 0

    def test_wake_on_busy_core_counted(self):
        sched = make_sched()
        runner = new_task(sched, "runner")
        sched.enqueue_task_on(runner, 0, 0)
        sched.pick_next_task(0, 0)
        other = new_task(sched, "other")
        sched.enqueue_task_on(other, 1, 0)
        sched.pick_next_task(1, 0)
        sleeper = new_task(sched, "sleeper")
        sleeper.state = TaskState.SLEEPING
        sleeper.prev_cpu = 0
        sched.wake_task(sleeper, 0, 0)
        assert sleeper.stats.wakeups_on_busy_core == 1

    def test_exit_detaches(self):
        sched = make_sched()
        task = new_task(sched)
        sched.task_exited(task, 100)
        assert task.state is TaskState.EXITED
        assert task.stats.exit_time_us == 100
        assert task.tid not in sched.tasks
        assert task.cgroup is None


class TestContextSwitch:
    def test_pick_next_runs_leftmost(self):
        sched = make_sched()
        a = new_task(sched, "a")
        b = new_task(sched, "b")
        a.vruntime = 100
        b.vruntime = 5
        sched.cpus[0].rq.enqueue(a, 0)
        sched.cpus[0].rq.enqueue(b, 0)
        picked = sched.pick_next_task(0, 0)
        assert picked is b
        assert b.state is TaskState.RUNNING
        assert b.exec_start_us == 0

    def test_pick_next_empty_marks_idle(self):
        sched = make_sched()
        assert sched.pick_next_task(0, 1000) is None
        assert sched.cpus[0].is_idle
        assert sched.cpus[0].idle_since_us == 0  # booted idle, stays

    def test_pick_next_requires_descheduled(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        sched.pick_next_task(0, 0)
        with pytest.raises(RuntimeError):
            sched.pick_next_task(0, 0)

    def test_wait_time_accounted(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 100)
        sched.pick_next_task(0, 500)
        assert task.stats.wait_time_us == 400

    def test_account_charges_vruntime(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        sched.pick_next_task(0, 0)
        sched.account(0, 2000)
        assert task.vruntime == 2000
        assert sched.cpus[0].busy_time_us == 2000

    def test_deschedule_requeue(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        sched.pick_next_task(0, 0)
        returned = sched.deschedule(0, 1000, requeue=True)
        assert returned is task
        assert task.state is TaskState.RUNNABLE
        assert task.stats.preemptions == 1
        assert sched.cpus[0].rq.nr_queued == 1

    def test_deschedule_blocking(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        sched.pick_next_task(0, 0)
        sched.deschedule(0, 1000, requeue=False)
        assert task.cpu is None
        assert sched.cpus[0].rq.nr_running == 0

    def test_deschedule_empty_cpu_is_noop(self):
        sched = make_sched()
        assert sched.deschedule(0, 0, requeue=True) is None


class TestMigration:
    def test_migrate_queued_task(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        runner = new_task(sched, "runner")
        sched.enqueue_task_on(runner, 0, 0)
        sched.pick_next_task(0, 0)
        moving = sched.cpus[0].rq.pick_next()
        sched.migrate_task(moving, 0, 1, 0, "test")
        assert moving.cpu == 1
        assert sched.total_migrations == 1
        assert 1 in sched.pending_dispatch

    def test_cannot_migrate_running_task(self):
        sched = make_sched()
        task = new_task(sched)
        sched.enqueue_task_on(task, 0, 0)
        sched.pick_next_task(0, 0)
        with pytest.raises(ValueError):
            sched.migrate_task(task, 0, 1, 0, "test")


class TestTick:
    def test_tick_preempts_when_slice_over(self):
        sched = make_sched()
        # Pin both tasks to cpu 0 so balancing cannot spread them and the
        # tick has to time-slice.
        a = new_task(sched, "a", allowed_cpus=frozenset({0}))
        b = new_task(sched, "b", allowed_cpus=frozenset({0}))
        sched.enqueue_task_on(a, 0, 0)
        sched.enqueue_task_on(b, 0, 0)
        sched.pick_next_task(0, 0)
        sched.drain_pending()
        # Run long past the slice.
        for ms in range(1, 10):
            sched.tick(ms * 1000)
            if 0 in sched.pending_resched:
                break
        assert 0 in sched.pending_resched

    def test_nohz_balances_for_idle_cpus(self):
        sched = make_sched(single_node(4))
        tasks = [new_task(sched, f"t{i}") for i in range(4)]
        for t in tasks:
            sched.enqueue_task_on(t, 0, 0)
        sched.pick_next_task(0, 0)
        sched.drain_pending()
        # The first balance becomes due one interval (4 ms) after boot.
        for ms in range(1, 7):
            sched.tick(ms * 1000)
        # Idle cpus pulled the queued tasks.
        spread = [sched.cpus[c].rq.nr_running for c in range(4)]
        assert sum(spread[1:]) >= 2


class TestHotplug:
    def test_offline_evicts_queued_tasks(self):
        sched = make_sched()
        a = new_task(sched, "a")
        sched.enqueue_task_on(a, 1, 0)
        evicted = sched.set_cpu_online(1, False, 0)
        assert evicted == [a]
        assert a.state is TaskState.BLOCKED
        assert not sched.cpus[1].online

    def test_offline_with_running_task_rejected(self):
        sched = make_sched()
        a = new_task(sched, "a")
        sched.enqueue_task_on(a, 1, 0)
        sched.pick_next_task(1, 0)
        with pytest.raises(RuntimeError):
            sched.set_cpu_online(1, False, 0)

    def test_reonline(self):
        sched = make_sched()
        sched.set_cpu_online(1, False, 0)
        sched.set_cpu_online(1, True, 50)
        cpu = sched.cpus[1]
        assert cpu.online
        assert cpu.tickless
        assert cpu.idle_since_us == 50


class TestInvariantHelpers:
    def test_can_steal(self):
        sched = make_sched()
        a = new_task(sched, "a")
        b = new_task(sched, "b")
        sched.enqueue_task_on(a, 0, 0)
        sched.enqueue_task_on(b, 0, 0)
        sched.pick_next_task(0, 0)
        assert sched.can_steal(1, 0)
        assert not sched.can_steal(0, 0)
        assert not sched.can_steal(0, 1)

    def test_can_steal_respects_affinity(self):
        sched = make_sched()
        a = new_task(sched, "a")
        pinned = new_task(sched, "p", allowed_cpus=frozenset({0}))
        sched.enqueue_task_on(a, 0, 0)
        sched.enqueue_task_on(pinned, 0, 0)
        sched.pick_next_task(0, 0)
        # Which task is queued depends on tie-break; make both pinned-aware.
        queued = list(sched.cpus[0].rq.queued_tasks())
        can = sched.can_steal(1, 0)
        assert can == any(t.can_run_on(1) for t in queued)

    def test_runnable_count(self):
        sched = make_sched()
        for i in range(3):
            sched.enqueue_task_on(new_task(sched, f"t{i}"), 0, 0)
        assert sched.runnable_count() == 3


def test_idle_cpus_sorted_longest_first():
    sched = make_sched(single_node(3))
    sched.cpus[0].idle_since_us = 500
    sched.cpus[1].idle_since_us = 100
    sched.cpus[2].idle_since_us = 900
    assert [c.cpu_id for c in sched.idle_cpus()] == [1, 0, 2]


def test_repr_mentions_features():
    assert "buggy" in repr(make_sched())
