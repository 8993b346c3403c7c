"""Tests for wakeup and fork placement (select_task_rq)."""

from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState
from repro.sched.wakeup import (
    find_idlest_cpu,
    select_task_rq_fork,
    select_task_rq_wake,
)
from repro.topology import two_nodes

BUGGY = SchedFeatures().without_autogroup()
FIXED = SchedFeatures().with_fixes("overload_on_wakeup").without_autogroup()


def make_sched(features=BUGGY):
    # Two nodes x 4 cores: node 0 = cpus 0-3, node 1 = cpus 4-7.
    return Scheduler(two_nodes(cores_per_node=4), features)


def occupy(sched, cpu_id, name=None):
    """Put a running task on a CPU."""
    task = Task(name or f"occ{cpu_id}")
    sched.register_task(task)
    sched.cpus[cpu_id].rq.enqueue(task, 0)
    sched.cpus[cpu_id].rq.dispatch(task, 0)
    sched.cpus[cpu_id].mark_busy(0)
    return task


def sleeper(sched, prev_cpu, name="sleeper"):
    task = Task(name)
    sched.register_task(task)
    task.prev_cpu = prev_cpu
    task.state = TaskState.SLEEPING
    return task


class TestMainlineWake:
    def test_waker_same_node_considers_only_that_node(self):
        """The Overload-on-Wakeup trigger: all of node 0 busy, node 1
        idle, waker and sleeper both on node 0 -> wake on a busy core."""
        sched = make_sched()
        for cpu in range(4):
            occupy(sched, cpu)
        task = sleeper(sched, prev_cpu=1)
        target = select_task_rq_wake(sched, task, waker_cpu=0, now=0)
        assert target in range(4)  # never node 1, despite 4 idle cores

    def test_prev_core_preferred_when_idle(self):
        sched = make_sched()
        occupy(sched, 0)
        task = sleeper(sched, prev_cpu=2)
        assert select_task_rq_wake(sched, task, waker_cpu=0, now=0) == 2

    def test_idle_core_in_node_chosen_over_busy_prev(self):
        sched = make_sched()
        occupy(sched, 1)
        task = sleeper(sched, prev_cpu=1)
        target = select_task_rq_wake(sched, task, waker_cpu=0, now=0)
        assert target in {0, 2, 3}

    def test_cross_node_waker_uses_wake_affine(self):
        sched = make_sched()
        # Node 0 loaded, node 1 (waker side) empty.
        for cpu in range(4):
            occupy(sched, cpu)
        task = sleeper(sched, prev_cpu=0)
        target = select_task_rq_wake(sched, task, waker_cpu=4, now=0)
        assert target in range(4, 8)  # pulled to the waker's idle node

    def test_affinity_respected(self):
        sched = make_sched()
        task = sleeper(sched, prev_cpu=0)
        task.set_affinity(frozenset({5, 6}))
        target = select_task_rq_wake(sched, task, waker_cpu=0, now=0)
        assert target in {5, 6}

    def test_timer_wake_without_waker_uses_prev(self):
        sched = make_sched()
        task = sleeper(sched, prev_cpu=3)
        assert select_task_rq_wake(sched, task, waker_cpu=None, now=0) == 3


class TestFixedWake:
    def test_prev_core_when_idle(self):
        sched = make_sched(FIXED)
        task = sleeper(sched, prev_cpu=2)
        assert select_task_rq_wake(sched, task, waker_cpu=0, now=0) == 2

    def test_longest_idle_core_when_prev_busy(self):
        sched = make_sched(FIXED)
        for cpu in range(4):
            occupy(sched, cpu)
        # Make cpu 6 the longest-idle core.
        sched.cpus[6].idle_since_us = 0
        for cpu in (4, 5, 7):
            sched.cpus[cpu].idle_since_us = 50_000
        task = sleeper(sched, prev_cpu=1)
        assert select_task_rq_wake(sched, task, waker_cpu=0, now=100_000) == 6

    def test_falls_back_to_mainline_when_no_idle_cores(self):
        sched = make_sched(FIXED)
        for cpu in range(8):
            occupy(sched, cpu)
        task = sleeper(sched, prev_cpu=1)
        target = select_task_rq_wake(sched, task, waker_cpu=0, now=0)
        assert target in range(4)  # mainline same-node behavior

    def test_power_aware_policy_disables_fix(self):
        """The paper only enforces the fix when the power policy forbids
        low-power states."""
        from dataclasses import replace

        features = replace(FIXED, power_aware_wakeup=True)
        sched = make_sched(features)
        for cpu in range(4):
            occupy(sched, cpu)
        task = sleeper(sched, prev_cpu=1)
        target = select_task_rq_wake(sched, task, waker_cpu=0, now=0)
        assert target in range(4)  # bug behavior despite the fix flag

    def test_longest_idle_respects_affinity(self):
        sched = make_sched(FIXED)
        for cpu in range(4):
            occupy(sched, cpu)
        sched.cpus[4].idle_since_us = 0
        task = sleeper(sched, prev_cpu=1)
        task.set_affinity(frozenset({1, 7}))
        assert select_task_rq_wake(sched, task, waker_cpu=0, now=1000) == 7


class TestForkPlacement:
    def test_child_stays_on_parent_node(self):
        """No SD_BALANCE_FORK on NUMA levels: children stay local even
        when another node is emptier."""
        sched = make_sched()
        for cpu in range(4):
            occupy(sched, cpu)
        child = Task("child")
        sched.register_task(child)
        target = select_task_rq_fork(sched, child, parent_cpu=0, now=0)
        assert target in range(4)

    def test_child_takes_idlest_core_of_node(self):
        sched = make_sched()
        occupy(sched, 0)
        occupy(sched, 1)
        child = Task("child")
        sched.register_task(child)
        target = select_task_rq_fork(sched, child, parent_cpu=0, now=0)
        assert target in {2, 3}

    def test_offline_parent_cpu_falls_back(self):
        sched = make_sched()
        sched.set_cpu_online(0, False, 0)
        child = Task("child")
        sched.register_task(child)
        target = select_task_rq_fork(sched, child, parent_cpu=0, now=0)
        assert sched.cpus[target].online

    def test_affinity_enforced_even_off_node(self):
        sched = make_sched()
        child = Task("child", allowed_cpus=frozenset({6}))
        sched.register_task(child)
        assert select_task_rq_fork(sched, child, parent_cpu=0, now=0) == 6


class TestFindIdlestCpu:
    def test_full_walk_reaches_remote_idle_node(self):
        sched = make_sched()
        for cpu in range(4):
            occupy(sched, cpu)
        task = Task("t")
        sched.register_task(task)
        target = find_idlest_cpu(sched, task, 0, 0, numa_levels=True)
        assert target in range(4, 8)

    def test_intra_node_walk_stays_local(self):
        sched = make_sched()
        for cpu in range(4):
            occupy(sched, cpu)
        task = Task("t")
        sched.register_task(task)
        target = find_idlest_cpu(sched, task, 0, 0, numa_levels=False)
        assert target in range(4)


def test_wake_probe_reports_considered_cores():
    from repro.viz.events import ConsideredEvent, TraceProbe

    probe = TraceProbe()
    sched = Scheduler(
        two_nodes(cores_per_node=4), BUGGY, probe=probe
    )
    task = sleeper(sched, prev_cpu=1)
    select_task_rq_wake(sched, task, waker_cpu=0, now=0)
    events = probe.buffer.of_type(ConsideredEvent)
    assert any(e.op == "select_idle_sibling" for e in events)
    sibling_event = [e for e in events if e.op == "select_idle_sibling"][0]
    # Only node 0's cores were examined.
    assert sibling_event.considered <= frozenset(range(4))
