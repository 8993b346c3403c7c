"""Tests for CFS core policy: periods, timeslices, preemption checks."""

import pytest

from repro.sched import cfs
from repro.sched.features import SchedFeatures
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task


FEATURES = SchedFeatures()


def queue_with(*tasks):
    rq = RunQueue(0)
    for t in tasks:
        rq.enqueue(t, 0)
    return rq


def test_period_is_latency_for_few_threads():
    assert cfs.sched_period_us(FEATURES, 1) == FEATURES.sched_latency_us
    assert cfs.sched_period_us(FEATURES, 0) == FEATURES.sched_latency_us


def test_period_stretches_for_many_threads():
    many = 100
    assert (
        cfs.sched_period_us(FEATURES, many)
        == many * FEATURES.min_granularity_us
    )


def test_timeslice_split_equally_for_equal_weights():
    a, b = Task("a"), Task("b")
    rq = queue_with(a, b)
    slice_a = cfs.timeslice_us(FEATURES, a, rq)
    assert slice_a == FEATURES.sched_latency_us // 2


def test_timeslice_proportional_to_weight():
    heavy = Task("heavy", nice=-5)
    light = Task("light", nice=5)
    rq = queue_with(heavy, light)
    assert cfs.timeslice_us(FEATURES, heavy, rq) > cfs.timeslice_us(
        FEATURES, light, rq
    )


def test_timeslice_has_floor():
    tasks = [Task(f"t{i}") for i in range(50)]
    rq = queue_with(*tasks)
    assert (
        cfs.timeslice_us(FEATURES, tasks[0], rq)
        >= FEATURES.min_granularity_us
    )


def test_timeslice_empty_queue():
    rq = RunQueue(0)
    assert cfs.timeslice_us(FEATURES, Task("t"), rq) == FEATURES.sched_latency_us


def test_account_runtime_updates_vruntime_and_stats():
    task = Task("t", now=0)
    cfs.account_runtime(task, now=1000, exec_time_us=1000)
    assert task.vruntime == 1000  # nice-0: 1:1
    assert task.stats.total_runtime_us == 1000


def test_account_runtime_weight_scaling():
    heavy = Task("heavy", nice=-10, now=0)
    cfs.account_runtime(heavy, 1000, 1000)
    assert heavy.vruntime < 1000


def test_account_runtime_zero_updates_tracker_only():
    task = Task("t", now=0)
    cfs.account_runtime(task, 5000, 0)
    assert task.vruntime == 0
    assert task.tracker.last_update_us == 5000


def test_account_runtime_negative_rejected():
    with pytest.raises(ValueError):
        cfs.account_runtime(Task("t"), 0, -5)


def test_tick_preempt_when_slice_consumed():
    curr = Task("curr")
    waiter = Task("w")
    rq = queue_with(waiter)
    rq.enqueue(curr, 0)
    rq.dispatch(curr, 0)
    slice_us = cfs.timeslice_us(FEATURES, curr, rq)
    assert cfs.should_preempt_at_tick(FEATURES, rq, curr, ran_us=slice_us)
    assert not cfs.should_preempt_at_tick(FEATURES, rq, curr, ran_us=0)


def test_tick_no_preempt_without_waiters():
    curr = Task("curr")
    rq = RunQueue(0)
    rq.enqueue(curr, 0)
    rq.dispatch(curr, 0)
    assert not cfs.should_preempt_at_tick(
        FEATURES, rq, curr, ran_us=10**9
    )


def test_tick_preempt_on_vruntime_gap():
    curr = Task("curr")
    curr.vruntime = 10_000_000
    waiter = Task("w")
    waiter.vruntime = 0
    rq = queue_with(waiter)
    rq.enqueue(curr, 0)
    rq.dispatch(curr, 0)
    # Gap is huge, but min granularity protects very short runs.
    assert not cfs.should_preempt_at_tick(FEATURES, rq, curr, ran_us=10)
    assert cfs.should_preempt_at_tick(
        FEATURES, rq, curr, ran_us=FEATURES.min_granularity_us
    )


def test_wakeup_preempt_idle_cpu():
    assert cfs.should_preempt_on_wakeup(None, Task("w"))


def test_wakeup_preempt_on_large_vruntime_gap():
    curr = Task("curr")
    curr.vruntime = 1_000_000
    woken = Task("w")
    woken.vruntime = 0
    assert cfs.should_preempt_on_wakeup(curr, woken)


def test_wakeup_no_preempt_within_granularity():
    curr = Task("curr")
    curr.vruntime = 100
    woken = Task("w")
    woken.vruntime = 0
    assert not cfs.should_preempt_on_wakeup(curr, woken)
