"""CFS core policy: timeslices, vruntime accounting, preemption.

This is the paper's Section 2.1 -- the part of CFS that is "very simple":
the scheduler defines a target latency interval, divides it among runnable
threads proportionally to weight, charges running threads vruntime
(runtime / weight), and preempts when the running thread has exceeded its
slice or a smaller-vruntime thread is waiting.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.features import SchedFeatures
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from repro.sched.timebase import WAKEUP_GRANULARITY_US
from repro.sched.weights import vruntime_delta


def sched_period_us(features: SchedFeatures, nr_running: int) -> int:
    """The interval within which every runnable thread runs once.

    ``max(sched_latency, nr_running * min_granularity)`` -- with few
    threads the target latency holds; with many, each still gets the
    minimum granularity.
    """
    if nr_running <= 0:
        return features.sched_latency_us
    return max(
        features.sched_latency_us,
        nr_running * features.min_granularity_us,
    )


def timeslice_us(features: SchedFeatures, task: Task, rq: RunQueue) -> int:
    """The wall-clock slice ``task`` may run before the tick preempts it.

    The period is divided proportionally to weight:
    ``period * task.weight / total_weight``.
    """
    total_weight = rq.total_weight()
    if total_weight <= 0:
        return features.sched_latency_us
    period = sched_period_us(features, rq.nr_running)
    slice_us = (period * task.weight) // total_weight
    return max(slice_us, features.min_granularity_us)


def account_runtime(task: Task, now: int, exec_time_us: int) -> None:
    """Charge ``exec_time_us`` of execution to a task.

    Updates vruntime (weight-scaled), the utilization tracker, and raw
    runtime statistics.  Spin time is accounted separately by the executor.
    """
    if exec_time_us < 0:
        raise ValueError(f"negative exec time {exec_time_us}")
    if exec_time_us == 0:
        task.tracker.update(now, was_running=True)
        return
    task.vruntime += vruntime_delta(exec_time_us, task.weight)
    task.stats.total_runtime_us += exec_time_us
    task.tracker.update(now, was_running=True)


def should_preempt_at_tick(
    features: SchedFeatures,
    rq: RunQueue,
    curr: Task,
    ran_us: int,
) -> bool:
    """Tick-time preemption check (``check_preempt_tick``).

    Preempt when the current task has consumed its slice, or when it has run
    at least the minimum granularity and a waiting thread's vruntime is more
    than the wakeup granularity behind.
    """
    waiting = rq.pick_next()
    if waiting is None:
        return False
    if ran_us >= timeslice_us(features, curr, rq):
        return True
    if ran_us < features.min_granularity_us:
        return False
    return curr.vruntime > waiting.vruntime + WAKEUP_GRANULARITY_US


def should_preempt_on_wakeup(curr: Optional[Task], woken: Task) -> bool:
    """Wakeup preemption check (``check_preempt_wakeup``).

    A freshly-woken thread preempts the running one when its vruntime is
    smaller by more than the wakeup granularity.
    """
    if curr is None:
        return True
    return curr.vruntime > woken.vruntime + WAKEUP_GRANULARITY_US
