"""The load-tracking metric.

The paper (Section 2.2.1): *"CFS balances runqueues not just based on
weights, but based on a metric called load, which is the combination of the
thread's weight and its average CPU utilization"*, further divided by the
thread count of the task's autogroup.

We model the kernel's decaying utilization average (PELT) with a continuous
exponential moving average over run/idle intervals: utilization converges
toward 1 while the task runs and toward 0 while it sleeps, with the kernel's
~32 ms half-life.  The tracker is timestamp-based so sleeping tasks cost
nothing until they are observed again.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.cgroup import CGroup
    from repro.sched.task import Task

#: Half-life of the utilization average, microseconds (PELT uses 32 ms).
UTIL_HALFLIFE_US = 32_000

#: Exponential time constant tau such that 0.5 = exp(-halflife / tau).
UTIL_TAU_US = UTIL_HALFLIFE_US / math.log(2.0)


class LoadEpoch:
    """A shared dirty counter: the scheduler's cgroup *divisor epoch*.

    One instance is shared by every runqueue of a scheduler and by its
    cgroup manager, which bumps it on every membership change: an attach
    or detach moves the autogroup divisor of *every* member thread with
    no runqueue event at all.  Each queue's load memo keys on its value
    next to the queue's private ``mutations`` counter (which covers the
    queue's own enqueues, takes and running-state flips), so a hit is
    guaranteed fresh.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1

    def __repr__(self) -> str:
        return f"LoadEpoch({self.value})"


class LoadTracker:
    """Decaying CPU-utilization average for one task.

    ``util`` is a float in [0, 1]: the fraction of recent wall time the task
    spent executing.  Call :meth:`update` whenever the task's running state
    is about to change (or when a fresh value is needed), passing whether the
    task was running *since the previous update*.
    """

    __slots__ = ("util", "last_update_us")

    def __init__(self, now: int = 0, initial_util: float = 1.0):
        # New tasks start at full utilization like the kernel, which makes a
        # fork-heavy workload immediately visible to the balancer.
        self.util = initial_util
        self.last_update_us = now

    def update(self, now: int, was_running: bool) -> float:
        """Fold the interval ``[last_update, now]`` into the average.

        Returns the new utilization.  ``now`` earlier than the last update
        is ignored (can happen when several subsystems observe the same
        microsecond).
        """
        delta = now - self.last_update_us
        if delta <= 0:
            return self.util
        target = 1.0 if was_running else 0.0
        if self.util == target:
            # Converged average: target + (util - target) * decay is
            # exactly target for any decay, so skip the exp().  A task
            # that runs (or sleeps) for ~53 half-lives converges to the
            # target *exactly* in IEEE double -- steady-state hogs hit
            # this on every subsequent update.
            self.last_update_us = now
            return self.util
        decay = math.exp(-delta / UTIL_TAU_US)
        self.util = target + (self.util - target) * decay
        self.last_update_us = now
        return self.util

    def peek(self, now: int, is_running: bool) -> float:
        """Utilization at ``now`` without mutating the tracker."""
        delta = now - self.last_update_us
        if delta <= 0:
            return self.util
        target = 1.0 if is_running else 0.0
        if self.util == target:
            # Same exact-convergence shortcut as update(): the decayed
            # value is bit-identical to the target, no exp() needed.
            return self.util
        decay = math.exp(-delta / UTIL_TAU_US)
        return target + (self.util - target) * decay

    def __repr__(self) -> str:
        return f"LoadTracker(util={self.util:.3f}, at={self.last_update_us})"


def task_load(weight: int, util: float, group_divisor: int) -> float:
    """The balancing load of one task.

    ``weight * utilization / autogroup-thread-count`` -- exactly the three
    ingredients the paper names.  A sleeping-but-runnable task keeps its
    recent utilization, so load decays smoothly rather than dropping to zero.
    """
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    if group_divisor <= 0:
        raise ValueError(f"group divisor must be positive, got {group_divisor}")
    util = min(max(util, 0.0), 1.0)
    return weight * util / group_divisor


def load_sum(loads: Iterable[float]) -> float:
    """Add loads left to right, starting from the int zero.

    Every float load sum the scheduler compares goes through here (or,
    on the hot paths, adds in exactly this order inline).  The builtin
    ``sum`` of floats is compensated since Python 3.12 and rounds
    differently from sequential adds, so the memoized, mirrored and
    reference paths would disagree on the same queue.  The int start
    keeps an empty sum the int zero, like ``sum([])``.
    """
    total: float = 0
    for load in loads:
        total = total + load
    return total


def queue_load(
    entries: Sequence[Tuple[int, int, "Task"]],
    curr: Optional["Task"],
    now: int,
    running: object,
) -> float:
    """The load of a runqueue at ``now``: its waiting tasks, then curr.

    One frame for what ``Task.load(now)`` computes per task through
    ``CGroup.load_divisor``, ``LoadTracker.peek`` and :func:`task_load`:
    the same expressions, added left to right from the int zero in
    ``RunQueue.all_tasks()`` order, so the value is the very float
    ``load_sum(t.load(now) for t in rq.all_tasks())`` returns.
    ``running`` is ``TaskState.RUNNING`` (this module sits below
    ``repro.sched.task``).  The value is for ``now`` alone; the
    ``RunQueue.load`` memo that stores it is keyed by that timestamp.
    A tracker already on its state's target skips the ``exp()``, as
    ``LoadTracker.peek`` does.
    """
    value: float = 0
    n = len(entries)
    for i in range(n + 1):
        task: "Task"
        if i < n:
            task = entries[i][2]
        elif curr is not None:
            task = curr
        else:
            break
        group: Optional["CGroup"] = task.cgroup
        # CGroup.load_divisor, expression for expression.
        divisor: float
        if group is None or group.is_root:
            divisor = 1
        elif group.metric == "v43":
            threads = group._avg_threads
            divisor = threads if threads > 1.0 else 1.0
        else:
            members = len(group._members)
            divisor = members if members > 1 else 1
        # LoadTracker.peek.
        tracker = task.tracker
        util = tracker.util
        target = 1.0 if task.state is running else 0.0
        if util != target:
            delta = now - tracker.last_update_us
            if delta > 0:
                util = target + (util - target) * math.exp(
                    -delta / UTIL_TAU_US
                )
        # task_load.
        weight = task.weight
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if divisor <= 0:
            raise ValueError(
                f"group divisor must be positive, got {divisor}"
            )
        if util < 0.0:
            util = 0.0
        elif util > 1.0:
            util = 1.0
        value = value + weight * util / divisor
    return value
