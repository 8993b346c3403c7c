"""Per-CPU runqueue (the kernel's ``cfs_rq``).

Runnable tasks wait in a list kept sorted by ``(vruntime, tid)`` with
:mod:`bisect` (the kernel's rbtree timeline: the pick is the leftmost
entry); the running task is kept outside the list (like the kernel).
``nr_running`` counts both, and is the quantity both the paper's heatmaps
(Figure 2a) and the sanity checker's invariant are defined over.

The queue reports every ``nr_running`` and load change to an optional probe,
mirroring the paper's instrumentation of ``add_nr_running`` /
``sub_nr_running`` and ``account_entity_enqueue``.

``load(now)`` memoizes its per-task summation, keyed by ``(now, mutations,
divisor epoch)``: the queue's private mutation counter is bumped by every
local load-affecting change, and the shared divisor epoch by cgroup
attach/detach (which re-weights member loads without any runqueue event).
One CPU's churn therefore never dirties its siblings' caches.  A cache hit
returns the *same float object* the miss produced -- the cached value is the
plain summation, never a closed-form shortcut -- so traces are byte-identical
with the cache on or off.

Every queue also keeps the scheduler's shared *spare set* exact: the ids of
the CPUs whose queue passes :func:`has_spare_task` (the kernel's
``rd->overload`` flag, refined per CPU; its ``len`` is the count of
overloaded queues).  The four mutators that change ``nr_running`` add or
discard the queue's id whenever it crosses that boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.sched.load import LoadEpoch, load_sum, queue_load
from repro.sched.sanitizer import verify_rq_load
from repro.sched.task import Task, TaskState
from repro.sched.timebase import SCHED_LATENCY_US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.cpu import Cpu
    from repro.viz.events import Probe

#: Fewest runnable tasks at which a queue has one a balancer may pull.
SPARE_NR_RUNNING = 2


def has_spare_task(nr_running: int) -> bool:
    """Whether a queue of ``nr_running`` tasks can give one to a balancer.

    The running task cannot move, and a lone queued task on a CPU with
    nothing running is mid-dispatch (stealing it just moves the imbalance
    around), so only a queue holding two or more tasks has one to spare.
    This is the kernel's per-queue overload condition (``nr_running > 1``).
    """
    return nr_running >= SPARE_NR_RUNNING


#: One waiting task's entry in the sorted queue: (vruntime, tid, task).
#: tids are unique, so comparisons never reach the task object.
QueueEntry = Tuple[int, int, Task]


class RunQueue:
    """The CFS runqueue of one CPU."""

    def __init__(
        self,
        cpu_id: int,
        probe: Optional["Probe"] = None,
        load_cache: bool = True,
        divisor_epoch: Optional[LoadEpoch] = None,
        sanitize: bool = False,
        overload: Optional[Set[int]] = None,
    ):
        self.cpu_id = cpu_id
        self.probe = probe
        #: Waiting tasks as (vruntime, tid, task), ascending: the pick is
        #: index 0.
        self._q: List[QueueEntry] = []
        #: Task currently on the CPU (not in the queue), if any.
        self.curr: Optional[Task] = None
        #: Monotonic floor for newcomers' vruntime.
        self.min_vruntime = 0
        #: Shared counter bumped when any cgroup divisor changes (an attach
        #: or detach re-weights member loads without any runqueue event).
        self.divisor_epoch = (
            divisor_epoch if divisor_epoch is not None else LoadEpoch()
        )
        #: Shared set of the CPUs whose queue has a task to spare; this
        #: queue's id enters or leaves it only when the queue crosses
        #: ``has_spare_task`` (balancers skip every attempt that cannot
        #: reach a member).
        self.overload: Set[int] = overload if overload is not None else set()
        self._load_cache_enabled = load_cache
        #: Coherence sanitizer: cross-check every load-memo hit against a
        #: from-scratch recompute (see ``repro.sched.sanitizer``).
        self._sanitize = sanitize
        #: This queue's own mutation counter: it is private, so one CPU's
        #: churn does not dirty its siblings' caches.
        self.mutations = 0
        #: Fast-path mirror (repro.sched.vecstate.VecState), set by the
        #: scheduler when the fast path is on; every mutation that bumps
        #: ``mutations`` also marks this queue's mirror slot dirty.
        #: ``put_prev`` deliberately bumps neither (the task *set* is
        #: unchanged), so the mirror's coherence contract is exactly the
        #: memo contract.
        self.vec = None
        #: The CPU this queue belongs to (set by :class:`Cpu`), whose
        #: ``is_idle`` flag every idle<->busy flip below rewrites.
        self.owner: Optional["Cpu"] = None
        #: Memo of the last load(now) summation, keyed by
        #: (now, own mutations, divisor epoch).
        self._cached_load_now = -1
        self._cached_load_mut = -1
        self._cached_load_div = -1
        self._cached_load = 0.0
        #: True when the last load summation found every member tracker
        #: exactly converged to its state's target (see LoadTracker's
        #: convergence shortcut): the summation is then a constant of
        #: time until the task set or some member's running state
        #: changes, and the fast-path mirror may carry the sample
        #: across timestamps.  Cleared by the one non-bumping mutator
        #: (``put_prev``), whose state flip is invisible to the memo
        #: key; every bumping mutator forces a recompute (and thus a
        #: re-derivation) through the key itself.
        self._cached_load_invariant = False
        #: Incrementally-maintained mirrors of the queue + curr aggregates
        #: (task weights are fixed at construction, so integer bookkeeping
        #: is exact).  ``nr_running`` and ``total_weight`` are hot in the
        #: balancer and the tick path.
        self._nr_running = 0
        self._total_weight = 0
        #: Cache-hit/miss accounting (read by tests).
        self.load_cache_hits = 0
        self.load_cache_misses = 0

    # -- size ----------------------------------------------------------------

    @property
    def nr_running(self) -> int:
        """Runnable tasks on this CPU, including the one executing."""
        if self._load_cache_enabled:
            return self._nr_running
        # The reference path (fast path off) recounts from scratch: the
        # oracle tests/test_cross_path.py checks the incremental count
        # against.
        return len(self._q) + (1 if self.curr is not None else 0)

    @property
    def nr_queued(self) -> int:
        """Tasks waiting in the queue (excluding the running one)."""
        return len(self._q)

    # -- enqueue / dequeue -----------------------------------------------------

    def enqueue(self, task: Task, now: int, wakeup: bool = False) -> None:
        """Add a runnable task to the queue.

        On wakeup the task's vruntime is clamped to
        ``min_vruntime - latency/2`` like the kernel's ``place_entity``: a
        long sleeper gets a small bonus but cannot starve the queue.
        """
        if task.state is TaskState.RUNNING:
            raise ValueError(f"{task} is running; dequeue it first")
        if wakeup or task.state is TaskState.NEW:
            bonus = SCHED_LATENCY_US // 2 if wakeup else 0
            floor = max(self.min_vruntime - bonus, 0)
            task.vruntime = max(task.vruntime, floor)
        task.state = TaskState.RUNNABLE
        task.cpu = self.cpu_id
        task.stats.last_enqueue_us = now
        self._insert(task)
        self._nr_running += 1
        self._total_weight += task.weight
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if self._nr_running == 1:
            if self.owner is not None:
                self.owner.is_idle = False
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        elif self._nr_running == SPARE_NR_RUNNING:
            self.overload.add(self.cpu_id)
        self._notify(now)

    def set_current(self, task: Optional[Task], now: int) -> None:
        """Install (or clear) the task executing on this CPU."""
        prev = self.curr
        was_empty = self._nr_running == 0
        had_spare = has_spare_task(self._nr_running)
        if prev is not None:
            self._nr_running -= 1
            self._total_weight -= prev.weight
        self.curr = task
        if task is not None:
            self._nr_running += 1
            self._total_weight += task.weight
            task.state = TaskState.RUNNING
            task.cpu = self.cpu_id
            task.prev_cpu = self.cpu_id
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if was_empty != (self._nr_running == 0):
            if self.owner is not None:
                self.owner.is_idle = (
                    self.owner.online and self._nr_running == 0
                )
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        if had_spare != has_spare_task(self._nr_running):
            if had_spare:
                self.overload.discard(self.cpu_id)
            else:
                self.overload.add(self.cpu_id)
        self._notify(now)

    def put_prev(self, task: Task, now: int) -> None:
        """Return the previously-running task to the queue (preemption)."""
        if self.curr is not task:
            raise ValueError(f"{task} is not current on cpu {self.cpu_id}")
        self.curr = None
        task.state = TaskState.RUNNABLE
        task.stats.last_enqueue_us = now
        self._insert(task)
        # The task set (and therefore load, nr_running, idleness) is
        # unchanged -- curr merely moved into the queue -- so no mutation
        # bump: every cached aggregate stays exactly valid.
        # The *time-invariance* of the load summation is not: the task's
        # running-state target flipped without a memo-key event, so the
        # flag (and only the flag) is dropped here.
        self._cached_load_invariant = False
        self._notify(now)

    # -- selection -------------------------------------------------------------

    def _insert(self, task: Task) -> None:
        """Put a task at its ``(vruntime, tid)`` position in the queue.

        Callers bump (or, for ``put_prev``, deliberately do not bump) the
        counters themselves.  A task already queued under the same key
        raises ``KeyError`` instead of sitting in the queue twice.
        """
        q = self._q
        vruntime = task.vruntime
        tid = task.tid
        i = bisect_left(q, (vruntime, tid))
        if i < len(q) and q[i][1] == tid and q[i][0] == vruntime:
            raise KeyError(f"duplicate key {(vruntime, tid)!r}")
        q.insert(i, (vruntime, tid, task))

    def _index(self, task: Task) -> int:
        """Position of a queued task; ``KeyError`` if it is not queued.

        ``(vruntime, tid)`` sorts before every entry that extends it, so
        ``bisect_left`` lands on the task's own entry when it is here.
        """
        q = self._q
        i = bisect_left(q, (task.vruntime, task.tid))
        if i == len(q) or q[i][2] is not task:
            raise KeyError(f"key {(task.vruntime, task.tid)!r} not queued")
        return i

    def pick_next(self) -> Optional[Task]:
        """The leftmost (least-vruntime) waiting task, without removing it.

        The queue orders by the composite ``(vruntime, tid)`` key, so
        equal-vruntime tasks pick in tid order.
        """
        q = self._q
        return q[0][2] if q else None

    def take(self, task: Task, now: int) -> Task:
        """Remove a specific waiting task (for migration or dispatch)."""
        self._q.pop(self._index(task))
        self._nr_running -= 1
        self._total_weight -= task.weight
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if self._nr_running == 0:
            if self.owner is not None:
                self.owner.is_idle = self.owner.online
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        elif self._nr_running == SPARE_NR_RUNNING - 1:
            self.overload.discard(self.cpu_id)
        self._notify(now)
        return task

    def dispatch(self, task: Task, now: int) -> None:
        """Install a waiting task as the running one (the switch-in).

        One transition for what ``take`` + ``set_current`` did in two.
        ``nr_running`` counts the task before (queued) and after
        (running), so the queue neither goes idle nor crosses the spare
        boundary: no idle flip, no spare-set churn, one mutation bump.
        An attached probe still sees the two notifications of the pair,
        in order and with their values: the count without the task and
        the load of the queue left behind, then the count and load with
        the task running.
        """
        if self.curr is not None:
            raise ValueError(
                f"cpu {self.cpu_id} still runs {self.curr}; cannot dispatch"
            )
        self._q.pop(self._index(task))
        self.curr = task
        task.state = TaskState.RUNNING
        task.cpu = self.cpu_id
        task.prev_cpu = self.cpu_id
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        probe = self.probe
        if probe is None or not probe.active:
            return
        cpu_id = self.cpu_id
        nr = self.nr_running
        sample = not self._load_cache_enabled or probe.wants_rq_load()
        probe.on_nr_running(now, cpu_id, nr - 1)
        if sample:
            # The queue without its new curr: the same left-to-right
            # adds, so the value is the one ``take`` reported.
            if self._load_cache_enabled:
                left = queue_load(self._q, None, now, TaskState.RUNNING)[0]
            else:
                left = load_sum(t.load(now) for t in self.queued_tasks())
            probe.on_rq_load(now, cpu_id, left)
        probe.on_nr_running(now, cpu_id, nr)
        if sample:
            probe.on_rq_load(now, cpu_id, self.load(now))

    def leftmost_vruntime(self) -> Optional[int]:
        q = self._q
        return q[0][0] if q else None

    def update_min_vruntime(self) -> None:
        """Advance the monotonic vruntime floor (kernel semantics).

        Equivalent to ``max(min_vruntime, min(candidates))`` over the
        running task's vruntime and the queue's leftmost key, written
        branch-by-branch because this runs on every accounting point.
        """
        curr = self.curr
        q = self._q
        if curr is not None:
            floor = curr.vruntime
            if q and q[0][0] < floor:
                floor = q[0][0]
        elif q:
            floor = q[0][0]
        else:
            return
        if floor > self.min_vruntime:
            self.min_vruntime = floor

    # -- introspection -----------------------------------------------------------

    def queued_tasks(self) -> List[Task]:
        """Waiting tasks in vruntime order (excludes the running task)."""
        return [entry[2] for entry in self._q]

    def all_tasks(self) -> List[Task]:
        """Waiting tasks in vruntime order, then the running one."""
        tasks = [entry[2] for entry in self._q]
        if self.curr is not None:
            tasks.append(self.curr)
        return tasks

    def load(self, now: Optional[int] = None) -> float:
        """Combined load of every task on this queue (Figure 2b's metric).

        O(1) on a cache hit: the summation is memoized per ``(now,
        mutations, divisor epoch)``; every load-affecting mutation of this
        queue bumps ``mutations``, and every cgroup attach/detach bumps
        the shared divisor epoch.  Misses recompute the exact same
        per-task sum the uncached path uses, so the returned floats are
        identical either way.  With the sanitizer on, every hit and
        every miss is checked against that per-task sum.
        """
        if now is None or not self._load_cache_enabled:
            return load_sum(task.load(now) for task in self.all_tasks())
        div = self.divisor_epoch.value
        if (
            self._cached_load_mut == self.mutations
            and self._cached_load_div == div
            and (
                self._cached_load_now == now
                # Time-invariance carry-across: the memoized summation
                # found every member exactly converged, so it is a
                # constant of time until the next mutation (key above)
                # or running-state flip (flag cleared by put_prev) --
                # re-stamp the timestamp and keep the value.
                # The sanitizer cross-checks this against a fresh
                # recompute at the new timestamp on every such hit.
                or self._cached_load_invariant
            )
        ):
            self._cached_load_now = now
            self.load_cache_hits += 1
            if self._sanitize:
                verify_rq_load(self, now, self._cached_load)
            return self._cached_load
        # One call for the whole queue: ``queue_load`` adds the per-task
        # loads in ``all_tasks()`` order with ``Task.load``'s exact
        # expressions, and derives the time-invariance flag.
        value, invariant = queue_load(
            self._q, self.curr, now, TaskState.RUNNING
        )
        if self._sanitize:
            verify_rq_load(self, now, value)
        self._cached_load_invariant = invariant
        self._cached_load_now = now
        self._cached_load_mut = self.mutations
        self._cached_load_div = div
        self._cached_load = value
        self.load_cache_misses += 1
        return value

    def total_weight(self) -> int:
        """Sum of raw weights (used for timeslice computation).  O(1)."""
        if self._load_cache_enabled:
            return self._total_weight
        return sum(task.weight for task in self.all_tasks())

    def _notify(self, now: int) -> None:
        probe = self.probe
        # An inert probe (the no-op base class, ``active`` False) costs
        # one attribute check per mutation instead of two hook calls.
        if probe is None or not probe.active:
            return
        probe.on_nr_running(now, self.cpu_id, self.nr_running)
        # The load summation is the expensive part of a notification;
        # skip it entirely when no attached probe consumes load samples.
        # Baseline mode computes it eagerly like the pre-fast-path code
        # did; probes that ignore the sample produce the same trace, so
        # the two modes stay byte-identical.
        if not self._load_cache_enabled or probe.wants_rq_load():
            probe.on_rq_load(now, self.cpu_id, self.load(now))

    def __repr__(self) -> str:
        return (
            f"RunQueue(cpu={self.cpu_id}, nr_running={self.nr_running}, "
            f"min_vruntime={self.min_vruntime})"
        )
