"""Per-CPU runqueue (the kernel's ``cfs_rq``).

Runnable tasks wait in a red-black tree sorted by vruntime; the running task
is kept outside the tree (like the kernel).  ``nr_running`` counts both, and
is the quantity both the paper's heatmaps (Figure 2a) and the sanity
checker's invariant are defined over.

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

Every queue also keeps the machine-wide :class:`OverloadCount` (the kernel's
``rd->overload``) exact: the four mutators that change ``nr_running`` move
it whenever the queue crosses :func:`has_spare_task`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.sched.load import LoadEpoch
from repro.sched.rbtree import RBTree
from repro.sched.sanitizer import CoherenceError, verify_rq_load
from repro.sched.task import Task, TaskState
from repro.sched.timebase import SCHED_LATENCY_US

if TYPE_CHECKING:  # pragma: no cover - typing only
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


class OverloadCount:
    """How many runqueues currently have a task to spare.

    The kernel keeps ``rd->overload`` as a flag; the simulator keeps the
    exact count, shared by every runqueue of a scheduler, so a zero proves
    that no balancing attempt anywhere can move a task.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"OverloadCount({self.value})"


class RunQueue:
    """The CFS runqueue of one CPU."""

    def __init__(
        self,
        cpu_id: int,
        probe: Optional["Probe"] = None,
        load_epoch: Optional[LoadEpoch] = None,
        load_cache: bool = True,
        idle_epoch: Optional[LoadEpoch] = None,
        divisor_epoch: Optional[LoadEpoch] = None,
        sanitize: bool = False,
        overload: Optional[OverloadCount] = None,
    ):
        self.cpu_id = cpu_id
        self.probe = probe
        self._tree = RBTree()
        #: Task currently on the CPU (not in the tree), if any.
        self.curr: Optional[Task] = None
        #: Monotonic floor for newcomers' vruntime.
        self.min_vruntime = 0
        #: Shared dirty counter; every mutation bumps it (invalidating the
        #: balance-pass memos of *all* queues sharing it, conservatively).
        self.load_epoch = load_epoch if load_epoch is not None else LoadEpoch()
        #: Shared counter bumped only on idle<->busy transitions (and
        #: hotplug); the designated-balancer memo keys off it.
        self.idle_epoch = idle_epoch if idle_epoch is not None else LoadEpoch()
        #: Shared counter bumped when any cgroup divisor changes (an attach
        #: or detach re-weights member loads without any runqueue event).
        self.divisor_epoch = (
            divisor_epoch if divisor_epoch is not None else LoadEpoch()
        )
        #: Shared count of queues with a task to spare; moved only when
        #: this queue crosses ``has_spare_task`` (balancers skip their
        #: walks while it is zero).
        self.overload = (
            overload if overload is not None else OverloadCount()
        )
        self._load_cache_enabled = load_cache
        #: Coherence sanitizer: cross-check every load-memo hit against a
        #: from-scratch recompute (see ``repro.sched.sanitizer``).
        self._sanitize = sanitize
        #: This queue's own mutation counter: unlike ``load_epoch`` it is
        #: private, so one CPU's churn does not dirty its siblings' caches.
        self.mutations = 0
        #: Optional vectorized mirror (repro.sched.vecstate.VecState) set
        #: by the scheduler; every mutation that bumps ``mutations`` also
        #: marks this queue's mirror slot dirty.  ``requeue``/``put_prev``
        #: deliberately bump neither (the task *set* is unchanged), so the
        #: mirror's coherence contract is exactly the memo contract.
        self.vec = None
        #: Optional array-backed pick index
        #: (repro.sched.pickindex.PickIndex), set by the scheduler under
        #: the same vectorized gate as ``vec``.  Mirrored at exactly the
        #: tree's own mutation sites, so its coherence contract is the
        #: tree's; the rbtree stays authoritative for ordered iteration
        #: and the sanitizer cross-check.
        self.pidx = None
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
        #: changes, and the vectorized mirror may carry the sample
        #: across timestamps.  Cleared by the two non-bumping mutators
        #: (``put_prev``/``requeue``) whose state flips are invisible to
        #: the memo key; every bumping mutator forces a recompute (and
        #: thus a re-derivation) through the key itself.
        self._cached_load_invariant = False
        #: Incrementally-maintained mirrors of the tree + curr aggregates
        #: (task weights are fixed at construction, so integer bookkeeping
        #: is exact).  ``nr_running`` and ``total_weight`` are hot in the
        #: balancer and the tick path.
        self._nr_running = 0
        self._total_weight = 0
        #: Cache-hit/miss accounting (bench introspection).
        self.load_cache_hits = 0
        self.load_cache_misses = 0

    # -- size ----------------------------------------------------------------

    @property
    def nr_running(self) -> int:
        """Runnable tasks on this CPU, including the one executing."""
        if self._load_cache_enabled:
            return self._nr_running
        # Baseline (fast path off) recounts from scratch, reproducing the
        # pre-incremental implementation for `repro bench --compare`.
        return len(self._tree) + (1 if self.curr is not None else 0)

    @property
    def nr_queued(self) -> int:
        """Tasks waiting in the tree (excluding the running one)."""
        return len(self._tree)

    def is_idle(self) -> bool:
        return self.nr_running == 0

    # -- enqueue / dequeue -----------------------------------------------------

    def enqueue(self, task: Task, now: int, wakeup: bool = False) -> None:
        """Add a runnable task to the tree.

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
        self._tree.insert((task.vruntime, task.tid), task)
        if self.pidx is not None:
            self.pidx.insert(task.vruntime, task.tid, task)
        self._nr_running += 1
        self._total_weight += task.weight
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if self._nr_running == 1:
            self.idle_epoch.bump()
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        elif self._nr_running == SPARE_NR_RUNNING:
            self.overload.value += 1
        self.load_epoch.bump()
        self._notify(now)

    def dequeue(self, task: Task, now: int) -> None:
        """Remove a queued (not running) task from the tree."""
        self._tree.remove((task.vruntime, task.tid))
        if self.pidx is not None:
            self.pidx.remove(task.tid)
        self._nr_running -= 1
        self._total_weight -= task.weight
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if self._nr_running == 0:
            self.idle_epoch.bump()
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        elif self._nr_running == SPARE_NR_RUNNING - 1:
            self.overload.value -= 1
        self.load_epoch.bump()
        self._notify(now)

    def requeue(self, task: Task, new_vruntime: int, now: int) -> None:
        """Re-sort a queued task to ``new_vruntime``.

        A queued task's vruntime *is* its tree key, so the move must be
        keyed by the old value and the attribute updated in between --
        callers pass the new vruntime instead of mutating the task
        first.  The task *set* is unchanged -- the tree entry merely
        moves to its new sort position -- so load, nr_running, and
        idleness are all exactly what every cache already holds: no
        epoch or mutation bump, by design (hence the inline coherence
        suppressions).
        """
        self._tree.remove((task.vruntime, task.tid))  # repro: noqa[coherence-unbumped-write]
        task.vruntime = new_vruntime
        self._tree.insert((task.vruntime, task.tid), task)  # repro: noqa[coherence-unbumped-write]
        if self.pidx is not None:
            self.pidx.remove(task.tid)
            self.pidx.insert(task.vruntime, task.tid, task)
        # Not a load-affecting change, but the invariance flag is keyed
        # to the summation the memo last saw; drop it conservatively.
        self._cached_load_invariant = False

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
            self.idle_epoch.bump()
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        if had_spare != has_spare_task(self._nr_running):
            self.overload.value += -1 if had_spare else 1
        self.load_epoch.bump()
        self._notify(now)

    def put_prev(self, task: Task, now: int) -> None:
        """Return the previously-running task to the tree (preemption)."""
        if self.curr is not task:
            raise ValueError(f"{task} is not current on cpu {self.cpu_id}")
        self.curr = None
        task.state = TaskState.RUNNABLE
        task.stats.last_enqueue_us = now
        self._tree.insert((task.vruntime, task.tid), task)
        if self.pidx is not None:
            self.pidx.insert(task.vruntime, task.tid, task)
        # The task set (and therefore load, nr_running, idleness) is
        # unchanged -- curr merely moved into the tree -- so no epoch or
        # mutation bump: every cached aggregate stays exactly valid.
        # The *time-invariance* of the load summation is not: the task's
        # running-state target flipped without a memo-key event, so the
        # flag (and only the flag) is dropped here.
        self._cached_load_invariant = False
        self._notify(now)

    # -- selection -------------------------------------------------------------

    def pick_next(self) -> Optional[Task]:
        """The leftmost (least-vruntime) waiting task, without removing it.

        With the pick index attached this is a cached-min probe instead
        of a tree descent; the index orders by the tree's own composite
        ``(vruntime, tid)`` key, so the two agree task-for-task (and the
        sanitizer holds them to it on every probe).
        """
        pidx = self.pidx
        if pidx is not None:
            task = pidx.peek()
            if self._sanitize:
                pair = self._tree.leftmost()
                ref = None if pair is None else pair[1]
                if ref is not task:
                    raise CoherenceError(
                        "pick-index", "leftmost", task, ref
                    )
            return task
        pair = self._tree.leftmost()
        return None if pair is None else pair[1]

    def take(self, task: Task, now: int) -> Task:
        """Remove a specific waiting task (for migration or dispatch)."""
        self._tree.remove((task.vruntime, task.tid))
        if self.pidx is not None:
            self.pidx.remove(task.tid)
        self._nr_running -= 1
        self._total_weight -= task.weight
        self.mutations += 1
        if self.vec is not None:
            self.vec.mark_dirty(self.cpu_id)
        if self._nr_running == 0:
            self.idle_epoch.bump()
            if self.vec is not None:
                self.vec.mark_idle_change(self.cpu_id)
        elif self._nr_running == SPARE_NR_RUNNING - 1:
            self.overload.value -= 1
        self.load_epoch.bump()
        self._notify(now)
        return task

    def leftmost_vruntime(self) -> Optional[int]:
        # A queued task's vruntime equals its tree key (it only changes
        # while running), so the pick index's task is key-exact too.
        pidx = self.pidx
        if pidx is not None:
            task = pidx.peek()
            return None if task is None else task.vruntime
        pair = self._tree.leftmost()
        return None if pair is None else pair[0][0]

    def update_min_vruntime(self) -> None:
        """Advance the monotonic vruntime floor (kernel semantics).

        Equivalent to ``max(min_vruntime, min(candidates))`` over the
        running task's vruntime and the tree's leftmost key, written
        branch-by-branch because this runs on every accounting point.
        The pick index, when attached, supplies the leftmost in O(1).
        """
        curr = self.curr
        pidx = self.pidx
        if pidx is not None:
            left = pidx.peek()
            leftmost_vr = None if left is None else left.vruntime
        else:
            pair = self._tree.leftmost()
            leftmost_vr = None if pair is None else pair[0][0]
        if curr is not None:
            floor = curr.vruntime
            if leftmost_vr is not None and leftmost_vr < floor:
                floor = leftmost_vr
        elif leftmost_vr is not None:
            floor = leftmost_vr
        else:
            return
        if floor > self.min_vruntime:
            self.min_vruntime = floor

    # -- introspection -----------------------------------------------------------

    def queued_tasks(self) -> Iterator[Task]:
        """Waiting tasks in vruntime order (excludes the running task)."""
        return self._tree.values()

    def all_tasks(self) -> List[Task]:
        """Running + waiting tasks."""
        tasks = list(self._tree.values())
        if self.curr is not None:
            tasks.append(self.curr)
        return tasks

    def load(self, now: Optional[int] = None) -> float:
        """Combined load of every task on this queue (Figure 2b's metric).

        O(1) on a cache hit: the summation is memoized per ``(now, epoch)``
        and every load-affecting mutation bumps the shared epoch.  Misses
        recompute the exact same per-task sum the uncached path uses, so
        the returned floats are identical either way.
        """
        if now is None or not self._load_cache_enabled:
            return sum(task.load(now) for task in self.all_tasks())
        div = self.divisor_epoch.value
        if (
            self._cached_load_mut == self.mutations
            and self._cached_load_div == div
            and (
                self._cached_load_now == now
                # Time-invariance carry-across: the memoized summation
                # found every member exactly converged, so it is a
                # constant of time until the next mutation (key above)
                # or running-state flip (flag cleared by put_prev/
                # requeue) -- re-stamp the timestamp and keep the value.
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
        # Explicit loop with the exact float-op order of the builtin
        # ``sum`` (int 0 start, sequential left-to-right adds), which
        # additionally derives the time-invariance flag: every member
        # tracker sitting exactly on its state's target (1.0 running,
        # 0.0 waiting) decays to itself at any future timestamp, so the
        # summation -- and therefore this sample -- is a constant of
        # time until the next mutation or state flip.
        value: float = 0
        invariant = True
        for task in self.all_tasks():
            value = value + task.load(now)
            # Raw util read is deliberate: exact convergence (util ==
            # target) is decay-invariant -- the decayed value IS the raw
            # value on this path -- so no staleness can be observed.
            if task.tracker.util != (  # repro: noqa[perf-load-bypass]
                1.0 if task.state is TaskState.RUNNING else 0.0
            ):
                invariant = False
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
