"""Control groups and autogroups.

Since 2.6.38 Linux divides a thread's load by the number of threads in its
cgroup so CPU time is fair *between groups* rather than between threads; the
autogroup feature automatically puts each tty session (each ssh connection in
the paper's scenario) in its own group.  The Group Imbalance bug is a direct
consequence: one thread of a 64-thread ``make`` autogroup carries ~1/64 of
the load of a single-threaded R process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.sched.load import LoadEpoch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sched.task import Task


class CGroup:
    """A group of tasks whose combined load is normalized to one thread's.

    ``nr_threads`` counts *live* member tasks; a task leaves the group when
    it exits.  The root group performs no normalization (kernel root
    task_group behaves the same for our purposes).

    ``metric`` selects the divisor flavor: ``"classic"`` (instantaneous
    thread count, pre-4.3 kernels) or ``"v43"`` (the Linux 4.3 rework,
    modeled as a smoothed thread count -- group shares react to membership
    changes gradually instead of instantly).  Section 3.5 of the paper
    verified the Group Imbalance bug survives the 4.3 rework; both flavors
    reproduce it here.
    """

    #: EWMA step for the v43 smoothed divisor.
    _SMOOTHING = 0.25

    def __init__(self, name: str, is_root: bool = False,
                 metric: str = "classic"):
        if metric not in ("classic", "v43"):
            raise ValueError(f"unknown load metric {metric!r}")
        self.name = name
        self.is_root = is_root
        self.metric = metric
        self._members: Set["Task"] = set()
        self._avg_threads = 0.0

    @property
    def nr_threads(self) -> int:
        """Number of live tasks in the group."""
        return len(self._members)

    @property
    def load_divisor(self) -> float:
        """What a member task's load is divided by (>= 1)."""
        if self.is_root:
            return 1
        if self.metric == "v43":
            return max(1.0, self._avg_threads)
        return max(1, len(self._members))

    def add(self, task: "Task") -> None:
        self._members.add(task)
        self._update_avg()

    def discard(self, task: "Task") -> None:
        self._members.discard(task)
        self._update_avg()

    def _update_avg(self) -> None:
        n = len(self._members)
        self._avg_threads += (n - self._avg_threads) * self._SMOOTHING

    def members(self) -> Iterator["Task"]:
        """Member tasks in tid order.

        ``_members`` is a set of identity-hashed Task objects, so raw set
        order varies between runs; sorting keeps every consumer
        deterministic for a fixed seed.
        """
        return iter(sorted(self._members, key=lambda t: t.tid))

    def __repr__(self) -> str:
        kind = "root" if self.is_root else "cgroup"
        return f"CGroup({self.name!r}, {kind}, threads={self.nr_threads})"


class Autogroup(CGroup):
    """A cgroup automatically created for one tty session."""

    def __init__(self, tty: str, metric: str = "classic"):
        super().__init__(name=f"autogroup:{tty}", metric=metric)
        self.tty = tty


class CGroupManager:
    """Creates groups, places tasks, and models the autogroup feature.

    When ``autogroup_enabled`` is False every task is placed in the root
    group and loads are not divided (``noautogroup`` boot parameter).
    ``metric`` is inherited by every created group.
    """

    def __init__(self, autogroup_enabled: bool = True,
                 metric: str = "classic"):
        self.autogroup_enabled = autogroup_enabled
        self.metric = metric
        self.root = CGroup("root", is_root=True, metric=metric)
        self._autogroups: Dict[str, Autogroup] = {}
        self._groups: Dict[str, CGroup] = {"root": self.root}
        #: Divisor-epoch counter shared with the scheduler's runqueues, if
        #: bound.  Membership changes move the group divisor of *every*
        #: member thread without touching any runqueue, so they must
        #: invalidate the cached queue loads too.
        self._divisor_epoch: Optional[LoadEpoch] = None

    def bind_divisor_epoch(self, epoch: LoadEpoch) -> None:
        """Share the scheduler's divisor counter (called at scheduler init).

        The per-queue load caches key on it; every membership change
        bumps it.
        """
        self._divisor_epoch = epoch

    def create_group(self, name: str) -> CGroup:
        """An explicit (non-auto) cgroup; raises on duplicate names."""
        if name in self._groups:
            raise ValueError(f"cgroup {name!r} already exists")
        group = CGroup(name, metric=self.metric)
        self._groups[name] = group
        return group

    def autogroup_for_tty(self, tty: str) -> CGroup:
        """The autogroup of a tty session (created on first use).

        With autogroups disabled this returns the root group, matching the
        kernel's fallback.
        """
        if not self.autogroup_enabled:
            return self.root
        if tty not in self._autogroups:
            group = Autogroup(tty, metric=self.metric)
            self._autogroups[tty] = group
            self._groups[group.name] = group
        return self._autogroups[tty]

    def group(self, name: str) -> CGroup:
        """Lookup by name; raises ``KeyError`` when missing."""
        return self._groups[name]

    def groups(self) -> List[CGroup]:
        """All groups including root, creation order not guaranteed."""
        return list(self._groups.values())

    def attach(self, task: "Task", group: Optional[CGroup] = None) -> None:
        """Move a task into ``group`` (default root), leaving its old group."""
        target = group or self.root
        if task.cgroup is not None:
            task.cgroup.discard(task)
        target.add(task)
        task.cgroup = target
        if self._divisor_epoch is not None:
            self._divisor_epoch.bump()

    def detach(self, task: "Task") -> None:
        """Remove an exiting task from its group."""
        if task.cgroup is not None:
            task.cgroup.discard(task)
            task.cgroup = None
            if self._divisor_epoch is not None:
                self._divisor_epoch.bump()
