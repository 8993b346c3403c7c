"""Metrics collected from simulation runs.

The number the whole paper revolves around is the *idle-while-overloaded*
time: how long cores sat idle while runnable threads waited elsewhere.
:class:`IdleOverloadSampler` accumulates it tick by tick; the rest of the
module summarizes per-task and per-node outcomes for the experiment tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.core.invariant import has_violation
from repro.sim.timebase import TICK_US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.task import Task
    from repro.sim.system import System


class IdleOverloadSampler:
    """Tick hook accumulating time spent violating the invariant.

    Also tracks the total idle core-time while *any* task waited anywhere
    (wasted capacity), which is the "decade of wasted cores" headline
    number for a run.
    """

    def __init__(self) -> None:
        self.wasted_core_time_us = 0
        self.samples = 0
        self.violating_samples = 0
        self._system: Optional["System"] = None

    def attach(self, system: "System") -> None:
        if self._system is not None:
            raise RuntimeError("sampler already attached")
        self._system = system
        system.tick_hooks.append(self._on_tick)

    def detach(self) -> None:
        if self._system is None:
            return
        self._system.tick_hooks.remove(self._on_tick)
        self._system = None

    def _on_tick(self, now: int) -> None:
        assert self._system is not None
        sched = self._system.scheduler
        self.samples += 1
        violated = has_violation(sched, now)
        if violated:
            self.violating_samples += 1
            # Reported to the system's probe so traces show the violation
            # density the paper's heatmaps plot.
            if sched.probe.active:
                sched.probe.on_violation_tick(now)
            idle = queued = 0
            for c in sched.cpus:
                if c.is_idle:
                    idle += 1
                elif c.online:
                    queued += c.rq.nr_queued
            self.wasted_core_time_us += min(idle, queued) * TICK_US

    @property
    def violation_fraction(self) -> float:
        """Fraction of sampled ticks spent in a violated state."""
        if self.samples == 0:
            return 0.0
        return self.violating_samples / self.samples


@dataclass
class TaskSummary:
    """Aggregate outcome for a set of tasks (one workload)."""

    count: int
    total_runtime_us: int
    total_spin_us: int
    total_wait_us: int
    total_migrations: int
    total_wakeups: int
    wakeups_on_busy: int
    completed: int
    makespan_us: Optional[int]

    @property
    def spin_fraction(self) -> float:
        """Share of CPU time burned spinning (wasted cycles)."""
        if self.total_runtime_us == 0:
            return 0.0
        return self.total_spin_us / self.total_runtime_us


def summarize_tasks(
    tasks: Iterable["Task"], start_us: int = 0
) -> TaskSummary:
    """Fold task statistics into a summary.

    ``makespan_us`` is the latest exit time minus ``start_us``; None when
    some task has not exited.
    """
    tasks = list(tasks)
    exits = [t.stats.exit_time_us for t in tasks]
    completed = sum(1 for e in exits if e is not None)
    makespan = None
    if tasks and completed == len(tasks):
        makespan = max(e for e in exits if e is not None) - start_us
    return TaskSummary(
        count=len(tasks),
        total_runtime_us=sum(t.stats.total_runtime_us for t in tasks),
        total_spin_us=sum(t.stats.spin_time_us for t in tasks),
        total_wait_us=sum(t.stats.wait_time_us for t in tasks),
        total_migrations=sum(t.stats.migrations for t in tasks),
        total_wakeups=sum(t.stats.wakeups for t in tasks),
        wakeups_on_busy=sum(
            t.stats.wakeups_on_busy_core for t in tasks
        ),
        completed=completed,
        makespan_us=makespan,
    )


def machine_utilization(system: "System") -> float:
    """Mean online-CPU busy fraction since time zero."""
    cpus = [c for c in system.scheduler.cpus if c.online]
    if not cpus or system.now == 0:
        return 0.0
    return sum(c.busy_time_us for c in cpus) / (len(cpus) * system.now)


def node_busy_times(system: "System") -> Dict[int, int]:
    """Total busy core-time per NUMA node (Figure 2's node structure)."""
    topo = system.topology
    out: Dict[int, int] = {}
    for node in range(topo.num_nodes):
        out[node] = sum(
            system.scheduler.cpus[c].busy_time_us
            for c in topo.cpus_of_node(node)
        )
    return out


def per_cpu_busy_fractions(system: "System") -> List[float]:
    """Busy fraction of each CPU since time zero."""
    if system.now == 0:
        return [0.0] * len(system.scheduler.cpus)
    return [
        c.busy_time_us / system.now for c in system.scheduler.cpus
    ]
