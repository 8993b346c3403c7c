"""Optimization modules: pluggable placement suggestions.

A module looks at the machine state and *suggests* a CPU for a waking
task, with a stated reason and confidence.  It never places anything
itself -- the core module (:mod:`repro.modular.core`) decides, and its
invariant guard can override any suggestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.scheduler import Scheduler
    from repro.sched.task import Task


@dataclass(frozen=True)
class Suggestion:
    """One module's placement proposal."""

    cpu: int
    reason: str
    #: Relative strength in [0, 1]; the core picks the strongest feasible.
    confidence: float = 0.5


class OptimizationModule:
    """Interface for placement-suggestion modules."""

    #: Short identifier used in decision logs.
    name = "base"

    def suggest_wakeup(
        self,
        sched: "Scheduler",
        task: "Task",
        waker_cpu: Optional[int],
        now: int,
    ) -> Optional[Suggestion]:
        """Propose a CPU for a waking task; None to abstain."""
        return None


class CacheAffinityModule(OptimizationModule):
    """Wake a thread close to where its data is warm.

    Prefers the previous core, then an idle core sharing the LLC with the
    waker or the previous core.  ``node_restricted=True`` reproduces the
    mainline behavior behind the Overload-on-Wakeup bug: when nothing in
    the node is idle it still insists on the (busy) previous core.
    """

    name = "cache-affinity"

    def __init__(self, node_restricted: bool = True):
        self.node_restricted = node_restricted

    def suggest_wakeup(self, sched, task, waker_cpu, now):
        topo = sched.topology
        prev = task.prev_cpu
        if prev is None or not sched.cpus[prev].online:
            return None
        if not task.can_run_on(prev):
            return None
        if sched.cpus[prev].is_idle:
            return Suggestion(prev, "previous core idle (warm cache)", 0.9)
        for cpu_id in sorted(topo.llc_siblings(prev)):
            cpu = sched.cpus[cpu_id]
            if cpu.online and cpu.is_idle and task.can_run_on(cpu_id):
                return Suggestion(
                    cpu_id, "idle core sharing the previous LLC", 0.7
                )
        if self.node_restricted:
            # The buggy insistence: better to wait on a busy core of the
            # right node than to lose cache affinity (so the module says).
            return Suggestion(
                prev, "busy previous core (cache reuse over latency)", 0.6
            )
        return None


class LeastLoadedModule(OptimizationModule):
    """A contention-avoidance module: spread onto the least-loaded core."""

    name = "least-loaded"

    def suggest_wakeup(self, sched, task, waker_cpu, now):
        best = None
        best_load = None
        for cpu in sched.cpus:
            if not cpu.online or not task.can_run_on(cpu.cpu_id):
                continue
            load = cpu.rq.load(now)
            if best_load is None or load < best_load:
                best = cpu.cpu_id
                best_load = load
        if best is None:
            return None
        return Suggestion(best, "globally least-loaded core", 0.4)
