"""The core module: invariant-guarded placement over module suggestions.

:class:`InvariantGuardedScheduler` extends the CFS-model scheduler with
the paper's proposed architecture: on every wakeup it collects suggestions
from the registered optimization modules (highest confidence first) and
accepts the first *feasible* one.  A suggestion is infeasible when taking
it would violate the work-conserving invariant -- placing the thread on a
busy core while an allowed core sits idle.  When every suggestion is
infeasible (or none is offered), the guard places the thread on the
longest-idle allowed core, or falls back to the inherited placement when
no core is idle.

Every decision is recorded so experiments can attribute placements to
modules vs. guard overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sched import wakeup as wk
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.sim.system import System
from repro.modular.modules import OptimizationModule, Suggestion


@dataclass(frozen=True)
class PlacementDecision:
    """An audited wakeup placement."""

    time_us: int
    tid: int
    cpu: int
    source: str  # module name, "guard-override", or "fallback"
    reason: str


class InvariantGuardedScheduler(Scheduler):
    """Scheduler whose wakeup placement is module-suggested, guard-checked."""

    def __init__(self, *args, modules: Optional[List[OptimizationModule]] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.modules: List[OptimizationModule] = list(modules or [])
        self.decisions: List[PlacementDecision] = []
        self.guard_overrides = 0
        self.module_placements = 0

    # -- the core module's placement logic ---------------------------------

    def _idle_allowed_cpu(self, task: Task) -> Optional[int]:
        """Longest-idle online core the task may run on, if any."""
        for cpu in self.idle_cpus():
            if task.can_run_on(cpu.cpu_id):
                return cpu.cpu_id
        return None

    def _feasible(self, task: Task, suggestion: Suggestion) -> bool:
        """A suggestion must not break the work-conserving invariant."""
        cpu = self.cpus[suggestion.cpu]
        if not cpu.online or not task.can_run_on(suggestion.cpu):
            return False
        if cpu.is_idle:
            return True
        # Busy target: acceptable only when no allowed core is idle.
        return self._idle_allowed_cpu(task) is None

    def _select_wakeup_cpu(
        self, task: Task, waker_cpu: Optional[int], now: int
    ) -> PlacementDecision:
        suggestions = []
        for module in self.modules:
            suggestion = module.suggest_wakeup(self, task, waker_cpu, now)
            if suggestion is not None:
                suggestions.append((module.name, suggestion))
        suggestions.sort(key=lambda pair: -pair[1].confidence)
        for name, suggestion in suggestions:
            if self._feasible(task, suggestion):
                self.module_placements += 1
                return PlacementDecision(
                    now, task.tid, suggestion.cpu, name, suggestion.reason
                )
        if suggestions:
            # Some module spoke but nothing feasible: the guard overrides.
            idle = self._idle_allowed_cpu(task)
            if idle is not None:
                self.guard_overrides += 1
                return PlacementDecision(
                    now, task.tid, idle, "guard-override",
                    "suggestion would idle a core with work waiting",
                )
        # No (feasible) suggestion: inherited CFS placement as fallback.
        cpu = wk.select_task_rq_wake(self, task, waker_cpu, now)
        return PlacementDecision(
            now, task.tid, cpu, "fallback", "inherited select_task_rq"
        )

    # -- scheduler hook ------------------------------------------------------

    def wake_target(
        self, task: Task, waker_cpu: Optional[int], now: int
    ) -> int:
        """The guarded placement, recorded as a :class:`PlacementDecision`."""
        decision = self._select_wakeup_cpu(task, waker_cpu, now)
        self.decisions.append(decision)
        return decision.cpu

    def decision_summary(self) -> str:
        total = len(self.decisions)
        if total == 0:
            return "no wakeup decisions recorded"
        return (
            f"{total} wakeups: {self.module_placements} module-placed, "
            f"{self.guard_overrides} guard overrides, "
            f"{total - self.module_placements - self.guard_overrides} "
            f"fallbacks"
        )


class ModularSystem(System):
    """A simulated machine running the invariant-guarded modular scheduler."""

    def __init__(self, topology, features=None, modules=None, probe=None,
                 seed: int = 0):
        super().__init__(topology, features, probe, seed)
        # Swap the scheduler for the guarded variant, reusing the probe.
        self.scheduler = InvariantGuardedScheduler(
            topology, features, probe=self.scheduler.probe,
            modules=modules,
        )

    @property
    def guarded(self) -> InvariantGuardedScheduler:
        return self.scheduler  # typed accessor for experiments
