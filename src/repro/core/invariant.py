"""The work-conserving invariant (the paper's Algorithm 2).

    "No core remains idle while another core is overloaded."

A *violation* pairs an idle CPU with an overloaded CPU (two or more
runnable threads) from which at least one waiting thread could legally
migrate (``can_steal`` respects taskset affinity).  Short-lived violations
are expected -- threads block, wake, fork and exit all the time -- so the
checker that consumes these results (:mod:`~repro.core.sanity_checker`)
only flags violations that persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.scheduler import Scheduler


@dataclass(frozen=True)
class Violation:
    """One (idle CPU, overloaded CPU) invariant violation."""

    time_us: int
    idle_cpu: int
    busy_cpu: int
    busy_nr_running: int
    stealable_tids: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"t={self.time_us}us: cpu {self.idle_cpu} idle while cpu "
            f"{self.busy_cpu} runs {self.busy_nr_running} threads "
            f"(stealable: {list(self.stealable_tids)})"
        )


def find_violations(sched: "Scheduler", now: int) -> List[Violation]:
    """Algorithm 2, literally.

    For every idle CPU1, for every CPU2 with at least two runnable threads,
    report a violation when CPU1 could steal from CPU2.  Quadratic like the
    paper's version -- they "strived to keep the code simple, perhaps at
    the expense of a higher algorithmic complexity".
    """
    violations: List[Violation] = []
    cpus = sched.cpus
    for cpu1 in cpus:
        if not cpu1.online:
            continue
        if cpu1.rq.nr_running >= 1:
            continue  # CPU1 is not idle
        for cpu2 in cpus:
            if cpu2.cpu_id == cpu1.cpu_id or not cpu2.online:
                continue
            if cpu2.rq.nr_running < 2:
                continue
            stealable = tuple(
                t.tid
                for t in cpu2.rq.queued_tasks()
                if t.can_run_on(cpu1.cpu_id)
            )
            if stealable:
                violations.append(
                    Violation(
                        time_us=now,
                        idle_cpu=cpu1.cpu_id,
                        busy_cpu=cpu2.cpu_id,
                        busy_nr_running=cpu2.rq.nr_running,
                        stealable_tids=stealable,
                    )
                )
    return violations


def has_violation(sched: "Scheduler", now: int) -> bool:
    """Cheap early-exit variant of :func:`find_violations`.

    Returns at once while no runqueue has a task to spare (the
    scheduler's exact ``overload`` count): without a CPU running two
    threads there is nothing to steal.  Otherwise each waiting task of
    each spare queue is tested against the set of idle CPUs in one
    ``isdisjoint`` call.
    """
    if sched.overload.value == 0:
        return False
    cpus = sched.cpus
    idle_ids = {c.cpu_id for c in cpus if c.is_idle}
    if not idle_ids:
        return False
    for cpu2 in cpus:
        if not cpu2.online or cpu2.rq.nr_running < 2:
            continue
        for task in cpu2.rq.queued_tasks():
            allowed = task.allowed_cpus
            if allowed is None or not allowed.isdisjoint(idle_ids):
                return True
    return False


def violation_pairs(violations: List[Violation]) -> List[Tuple[int, int]]:
    """(idle, busy) CPU pairs, order preserved (for report summaries)."""
    return [(v.idle_cpu, v.busy_cpu) for v in violations]
