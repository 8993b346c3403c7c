"""The orchestrator's front door: cache-aware sharded trial execution.

:func:`run_trials` takes a flat spec list and returns outcomes **in spec
order** regardless of how many workers executed them, which is what lets
every table and figure driver emit specs, fan out, and merge rows without
ever thinking about concurrency.  The flow per spec:

1. cache lookup (spec fingerprint + source-tree digest) -- a hit skips
   execution entirely;
2. misses are executed across the worker pool (serial by default);
3. fresh results are written back to the cache (unless the spec opted
   out) and merged into the outcome list at their original index.

Progress is reported per finished trial through the optional
``progress`` hook, and utilization as a :class:`PoolStats` summary:
executed and cached trials, per-worker busy time and the pool's overall
utilization (busy-time / (jobs x wall-time)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.perf.orchestrator.cache import ResultCache
from repro.perf.orchestrator.pool import (
    ExecutedTrial,
    resolve_jobs,
    resolve_start_method,
    run_pool,
)
from repro.perf.orchestrator.spec import TrialResult, TrialSpec


@dataclass
class TrialOutcome:
    """One spec's final result: who produced it, from where, how fast."""

    spec: TrialSpec
    result: TrialResult
    #: True when the result came from the on-disk cache (no execution).
    cached: bool
    wall_seconds: float
    #: ``"cache"`` for hits, ``"serial"`` for inline execution, or the
    #: pool worker's process name.
    worker: str


@dataclass
class WorkerStats:
    """Per-worker tallies for the utilization summary."""

    trials: int = 0
    busy_seconds: float = 0.0


@dataclass
class PoolStats:
    """One orchestrated run's shape: work, where it ran, how busy."""

    jobs: int
    start_method: str
    total: int
    executed: int
    cache_hits: int
    wall_seconds: float
    busy_seconds: float
    workers: Dict[str, WorkerStats] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds, 0..1."""
        capacity = self.jobs * self.wall_seconds
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def to_json(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "start_method": self.start_method,
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "wall_seconds": round(self.wall_seconds, 4),
            "busy_seconds": round(self.busy_seconds, 4),
            "utilization": round(self.utilization, 4),
            "workers": {
                name: {
                    "trials": ws.trials,
                    "busy_seconds": round(ws.busy_seconds, 4),
                }
                for name, ws in sorted(self.workers.items())
            },
        }

    def summary(self) -> str:
        """The human-readable utilization summary (one paragraph)."""
        lines = [
            f"orchestrator: {self.total} trial(s), "
            f"{self.cache_hits} cache hit(s), {self.executed} executed "
            f"on {self.jobs} job(s) [{self.start_method}] in "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.busy_seconds:.2f}s busy, "
            f"utilization {self.utilization:.0%})"
        ]
        for name, ws in sorted(self.workers.items()):
            lines.append(
                f"  {name}: {ws.trials} trial(s), {ws.busy_seconds:.2f}s busy"
            )
        return "\n".join(lines)


@dataclass
class OrchestratorRun:
    """Outcomes in spec order plus the run's utilization statistics."""

    outcomes: List[TrialOutcome]
    stats: PoolStats

    def rows(self) -> List[Dict[str, object]]:
        """Every outcome's row, in spec order."""
        return [outcome.result.row for outcome in self.outcomes]

    def digests(self) -> List[str]:
        """Every outcome's schedule digest, in spec order."""
        return [outcome.result.schedule_digest for outcome in self.outcomes]


#: Parent-side progress hook: (completed count, total, outcome).
Progress = Callable[[int, int, TrialOutcome], None]


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    start_method: Optional[str] = None,
    progress: Optional[Progress] = None,
) -> OrchestratorRun:
    """Execute a spec list; outcomes come back in spec order.

    ``jobs=None`` defers to ``REPRO_JOBS`` and then to serial execution,
    so callers that never pass the parameter behave exactly as the
    pre-orchestrator drivers did.  ``cache=None`` disables caching.
    """
    resolved_jobs = resolve_jobs(jobs)
    method = resolve_start_method(start_method)

    started = time.perf_counter()
    outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
    pending: List[int] = []
    completed = 0

    for index, spec in enumerate(specs):
        hit = cache.get(spec) if (cache is not None and spec.cache) else None
        if hit is None:
            pending.append(index)
            continue
        outcome = TrialOutcome(
            spec=spec,
            result=hit,
            cached=True,
            wall_seconds=0.0,
            worker="cache",
        )
        outcomes[index] = outcome
        completed += 1
        if progress is not None:
            progress(completed, len(specs), outcome)

    workers: Dict[str, WorkerStats] = {}

    def on_result(record: ExecutedTrial) -> None:
        nonlocal completed
        spec = specs[record.index]
        outcome = TrialOutcome(
            spec=spec,
            result=record.result,
            cached=False,
            wall_seconds=record.wall_seconds,
            worker=record.worker,
        )
        outcomes[record.index] = outcome
        stats = workers.setdefault(record.worker, WorkerStats())
        stats.trials += 1
        stats.busy_seconds += record.wall_seconds
        if cache is not None and spec.cache:
            cache.put(spec, record.result, record.wall_seconds)
        completed += 1
        if progress is not None:
            progress(completed, len(specs), outcome)

    run_pool(
        [(index, specs[index]) for index in pending],
        jobs=resolved_jobs,
        start_method=method,
        on_result=on_result,
    )

    wall = time.perf_counter() - started
    final: List[TrialOutcome] = []
    for outcome in outcomes:
        assert outcome is not None, "orchestrator lost a trial result"
        final.append(outcome)
    stats = PoolStats(
        jobs=resolved_jobs,
        start_method=method or "default",
        total=len(specs),
        executed=len(pending),
        cache_hits=len(specs) - len(pending),
        wall_seconds=wall,
        busy_seconds=sum(ws.busy_seconds for ws in workers.values()),
        workers=workers,
    )
    return OrchestratorRun(outcomes=final, stats=stats)
