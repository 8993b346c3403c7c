"""Performance harness: deterministic macro-benchmarks of the simulator.

The fast path this package measures (``repro bench``) is the incremental
load tracking, the persistent balance mirror and the event-loop
compaction behind :meth:`repro.sched.features.SchedFeatures.with_fastpath`.
Each benchmark runs the same seeded scenario in one of two variants --
*baseline* (the reference path, reproducing the historical
implementations) and *fast* (the fast path) -- and a short traced run
digests the schedule so both variants can be proven byte-identical
(``repro bench --check-digests``).

Results append to a ``BENCH_*.json`` trajectory file, so the measured
speedups (and the determinism digests) are tracked over the repository's
history.  Wall-clock reads are legal here: this package is outside the
simulation hot scope the ``det-wallclock`` lint rule protects.
"""

from repro.perf.bench import (
    BENCHMARKS,
    VARIANTS,
    BenchResult,
    ModeMetrics,
    benchmark_names,
    run_benchmark,
)
from repro.perf.orchestrator import (
    OrchestratorRun,
    PoolStats,
    ResultCache,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    resolve_jobs,
    run_trials,
    source_tree_digest,
)
from repro.perf.store import (
    append_run,
    check_digests,
    format_results,
    format_trend,
    load_trajectory,
    stored_digests,
)

__all__ = [
    "BENCHMARKS",
    "VARIANTS",
    "BenchResult",
    "ModeMetrics",
    "benchmark_names",
    "run_benchmark",
    "OrchestratorRun",
    "PoolStats",
    "ResultCache",
    "TrialOutcome",
    "TrialResult",
    "TrialSpec",
    "resolve_jobs",
    "run_trials",
    "source_tree_digest",
    "append_run",
    "check_digests",
    "format_results",
    "format_trend",
    "load_trajectory",
    "stored_digests",
]
