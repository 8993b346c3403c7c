"""Performance harness: deterministic macro-benchmarks of the simulator.

The fast paths this package measures (``repro bench``) are the incremental
load tracking, single-pass balance statistics, and event-loop compaction
behind :meth:`repro.sched.features.SchedFeatures.with_fastpath`.  Each
benchmark runs the same seeded scenario in one of three variants --
*baseline* (all fast paths off, reproducing the historical
implementations), *fast* (the per-pass fast paths), and *vec* (the
array-backed vectorized core) -- and a short traced run digests the
schedule so every variant can be proven byte-identical
(``repro bench --check-digests``).

Results append to a ``BENCH_*.json`` trajectory file, so the measured
speedups (and the determinism digests) are tracked over the repository's
history.  Wall-clock reads are legal here: this package is outside the
simulation hot scope the ``det-wallclock`` lint rule protects.
"""

from repro.perf.bench import (
    BENCHMARKS,
    VARIANTS,
    BenchProfile,
    BenchResult,
    ModeMetrics,
    benchmark_names,
    format_profile_comparison,
    harvest_profile_weights,
    profile_benchmark,
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
)

__all__ = [
    "BENCHMARKS",
    "VARIANTS",
    "BenchProfile",
    "BenchResult",
    "ModeMetrics",
    "benchmark_names",
    "format_profile_comparison",
    "harvest_profile_weights",
    "profile_benchmark",
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
]
