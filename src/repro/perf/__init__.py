"""Performance layer: the parallel, cached trial orchestrator.

Every experiment is a flat list of :class:`TrialSpec`s that
:func:`run_trials` executes across a worker pool and merges in spec
order, so a ``-jN`` run is byte-identical to a serial one; a
content-addressed :class:`ResultCache` replays unchanged trials.  See
:mod:`repro.perf.orchestrator`.  Wall-clock reads are legal here: this
package is outside the simulation hot scope the ``det-wallclock`` lint
rule protects.
"""

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

__all__ = [
    "OrchestratorRun",
    "PoolStats",
    "ResultCache",
    "TrialOutcome",
    "TrialResult",
    "TrialSpec",
    "resolve_jobs",
    "run_trials",
    "source_tree_digest",
]
