"""The paper's contribution: invariant tools for the scheduler.

* :mod:`~repro.core.invariant` -- the work-conserving invariant ("no core
  remains idle while another core is overloaded", Algorithm 2) as pure
  checks over a live scheduler;
* :mod:`~repro.core.sanity_checker` -- the online sanity checker: periodic
  invariant checks (period S), a short monitoring window (M) to discard
  legal transient violations, and on-detection profiling;
* :mod:`~repro.core.profiler` -- the systemtap stand-in: records every
  balancing decision and considered-core set while a bug is being profiled;
* :mod:`~repro.core.offline` -- invariant analysis over recorded traces
  (including JSON-serialized ones);
* :mod:`~repro.core.bugs` -- the bug registry behind Table 4.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "repro.core.bugs": ("BUGS", "Bug", "bug_by_name"),
    "repro.core.invariant": ("Violation", "find_violations", "has_violation"),
    "repro.core.offline": (
        "OfflineViolation",
        "find_trace_violations",
        "load_trace",
        "save_trace",
    ),
    "repro.core.profiler": ("BalanceProfiler",),
    "repro.core.sanity_checker": ("BugReport", "SanityChecker"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
