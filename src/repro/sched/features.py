"""Feature flags: one per bug fix, plus scheduler tunables.

The paper's four bugs are *behaviors* of specific decision points in the
scheduler.  Each fix is a flag so any combination of buggy/fixed variants can
run side by side (Table 2 evaluates exactly such combinations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.sched.timebase import (
    BALANCE_BASE_US,
    MIN_GRANULARITY_US,
    SCHED_LATENCY_US,
    WAKEUP_GRANULARITY_US,
)


@dataclass(frozen=True)
class SchedFeatures:
    """Configuration of the simulated scheduler.

    Fix flags (all default to ``False`` = the buggy mainline behavior the
    paper found):

    * ``fix_group_imbalance`` -- compare scheduling-group **minimum** loads
      instead of average loads in the balancing algorithm (Section 3.1).
    * ``fix_group_construction`` -- build cross-node scheduling groups from
      each core's own perspective instead of core 0's (Section 3.2).
    * ``fix_overload_on_wakeup`` -- wake a thread on its previous core when
      idle, else on the longest-idle core in the system (Section 3.3).
    * ``fix_missing_domains`` -- regenerate cross-NUMA scheduling domains
      after CPU hotplug (Section 3.4).
    """

    fix_group_imbalance: bool = False
    fix_group_construction: bool = False
    fix_overload_on_wakeup: bool = False
    fix_missing_domains: bool = False

    #: Divide a task's load by its autogroup's thread count (cgroup/autogroup
    #: feature, Linux >= 2.6.38).  Group Imbalance requires it; the paper's
    #: Overload-on-Wakeup experiments disable it.
    autogroup_enabled: bool = True

    #: Which load metric the balancer sees: ``"classic"`` divides a task's
    #: load by the group's instantaneous thread count; ``"v43"`` models the
    #: Linux 4.3 rework ("done in a way that significantly reduces
    #: complexity of the code") with a smoothed group divisor.  The paper
    #: (Section 3.5) confirmed the Group Imbalance bug survives the rework
    #: -- and it does here too (see test_bug_group_imbalance).
    load_metric: str = "classic"

    #: When True the power-management policy allows deep idle states, and the
    #: Overload-on-Wakeup fix steps aside (the paper only enforces the new
    #: wakeup strategy when the policy forbids low-power states).
    power_aware_wakeup: bool = False

    #: Target scheduling latency (``sched_latency_ns`` analog), microseconds.
    sched_latency_us: int = SCHED_LATENCY_US
    #: Minimum preemption granularity, microseconds.
    min_granularity_us: int = MIN_GRANULARITY_US
    #: Wakeup preemption granularity, microseconds.
    wakeup_granularity_us: int = WAKEUP_GRANULARITY_US
    #: Periodic balance interval at the lowest domain level, microseconds.
    balance_base_us: int = BALANCE_BASE_US
    #: Kernel ``sysctl_sched_migration_cost``: a CPU whose average idle
    #: period is shorter than this skips newidle balancing -- short-term
    #: idle cores are not worth balancing onto (and this is what keeps the
    #: Overload-on-Wakeup imbalance alive between periodic balances).
    migration_cost_us: int = 500
    #: Ablation switches (on in mainline; the ablation benchmarks turn
    #: them off to quantify each mechanism's contribution).
    nohz_idle_balance_enabled: bool = True
    newidle_balance_enabled: bool = True
    wakeup_preemption_enabled: bool = True
    #: Each domain level doubles the balance interval of the previous one.
    balance_interval_growth: int = 2

    #: Simulator fast path.  It changes *how fast* the simulation runs,
    #: never *what* it computes: every seeded trace is byte-identical with
    #: it on or off (pinned whole-workload by
    #: ``tests/test_cross_path.py``).  On, runqueues
    #: memoize their load summation and keep nr_running incrementally,
    #: the event heap compacts when cancelled entries dominate, and the
    #: persistent mirror :class:`~repro.sched.vecstate.VecState` serves
    #: balance sampling, folding and busiest-group selection.  Off is the
    #: reference path: per-call folds and the plain designated-balancer
    #: election, reading like the paper's Algorithm 1.  Both paths pick
    #: from the same sorted runqueue.
    fastpath: bool = True

    #: Coherence sanitizer: every fast-path memo *hit* recomputes the
    #: value from scratch and raises
    #: :class:`~repro.sched.sanitizer.CoherenceError` naming the divergent
    #: field on any drift.  Meant for CI soaks, never benchmarks (it
    #: makes every cache as slow as a miss).
    sanitize_coherence: bool = False

    def with_fixes(self, *names: str) -> "SchedFeatures":
        """A copy with the named fixes enabled.

        Accepts short names (``"group_imbalance"``) or full flag names.
        ``with_fixes("all")`` enables every fix.
        """
        updates: Dict[str, bool] = {}
        for name in names:
            if name == "all":
                updates.update(
                    fix_group_imbalance=True,
                    fix_group_construction=True,
                    fix_overload_on_wakeup=True,
                    fix_missing_domains=True,
                )
                continue
            flag = name if name.startswith("fix_") else f"fix_{name}"
            if not hasattr(self, flag):
                raise ValueError(f"unknown fix {name!r}")
            updates[flag] = True
        return replace(self, **updates)

    def without_autogroup(self) -> "SchedFeatures":
        """A copy with the autogroup feature disabled."""
        return replace(self, autogroup_enabled=False)

    def with_v43_load_metric(self) -> "SchedFeatures":
        """A copy using the Linux 4.3 reworked load metric."""
        return replace(self, load_metric="v43")

    def with_fastpath(self, enabled: bool = True) -> "SchedFeatures":
        """A copy with the simulator fast path toggled.

        ``with_fastpath(False)`` is the reference path: the simulation
        recomputes everything from scratch, as the pre-fast-path code
        did.  It is the oracle ``tests/test_cross_path.py`` and the
        sanitizer hold the fast path to.
        """
        return replace(self, fastpath=enabled)

    def with_vectorized(self, enabled: bool = True) -> "SchedFeatures":
        """Alias of :meth:`with_fastpath`.

        Kept only because ``benchmarks/e2e/workloads.py`` calls it; that
        directory is the pinned end-to-end benchmark and changes only in
        a dedicated benchmark change.
        """
        return self.with_fastpath(enabled)

    def with_sanitizer(self, enabled: bool = True) -> "SchedFeatures":
        """A copy with the coherence sanitizer toggled.

        Sanitizing only makes sense with the fast path on (it checks its
        memo hits), so enabling it also enables the fast path.
        """
        if enabled:
            return replace(self, fastpath=True, sanitize_coherence=True)
        return replace(self, sanitize_coherence=False)

    def describe(self) -> str:
        """One line per fix flag, kernel-boot-param style."""
        flags = [
            ("group_imbalance", self.fix_group_imbalance),
            ("group_construction", self.fix_group_construction),
            ("overload_on_wakeup", self.fix_overload_on_wakeup),
            ("missing_domains", self.fix_missing_domains),
        ]
        fixes = ", ".join(
            f"{name}={'fixed' if on else 'buggy'}" for name, on in flags
        )
        return f"{fixes}, autogroup={'on' if self.autogroup_enabled else 'off'}"


#: The scheduler exactly as the paper found it: all four bugs present.
MAINLINE = SchedFeatures()

#: The scheduler with all four fixes applied.
ALL_FIXED = SchedFeatures().with_fixes("all")
