"""Minimal per-bug scenarios: one reproducible setup for each paper bug.

The CLI's ``demo``, ``trace`` and ``metrics`` subcommands all run the same
small workloads -- the smallest arrangement of tasks that makes each bug's
invariant violation appear within about a second of simulated time.  This
module is the single home for those setups so they stay identical across
commands (and tests).

Bug names accept both spellings (``group_imbalance`` and
``group-imbalance``); :func:`canonical_bug_name` normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.sanity_checker import SanityChecker
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS, SEC
from repro.stats.metrics import IdleOverloadSampler
from repro.topology import amd_bulldozer_64, two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec

#: Canonical bug name -> SchedFeatures fix key.
BUG_FIXES = {
    "group-imbalance": "group_imbalance",
    "group-construction": "group_construction",
    "overload-on-wakeup": "overload_on_wakeup",
    "missing-domains": "missing_domains",
}

#: Names accepted on the command line.
BUG_NAMES = tuple(sorted(BUG_FIXES))

#: Simulated time each scenario needs for its violation to be confirmed.
DEFAULT_DURATION_US = 1 * SEC


def canonical_bug_name(name: str) -> str:
    """Normalize ``group_imbalance`` / ``group-imbalance`` to one spelling."""
    canonical = name.strip().lower().replace("_", "-")
    if canonical not in BUG_FIXES:
        raise ValueError(
            f"unknown bug {name!r}; expected one of {', '.join(BUG_NAMES)}"
        )
    return canonical


def _hog(name: str, allowed=None) -> TaskSpec:
    """An always-runnable CPU hog."""

    def factory():
        def program():
            while True:
                yield Run(5 * MS)

        return program()

    return TaskSpec(name, factory, allowed_cpus=allowed)


@dataclass
class BugScenario:
    """A live system set up to exhibit (or not) one of the paper's bugs."""

    bug: str
    variant: str
    system: System
    checker: SanityChecker
    sampler: IdleOverloadSampler
    duration_us: int = DEFAULT_DURATION_US

    def run(self, duration_us: Optional[int] = None) -> None:
        """Advance the scenario by its (or the given) duration."""
        self.system.run_for(
            duration_us if duration_us is not None else self.duration_us
        )


def build_bug_scenario(
    bug: str,
    variant: str = "buggy",
    seed: int = 42,
    instrument: Optional[Callable[[System], None]] = None,
    features_transform: Optional[
        Callable[[SchedFeatures], SchedFeatures]
    ] = None,
) -> BugScenario:
    """Build one bug's minimal scenario, sanity checker attached.

    ``variant`` is ``"buggy"`` (mainline behavior) or ``"fixed"`` (the
    paper's patch enabled).  ``instrument`` runs after the system exists
    but before any task spawns, so observers (``ObsSession``, trace
    probes) see the run from time zero.  ``features_transform`` maps the
    scenario's final feature set to a variant -- the cross-path tests use
    it to toggle the simulator fast path (``with_fastpath``) without
    touching the scheduling behavior under test.
    """
    bug = canonical_bug_name(bug)
    if variant not in ("buggy", "fixed"):
        raise ValueError(f"variant must be 'buggy' or 'fixed', not {variant!r}")

    features = SchedFeatures()
    if bug != "group-imbalance":
        # Only the imbalance scenario needs autogroup's per-tty load
        # distortion; elsewhere it just obscures the bug under study.
        features = features.without_autogroup()
    if variant == "fixed":
        features = features.with_fixes(BUG_FIXES[bug])
    if features_transform is not None:
        features = features_transform(features)
    if bug == "group-construction":
        # Needs the 8-node machine: the bug is in how its asymmetric
        # interconnect is folded into machine-level scheduling groups.
        topo = amd_bulldozer_64()
    else:
        topo = two_nodes(cores_per_node=4)

    system = System(topo, features, seed=seed)
    checker = SanityChecker(
        check_interval_us=100 * MS, monitor_window_us=50 * MS
    )
    checker.attach(system)
    sampler = IdleOverloadSampler()
    sampler.attach(system)
    if instrument is not None:
        instrument(system)

    if bug == "missing-domains":
        # Hotplug cycle: domains are not rebuilt on re-entry, so the
        # returned core is never balanced to.
        system.hotplug_cpu(2, False)
        system.hotplug_cpu(2, True)
        for i in range(8):
            system.spawn(_hog(f"t{i}"), parent_cpu=0)
    elif bug == "group-construction":
        # numactl-style pinning to nodes two hops apart.
        allowed = topo.cpus_of_nodes([1, 2])
        for i in range(16):
            system.spawn(_hog(f"t{i}", allowed), parent_cpu=8)
    elif bug == "group-imbalance":
        # One high-load R process in its own autogroup vs many make jobs.
        # The make jobs all start on CPU 1, like forks landing on their
        # parent's core: intra-node (MC) balancing spreads them -- those
        # migrations are real even in the buggy variant -- but the R
        # node's inflated average load defeats node-level balancing, so
        # the imbalance across nodes persists.
        from repro.workloads.cpubound import r_process

        system.spawn(r_process("R1", tty="tty-r"), on_cpu=4)
        for i in range(16):
            system.spawn(_hog(f"mk{i}"), on_cpu=1)
            system.scheduler.cgroups.attach(
                system.spawned[-1],
                system.scheduler.cgroups.autogroup_for_tty("tty-make"),
            )
    else:  # overload-on-wakeup
        # Pinned hogs fill every core; a frequently-sleeping task keeps
        # waking onto its cache-hot (busy) core 0.
        for i in range(4):
            system.spawn(_hog(f"hog{i}", frozenset({i})), on_cpu=i)

        def sleepy_factory():
            def program():
                for _ in range(400):
                    yield Run(1 * MS)
                    yield Sleep(1 * MS)

            return program()

        system.spawn(TaskSpec("sleepy", sleepy_factory), on_cpu=0)

    return BugScenario(
        bug=bug,
        variant=variant,
        system=system,
        checker=checker,
        sampler=sampler,
    )
