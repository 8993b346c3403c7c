"""The benchmark's four workloads, driven only through the public API.

Each workload turns a seed into inputs (``setup``, part of the measured
set-up), optionally prepares untimed state (``prepare``), and then runs
one *operation* at a time (``op``).  Every operation of one run gets the
same inputs, so every operation must return the same digest; the first
one is checked against the digest committed for the seed, or, for a seed
without one, against an independent ``reference`` computed after the
timed phase.

Why these four: ``soak64`` loads the engine, tick, pick, wakeup
placement and newidle balancing at 64 CPUs; ``bugsweep`` loads periodic
balancing and the checker hooks on small machines with almost no
wakeups; ``report_cold`` is what a ``repro report`` user pays
(orchestrator fan-out plus cache writes, scalar fast path);
``report_warm`` only reads the cache and renders.  Each optimisation has
a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import reportgen
from repro.experiments.scenarios import BUG_NAMES, build_bug_scenario
from repro.perf.orchestrator import ResultCache, TrialOutcome, run_trials
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS, SEC
from repro.topology import amd_bulldozer_64
from repro.workloads.base import Program, Run, Sleep, TaskSpec

#: Worker count of the report workloads: fixed, never taken from nproc,
#: so two hosts run the same fan-out.
REPORT_JOBS = 2

#: Scale of the report workloads (``repro report --scale 0.02 -j 2``):
#: small enough that a run times four or five cold reports.  Smaller
#: scales save little: a cold report costs 3.3 s at 0.01 against 4 s at
#: 0.02 on the calibration host.
REPORT_SCALE = 0.02

#: Trials re-run serially to cross-check a pooled report whose seed has
#: no committed digest.
REPORT_SPOT_CHECKS = 3


def fastest_features(base: SchedFeatures = SchedFeatures()) -> SchedFeatures:
    """The fastest shipped configuration; the sim workloads run it."""
    return base.with_vectorized(True)


@dataclass
class OpResult:
    """What one operation returned: its digest plus throughput facts."""

    digest: str
    #: Simulated microseconds the operation advanced (0 if none).
    sim_us: int = 0
    #: Extra per-operation samples, by detail-metric name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Component digests (one per report trial), for the reference check.
    parts: List[str] = field(default_factory=list)


@dataclass
class Config:
    """What a workload's set-up may depend on."""

    seed: int
    workdir: Path
    #: Tiny operations, for the self-test.
    smoke: bool
    #: The run alternates untraced and traced operations.
    traced: bool


@dataclass
class Workload:
    name: str
    setup: Callable[[Config], Any]
    op: Callable[[Any], OpResult]
    #: The expected digest, checked independently after the timed phase
    #: from the fixture and the first operation's result; None when the
    #: independent check fails.
    reference: Callable[[Any, OpResult], Optional[str]]
    prepare: Callable[[Any], Dict[str, float]] = lambda fixture: {}


# -- digests -----------------------------------------------------------------


def system_digest(system: System) -> str:
    """SHA-256 over a system's public end state."""
    sched = system.scheduler
    parts = [
        f"now={system.now}",
        f"events={system.loop.events_fired}",
        f"balance_calls={sched.balance_calls}",
        f"migrations={sched.total_migrations}",
    ]
    for task in system.spawned:
        stats = task.stats
        parts.append(
            f"{task.tid}:{task.vruntime}:{stats.total_runtime_us}:"
            f"{stats.migrations}:{stats.wakeups}:{stats.wait_time_us}"
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def report_digest(result: "reportgen.ReportResult") -> str:
    """SHA-256 of a report's per-trial schedule digests plus its markdown."""
    text = "".join(result.digests) + result.markdown
    return hashlib.sha256(text.encode()).hexdigest()


# -- soak64 ------------------------------------------------------------------


def _hog(name: str) -> TaskSpec:
    def factory() -> Program:
        def program() -> Program:
            while True:
                yield Run(5 * MS)

        return program()

    return TaskSpec(name, factory)


def _sleeper(name: str) -> TaskSpec:
    def factory() -> Program:
        def program() -> Program:
            while True:
                yield Run(1 * MS)
                yield Sleep(2 * MS)

        return program()

    return TaskSpec(name, factory)


#: Placements one soak64 operation runs, each for a quarter second.
#: About three placements in ten set off a balancing ping-pong with
#: twenty times the migrations and 7% more host time; one placement per
#: operation made the cost differ by up to 0.09 (IQR over median) between
#: seeds, four bring that to about 0.03.
SOAK_PLACEMENTS = 4


@dataclass
class Soak:
    seed: int
    horizon_us: int
    #: (hog parent CPUs, sleeper parent CPUs) of each placement.
    placements: List[Tuple[List[int], List[int]]]


def soak64_setup(cfg: Config) -> Soak:
    rng = random.Random(cfg.seed)
    cpus = amd_bulldozer_64().num_cpus
    return Soak(
        seed=cfg.seed,
        horizon_us=(100 * MS if cfg.smoke else 1 * SEC) // SOAK_PLACEMENTS,
        placements=[
            ([rng.randrange(cpus) for _ in range(48)],
             [rng.randrange(cpus) for _ in range(32)])
            for _ in range(SOAK_PLACEMENTS)
        ],
    )


def _soak(fx: Soak, features: SchedFeatures) -> OpResult:
    hasher = hashlib.sha256()
    sim_us = 0
    for hog_parents, sleeper_parents in fx.placements:
        system = System(amd_bulldozer_64(), features, seed=fx.seed)
        for i, cpu in enumerate(hog_parents):
            system.spawn(_hog(f"hog{i}"), parent_cpu=cpu)
        for i, cpu in enumerate(sleeper_parents):
            system.spawn(_sleeper(f"sleep{i}"), parent_cpu=cpu)
        system.run_for(fx.horizon_us)
        hasher.update(system_digest(system).encode())
        sim_us += system.now
    return OpResult(hasher.hexdigest(), sim_us=sim_us)


def soak64_op(fx: Soak) -> OpResult:
    return _soak(fx, fastest_features())


def soak64_reference(fx: Soak, first: OpResult) -> str:
    """The same soak on the default (non-vectorized) features."""
    return _soak(fx, SchedFeatures()).digest


# -- bugsweep ----------------------------------------------------------------


@dataclass
class Sweep:
    seed: int
    horizon_us: int


def bugsweep_setup(cfg: Config) -> Sweep:
    return Sweep(seed=cfg.seed, horizon_us=100 * MS if cfg.smoke else 1 * SEC)


def check_paper_shape(fractions: Dict[str, Dict[str, float]]) -> None:
    """Each bug shows when buggy and disappears (or stays absent) when fixed."""
    for bug in BUG_NAMES:
        buggy, fixed = fractions[bug]["buggy"], fractions[bug]["fixed"]
        holds = buggy >= fixed if bug == "overload-on-wakeup" else buggy > fixed
        if not holds:
            raise AssertionError(
                f"{bug}: buggy violation fraction {buggy:.3f} vs fixed "
                f"{fixed:.3f} breaks the paper's shape"
            )


def _sweep(
    fx: Sweep,
    transform: Optional[Callable[[SchedFeatures], SchedFeatures]],
) -> OpResult:
    hasher = hashlib.sha256()
    fractions: Dict[str, Dict[str, float]] = {}
    sim_us = 0
    for bug in BUG_NAMES:
        for variant in ("buggy", "fixed"):
            scenario = build_bug_scenario(
                bug, variant, seed=fx.seed, features_transform=transform
            )
            scenario.run(fx.horizon_us)
            hasher.update(system_digest(scenario.system).encode())
            fractions.setdefault(bug, {})[variant] = (
                scenario.sampler.violation_fraction
            )
            sim_us += scenario.system.now
    check_paper_shape(fractions)
    return OpResult(hasher.hexdigest(), sim_us=sim_us)


def bugsweep_op(fx: Sweep) -> OpResult:
    return _sweep(fx, fastest_features)


def bugsweep_reference(fx: Sweep, first: OpResult) -> str:
    """The same sweep on each scenario's default features."""
    return _sweep(fx, None).digest


# -- report_cold / report_warm -----------------------------------------------


@dataclass
class Report:
    seed: int
    scale: float
    workdir: Path
    cache: ResultCache
    #: Workers of a cold report; a traced run uses one, so the trials'
    #: spans are recorded in the traced process.
    jobs: int


def report_setup(cfg: Config) -> Report:
    return Report(
        seed=cfg.seed,
        scale=0.005 if cfg.smoke else REPORT_SCALE,
        workdir=cfg.workdir,
        cache=ResultCache(cfg.workdir / "cache"),
        jobs=1 if cfg.traced else REPORT_JOBS,
    )


def _generate(fx: Report, cache: ResultCache, jobs: int) -> OpResult:
    trial_s: List[float] = []

    def progress(done: int, total: int, outcome: TrialOutcome) -> None:
        if not outcome.cached:
            trial_s.append(outcome.wall_seconds)

    result = reportgen.generate_report(
        scale=fx.scale, seed=fx.seed, jobs=jobs, cache=cache,
        progress=progress,
    )
    stats = result.stats
    samples = {"cache_hit_ratio": [stats.cache_hits / stats.total]}
    if stats.executed:
        samples.update(
            trial_s=trial_s,
            orch_utilization=[stats.utilization],
            orch_idle_s=[stats.jobs * stats.wall_seconds - stats.busy_seconds],
        )
    # Cached trials carry their counters too; only a report that ran
    # every trial simulated what its counters say.
    simulated = stats.cache_hits == 0
    return OpResult(
        report_digest(result),
        sim_us=result.counters.get("sim_us", 0) if simulated else 0,
        samples=samples,
        parts=result.digests,
    )


def report_cold_op(fx: Report) -> OpResult:
    """One report against a fresh, empty cache."""
    root = Path(tempfile.mkdtemp(dir=fx.workdir, prefix="cold-"))
    cache = ResultCache(root, code_digest=fx.cache.code_digest)
    return _generate(fx, cache, fx.jobs)


def report_warm_prepare(fx: Report) -> Dict[str, float]:
    """Fill the cache once, untimed: the fill is the report_cold operation."""
    start = time.perf_counter()
    _generate(fx, fx.cache, REPORT_JOBS)
    return {"fill_s": time.perf_counter() - start}


def report_warm_op(fx: Report) -> OpResult:
    """One report answered entirely from the filled cache."""
    return _generate(fx, fx.cache, REPORT_JOBS)


def report_reference(fx: Report, first: OpResult) -> Optional[str]:
    """Serial re-runs of a few seed-chosen trials must match the pool.

    A report has no cheaper independent oracle than itself, so a seed
    without a committed digest is checked on a sample: the chosen trials
    run inline (``jobs=1``, no cache) and their schedule digests must
    equal the ones the first operation rendered.  Returns that
    operation's digest when they do, None when they do not.
    """
    specs = [
        spec
        for _, section in reportgen.report_sections(fx.scale, seed=fx.seed)
        for spec in section
    ]
    picked = sorted(
        random.Random(fx.seed).sample(range(len(specs)), REPORT_SPOT_CHECKS)
    )
    serial = run_trials([specs[i] for i in picked], jobs=1).digests()
    if serial != [first.parts[i] for i in picked]:
        return None
    return first.digest


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "soak64",
            soak64_setup,
            soak64_op,
            soak64_reference,
        ),
        Workload(
            "bugsweep",
            bugsweep_setup,
            bugsweep_op,
            bugsweep_reference,
        ),
        Workload(
            "report_cold",
            report_setup,
            report_cold_op,
            report_reference,
        ),
        Workload(
            "report_warm",
            report_setup,
            report_warm_op,
            report_reference,
            report_warm_prepare,
        ),
    )
}
