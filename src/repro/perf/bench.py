"""The macro-benchmarks behind ``repro bench``.

Three workloads cover the simulator's hot paths from different angles:

* ``table4`` -- the end-to-end bug sweep: all four paper bugs, buggy and
  fixed variants, sanity checker attached.  Dominated by the periodic
  balancing and sanity-checking paths.
* ``figure2`` -- the steady-state make+R workload of the Group Imbalance
  study, run long.  Dominated by load tracking and tick accounting.
* ``soak64`` -- a 64-core machine with a mixed hog/sleeper population.
  Dominated by event dispatch (the sleepers' wake timers), periodic
  balancing, tick accounting and wakeup placement, in that order (about
  29/19/18/16% of traced time in ``benchmarks/e2e``'s soak64); the NOHZ
  sweep takes under 1%, and newidle balancing about 1% once the overload
  gate skips walks that cannot move a task.

Every benchmark is seeded and runs a fixed simulated horizon, so all
measurement variants execute the *same schedule*; only wall-clock
differs.  Two variants are registered (:data:`VARIANTS`): ``baseline``,
the reference path (``with_fastpath(False)``), and ``fast``, the fast
path with its persistent balance mirror.  A short traced
companion run produces a SHA-256 digest of the schedule (integer/string
event fields only, so the digest is stable across float formatting
differences) which must be identical across every variant
(``repro bench --check-digests``).

A second, instrumented companion run folds each benchmark's
representative scenario into SLO fields (wakeup-latency p50/p95/p99 and
scheduling jitter), so ``BENCH_*.json`` trajectories double as an SLO
dashboard (see :mod:`repro.slo`): the companion is seeded and separate
from the wall-clock run, so observation cost never perturbs the
measurement.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.scenarios import BUG_NAMES, build_bug_scenario
from repro.obs.recorder import MetricsRecorder
from repro.obs.session import ObsSession
from repro.obs.tracepoints import TracepointRegistry
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS, SEC
from repro.topology import amd_bulldozer_64
from repro.viz.events import TraceBuffer, TraceProbe
from repro.workloads.base import Program, Run, Sleep, TaskSpec


@dataclass
class ModeMetrics:
    """What one benchmark run in one mode measured."""

    wall_seconds: float
    sim_us: int
    events_fired: int
    balance_calls: int
    migrations: int
    heap_compactions: int

    @property
    def events_per_sec(self) -> float:
        return self.events_fired / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def balance_calls_per_sec(self) -> float:
        return (
            self.balance_calls / self.wall_seconds if self.wall_seconds else 0.0
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "wall_seconds": round(self.wall_seconds, 4),
            "sim_us": self.sim_us,
            "events_fired": self.events_fired,
            "balance_calls": self.balance_calls,
            "migrations": self.migrations,
            "heap_compactions": self.heap_compactions,
            "events_per_sec": round(self.events_per_sec, 1),
            "balance_calls_per_sec": round(self.balance_calls_per_sec, 1),
        }


@dataclass
class BenchResult:
    """One benchmark's outcome across the measured modes."""

    name: str
    quick: bool
    fast: ModeMetrics
    baseline: Optional[ModeMetrics]
    digest: str
    #: True/False once both modes' digests were computed, None otherwise.
    digest_match: Optional[bool]
    #: Wakeup-latency percentiles + jitter from the instrumented
    #: companion run (None for benchmarks without one).
    slo: Optional[Dict[str, object]] = None
    #: The variant the primary (``fast`` attribute) mode measured.
    variant: str = "fast"
    #: Per-variant schedule digests when the cross-variant check ran.
    digests: Optional[Dict[str, str]] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline is None or self.fast.wall_seconds == 0:
            return None
        return self.baseline.wall_seconds / self.fast.wall_seconds

    def to_json(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "name": self.name,
            "quick": self.quick,
            "variant": self.variant,
            "fast": self.fast.to_json(),
            "baseline": (
                self.baseline.to_json() if self.baseline is not None else None
            ),
            "digest": self.digest,
            "digest_match": self.digest_match,
            "digests": self.digests,
        }
        speedup = self.speedup
        obj["speedup"] = round(speedup, 2) if speedup is not None else None
        obj["slo"] = self.slo
        return obj


#: Feature transforms of the measured variants, in trajectory order.
VARIANTS: Dict[str, Callable[[SchedFeatures], SchedFeatures]] = {
    "baseline": lambda f: f.with_fastpath(False),
    "fast": lambda f: f.with_fastpath(True),
}


def _variant_transform(variant: str) -> Callable[[SchedFeatures], SchedFeatures]:
    try:
        return VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown bench variant {variant!r} (known: {', '.join(VARIANTS)})"
        ) from None


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


@dataclass
class _Totals:
    wall_seconds: float = 0.0
    sim_us: int = 0
    events_fired: int = 0
    balance_calls: int = 0
    migrations: int = 0
    heap_compactions: int = 0

    def fold(self, system: System) -> None:
        self.sim_us += system.now
        self.events_fired += system.loop.events_fired
        self.balance_calls += system.scheduler.balance_calls
        self.migrations += system.scheduler.total_migrations
        self.heap_compactions += system.loop.compactions


def _run_table4(variant: str, quick: bool, jobs: int = 1) -> _Totals:
    duration = 250 * MS if quick else 1 * SEC
    totals = _Totals()
    start = time.perf_counter()
    for bug in BUG_NAMES:
        for bug_mode in ("buggy", "fixed"):
            scenario = build_bug_scenario(
                bug,
                bug_mode,
                features_transform=_variant_transform(variant),
            )
            scenario.run(duration)
            totals.fold(scenario.system)
    totals.wall_seconds = time.perf_counter() - start
    return totals


def _run_figure2(variant: str, quick: bool, jobs: int = 1) -> _Totals:
    duration = 400 * MS if quick else 2 * SEC
    totals = _Totals()
    start = time.perf_counter()
    scenario = build_bug_scenario(
        "group-imbalance",
        "buggy",
        features_transform=_variant_transform(variant),
    )
    scenario.run(duration)
    totals.fold(scenario.system)
    totals.wall_seconds = time.perf_counter() - start
    return totals


def _build_soak64(variant: str) -> System:
    features = _variant_transform(variant)(SchedFeatures())
    system = System(amd_bulldozer_64(), features, seed=7)
    # 48 pinned-nowhere hogs forked from scattered parents plus 32
    # sleepers: sustained balancing with constant timer churn (sleepers
    # are what populate the event heap with cancellable wakeups).
    for i in range(48):
        system.spawn(_hog(f"hog{i}"), parent_cpu=(i * 7) % 64)
    for i in range(32):
        system.spawn(_sleeper(f"sleep{i}"), parent_cpu=(i * 5) % 64)
    return system


def _run_soak64(variant: str, quick: bool, jobs: int = 1) -> _Totals:
    duration = 1 * SEC if quick else 10 * SEC
    totals = _Totals()
    start = time.perf_counter()
    system = _build_soak64(variant)
    system.run_for(duration)
    totals.fold(system)
    totals.wall_seconds = time.perf_counter() - start
    return totals


def _digest_records(buffer: TraceBuffer) -> str:
    """SHA-256 over the integer/string fields of every trace record.

    Floats (load samples) are excluded so the digest survives float
    formatting and libm differences between hosts; everything ordering-
    or schedule-related (timestamps, tids, cpus, event kinds) is hashed.
    """
    hasher = hashlib.sha256()
    for record in buffer:
        parts: List[str] = [type(record).__name__]
        for name, value in sorted(vars(record).items()):
            if isinstance(value, float):
                continue
            if isinstance(value, frozenset):
                value = tuple(sorted(value))
            parts.append(f"{name}={value!r}")
        hasher.update("|".join(parts).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _digest_table4(variant: str, jobs: int = 1) -> str:
    parts: List[str] = []
    for bug in BUG_NAMES:
        buffer = TraceBuffer()
        probe = TraceProbe(buffer=buffer, record_load=False)
        scenario = build_bug_scenario(
            bug,
            "buggy",
            seed=1234,
            instrument=lambda s: s.attach_probe(probe),
            features_transform=_variant_transform(variant),
        )
        scenario.run(50 * MS)
        parts.append(_digest_records(buffer))
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def _digest_figure2(variant: str, jobs: int = 1) -> str:
    buffer = TraceBuffer()
    probe = TraceProbe(buffer=buffer, record_load=False)
    scenario = build_bug_scenario(
        "group-imbalance",
        "fixed",
        seed=99,
        instrument=lambda s: s.attach_probe(probe),
        features_transform=_variant_transform(variant),
    )
    scenario.run(100 * MS)
    return _digest_records(buffer)


def _digest_soak64(variant: str, jobs: int = 1) -> str:
    buffer = TraceBuffer()
    probe = TraceProbe(buffer=buffer, record_load=False)
    system = _build_soak64(variant)
    system.attach_probe(probe)
    system.run_for(50 * MS)
    return _digest_records(buffer)


def _slo_fields(recorder: MetricsRecorder) -> Dict[str, object]:
    """Fold one instrumented run into the trajectory's SLO columns."""
    latency = recorder.wakeup_latency
    return {
        "wakeup_p50_us": latency.percentile(50),
        "wakeup_p95_us": latency.percentile(95),
        "wakeup_p99_us": latency.percentile(99),
        "jitter_us": round(recorder.jitter_us(), 3),
        "samples": latency.count(),
    }


def _slo_bug(bug: str, duration_us: int) -> Dict[str, object]:
    """SLO companion for the bug-scenario benchmarks (buggy variant).

    The session rides a private tracepoint registry so a bench run never
    pollutes (or races with) the process-global bus; the buggy variant is
    measured because that's the tail the trajectory should track.
    """
    holder: Dict[str, ObsSession] = {}

    def instrument(system: System) -> None:
        holder["obs"] = ObsSession.attach_to(
            system, trace=False, registry=TracepointRegistry()
        )

    scenario = build_bug_scenario(
        bug, "buggy", seed=1234, instrument=instrument
    )
    scenario.run(duration_us)
    obs = holder["obs"]
    obs.close()
    return _slo_fields(obs.recorder)


def _slo_soak64() -> Dict[str, object]:
    system = _build_soak64("fast")
    obs = ObsSession.attach_to(
        system, trace=False, registry=TracepointRegistry()
    )
    system.run_for(50 * MS)
    obs.close()
    return _slo_fields(obs.recorder)


def _report_jobs(parallel: bool, jobs: int) -> int:
    """The worker count for one ``report_wall`` mode.

    Every non-baseline variant is the sharded orchestrator run (``jobs``,
    or one worker per core when unspecified); the "baseline" mode is the
    historical serial evaluation.  The speedup column therefore reads as
    the orchestrator's parallel efficiency, and ``digest_match`` proves
    the parallel run scheduled byte-for-byte what the serial run did.
    """
    from repro.perf.orchestrator import resolve_jobs

    return resolve_jobs(jobs if jobs > 1 else 0) if parallel else 1


def _run_report(variant: str, quick: bool, jobs: int = 1) -> _Totals:
    from repro.experiments.reportgen import QUICK_SCALE, generate_report

    scale = QUICK_SCALE if quick else 0.1
    totals = _Totals()
    start = time.perf_counter()
    result = generate_report(
        scale=scale, jobs=_report_jobs(variant != "baseline", jobs), cache=None
    )
    totals.wall_seconds = time.perf_counter() - start
    totals.sim_us = result.counters.get("sim_us", 0)
    totals.events_fired = result.counters.get("events_fired", 0)
    totals.balance_calls = result.counters.get("balance_calls", 0)
    totals.migrations = result.counters.get("migrations", 0)
    return totals


def _digest_report(variant: str, jobs: int = 1) -> str:
    from repro.experiments.reportgen import QUICK_SCALE, generate_report

    result = generate_report(
        scale=QUICK_SCALE, jobs=_report_jobs(variant != "baseline", jobs), cache=None
    )
    return hashlib.sha256("".join(result.digests).encode()).hexdigest()


@dataclass(frozen=True)
class BenchSpec:
    """One registered macro-benchmark.

    ``run`` and ``digest`` take (variant, quick[, jobs]) -- the ``jobs``
    knob only matters to ``report_wall``, where every non-baseline
    variant selects the sharded orchestrator run and "baseline" the
    serial one.
    """

    name: str
    description: str
    run: Callable[[str, bool, int], _Totals] = field(repr=False)
    digest: Callable[[str, int], str] = field(repr=False)
    #: Optional instrumented companion producing wakeup-latency
    #: percentiles and jitter for the trajectory's SLO columns.
    slo: Optional[Callable[[], Dict[str, object]]] = field(
        default=None, repr=False
    )


def _slo_table4() -> Dict[str, object]:
    return _slo_bug("overload-on-wakeup", 100 * MS)


def _slo_figure2() -> Dict[str, object]:
    return _slo_bug("group-imbalance", 100 * MS)


BENCHMARKS: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            "table4",
            "all four paper bugs, buggy+fixed, checker attached (1s each)",
            _run_table4,
            _digest_table4,
            _slo_table4,
        ),
        BenchSpec(
            "figure2",
            "steady-state make+R group-imbalance workload (2s)",
            _run_figure2,
            _digest_figure2,
            _slo_figure2,
        ),
        BenchSpec(
            "soak64",
            "64-core mixed hog/sleeper soak (10s)",
            _run_soak64,
            _digest_soak64,
            _slo_soak64,
        ),
        BenchSpec(
            "report_wall",
            "full report evaluation, sharded orchestrator vs serial",
            _run_report,
            _digest_report,
        ),
    )
}


def benchmark_names() -> List[str]:
    return list(BENCHMARKS)


def _metrics_of(totals: _Totals) -> ModeMetrics:
    return ModeMetrics(
        wall_seconds=totals.wall_seconds,
        sim_us=totals.sim_us,
        events_fired=totals.events_fired,
        balance_calls=totals.balance_calls,
        migrations=totals.migrations,
        heap_compactions=totals.heap_compactions,
    )


def run_benchmark(
    name: str,
    quick: bool = False,
    compare: bool = False,
    jobs: int = 1,
    variant: str = "fast",
    check_digests: bool = False,
) -> BenchResult:
    """Run one benchmark in ``variant`` mode (the ``fast`` metrics slot).

    With ``compare`` the baseline mode is also measured and its digest
    checked against the primary variant's.  With ``check_digests`` the
    digest is recomputed for *every* registered variant (baseline and
    fast) and ``digest_match`` asserts they are all equal
    -- the determinism contract of the optimization layers.
    """
    spec = BENCHMARKS[name]
    _variant_transform(variant)  # reject unknown variants before running
    fast = _metrics_of(spec.run(variant, quick, jobs))
    digest = spec.digest(variant, jobs)
    baseline: Optional[ModeMetrics] = None
    digest_match: Optional[bool] = None
    digests: Optional[Dict[str, str]] = None
    if compare:
        baseline = _metrics_of(spec.run("baseline", quick, jobs))
        digest_match = spec.digest("baseline", jobs) == digest
    if check_digests:
        digests = {
            v: (digest if v == variant else spec.digest(v, jobs))
            for v in VARIANTS
        }
        all_match = len(set(digests.values())) == 1
        digest_match = (
            all_match if digest_match is None else digest_match and all_match
        )
    slo = spec.slo() if spec.slo is not None else None
    return BenchResult(
        name=name,
        quick=quick,
        fast=fast,
        baseline=baseline,
        digest=digest,
        digest_match=digest_match,
        slo=slo,
        variant=variant,
        digests=digests,
    )
