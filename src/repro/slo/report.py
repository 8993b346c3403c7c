"""SLO metrics, thresholds, and pass/fail reporting.

A scenario's service level is judged on four numbers, all tail-focused
(the paper's bugs are invisible to averages):

* wakeup-to-run latency percentiles (p50 / p99 / p99.9) from the obs
  layer's log-bucketed histogram -- estimates are within the documented
  2x bound (see :class:`repro.obs.metrics.Histogram`);
* scheduling *jitter*: the exact standard deviation of per-task gaps
  between consecutive switch-ins (the histogram keeps a running sum of
  squares, so this is not bucket-approximated);
* deadline-miss rate: the fraction of wakeups whose latency exceeded the
  scenario's latency deadline (exact when the deadline is ``2**k - 1``);
* idle-while-overloaded density: the fraction of sampled ticks that
  violated the work-conservation invariant, straight from
  :class:`repro.stats.metrics.IdleOverloadSampler`.

Thresholds are declarative and live in the scenario spec, *outside* the
orchestrator's :class:`~repro.perf.orchestrator.TrialSpec` identity, so
cached trial metrics survive threshold edits: verdicts are recomputed
parent-side on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.recorder import MetricsRecorder

#: (threshold attribute, metric attribute, short label) per SLO check.
_CHECKS: Tuple[Tuple[str, str, str], ...] = (
    ("max_p50_us", "wakeup_p50_us", "p50"),
    ("max_p99_us", "wakeup_p99_us", "p99"),
    ("max_p999_us", "wakeup_p999_us", "p99.9"),
    ("max_jitter_us", "jitter_us", "jitter"),
    ("max_miss_rate", "deadline_miss_rate", "miss-rate"),
    ("max_idle_overload", "idle_overload_fraction", "idle-overload"),
)


@dataclass(frozen=True)
class SLOThresholds:
    """Declarative upper bounds; ``None`` means "not part of this SLO"."""

    max_p50_us: Optional[float] = None
    max_p99_us: Optional[float] = None
    max_p999_us: Optional[float] = None
    max_jitter_us: Optional[float] = None
    max_miss_rate: Optional[float] = None
    max_idle_overload: Optional[float] = None

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "SLOThresholds":
        known = {f for f, _, _ in _CHECKS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SLO threshold(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        values: Dict[str, float] = {}
        for key, value in data.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"SLO threshold {key} must be a number")
            values[key] = float(value)
        return cls(**values)

    def to_json(self) -> Dict[str, float]:
        return {
            name: getattr(self, name)
            for name, _, _ in _CHECKS
            if getattr(self, name) is not None
        }


@dataclass(frozen=True)
class SLOMetrics:
    """The measured service level of one trial (or a worst-case fold)."""

    wakeup_p50_us: float
    wakeup_p99_us: float
    wakeup_p999_us: float
    jitter_us: float
    deadline_miss_rate: float
    idle_overload_fraction: float
    samples: int

    def to_json(self) -> Dict[str, object]:
        return {
            "wakeup_p50_us": self.wakeup_p50_us,
            "wakeup_p99_us": self.wakeup_p99_us,
            "wakeup_p999_us": self.wakeup_p999_us,
            "jitter_us": round(self.jitter_us, 3),
            "deadline_miss_rate": round(self.deadline_miss_rate, 6),
            "idle_overload_fraction": round(self.idle_overload_fraction, 6),
            "samples": self.samples,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "SLOMetrics":
        """Rebuild from a trial-result row (the cache round-trip)."""
        return cls(
            wakeup_p50_us=float(row["wakeup_p50_us"]),  # type: ignore[arg-type]
            wakeup_p99_us=float(row["wakeup_p99_us"]),  # type: ignore[arg-type]
            wakeup_p999_us=float(row["wakeup_p999_us"]),  # type: ignore[arg-type]
            jitter_us=float(row["jitter_us"]),  # type: ignore[arg-type]
            deadline_miss_rate=float(row["deadline_miss_rate"]),  # type: ignore[arg-type]
            idle_overload_fraction=float(row["idle_overload_fraction"]),  # type: ignore[arg-type]
            samples=int(row["samples"]),  # type: ignore[arg-type]
        )

    @classmethod
    def worst_of(cls, metrics: Sequence["SLOMetrics"]) -> "SLOMetrics":
        """Pointwise worst case over seeds: the SLO judges the worst run."""
        if not metrics:
            raise ValueError("worst_of needs at least one metrics sample")
        return cls(
            wakeup_p50_us=max(m.wakeup_p50_us for m in metrics),
            wakeup_p99_us=max(m.wakeup_p99_us for m in metrics),
            wakeup_p999_us=max(m.wakeup_p999_us for m in metrics),
            jitter_us=max(m.jitter_us for m in metrics),
            deadline_miss_rate=max(m.deadline_miss_rate for m in metrics),
            idle_overload_fraction=max(
                m.idle_overload_fraction for m in metrics
            ),
            samples=sum(m.samples for m in metrics),
        )


def collect_slo_metrics(
    recorder: MetricsRecorder,
    idle_overload_fraction: float,
    latency_deadline_us: int,
) -> SLOMetrics:
    """Fold a finished run's recorder into one :class:`SLOMetrics`.

    The idle-overload density comes in as a plain float: it is the
    sampler's own ``violation_fraction``, a share of every sampled tick,
    while the recorder only counts the violating ones.
    """
    latency = recorder.wakeup_latency
    return SLOMetrics(
        wakeup_p50_us=latency.percentile(50),
        wakeup_p99_us=latency.percentile(99),
        wakeup_p999_us=latency.percentile(99.9),
        jitter_us=recorder.jitter_us(),
        deadline_miss_rate=latency.fraction_above(latency_deadline_us),
        idle_overload_fraction=idle_overload_fraction,
        samples=latency.count(),
    )


@dataclass(frozen=True)
class SLOVerdict:
    """The outcome of judging one metrics set against one threshold set."""

    passed: bool
    #: ``"p99 4096us > 2000us"``-style description per violated bound.
    failures: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {"passed": self.passed, "failures": list(self.failures)}


def evaluate(metrics: SLOMetrics, thresholds: SLOThresholds) -> SLOVerdict:
    """Judge measured metrics against declarative bounds."""
    failures: List[str] = []
    for bound_name, metric_name, label in _CHECKS:
        bound = getattr(thresholds, bound_name)
        if bound is None:
            continue
        value = getattr(metrics, metric_name)
        if value > bound:
            failures.append(f"{label} {value:g} > {bound:g}")
    return SLOVerdict(passed=not failures, failures=tuple(failures))


@dataclass
class ScenarioReport:
    """One scenario variant's measured trials and their verdict."""

    scenario: str
    variant: str
    thresholds: SLOThresholds
    #: Per-seed metrics, in seed order.
    per_seed: List[Tuple[int, SLOMetrics]] = field(default_factory=list)
    schedule_digests: List[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.variant}"

    @property
    def worst(self) -> SLOMetrics:
        return SLOMetrics.worst_of([m for _, m in self.per_seed])

    @property
    def verdict(self) -> SLOVerdict:
        return evaluate(self.worst, self.thresholds)

    def to_json(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "variant": self.variant,
            "thresholds": self.thresholds.to_json(),
            "seeds": {
                str(seed): metrics.to_json()
                for seed, metrics in self.per_seed
            },
            "worst": self.worst.to_json(),
            "verdict": self.verdict.to_json(),
            "schedule_digests": list(self.schedule_digests),
        }


@dataclass
class SLOReport:
    """Every scenario variant's report, in registry order."""

    scenarios: List[ScenarioReport] = field(default_factory=list)

    def verdicts(self) -> Dict[str, bool]:
        """``scenario/variant -> passed`` (the baseline-file payload)."""
        return {r.key: r.verdict.passed for r in self.scenarios}

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "scenarios": [r.to_json() for r in self.scenarios],
            "verdicts": self.verdicts(),
        }

    def render(self) -> str:
        """An aligned text table, one row per scenario variant."""
        header = (
            "scenario", "variant", "p50(us)", "p99(us)", "p99.9(us)",
            "jitter(us)", "miss-rate", "idle-ovl", "verdict",
        )
        rows: List[Tuple[str, ...]] = [header]
        for report in self.scenarios:
            worst = report.worst
            verdict = report.verdict
            rows.append((
                report.scenario,
                report.variant,
                f"{worst.wakeup_p50_us:.0f}",
                f"{worst.wakeup_p99_us:.0f}",
                f"{worst.wakeup_p999_us:.0f}",
                f"{worst.jitter_us:.0f}",
                f"{worst.deadline_miss_rate:.2%}",
                f"{worst.idle_overload_fraction:.2%}",
                "PASS" if verdict.passed else "FAIL",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in rows
        ]
        for report in self.scenarios:
            for failure in report.verdict.failures:
                lines.append(f"  FAIL {report.key}: {failure}")
        return "\n".join(lines)
