"""The declarative scenario registry: TOML specs compiled to trial lists.

A scenario file describes one SLO scenario as data::

    [scenario]
    name = "overload-on-wakeup"
    title = "Overload-on-Wakeup tail latency"
    trial = "repro.slo.trial:bug_slo_trial"
    variants = ["buggy", "fixed"]
    seeds = [42, 1051]
    duration_ms = 1000
    features = []

    [scenario.params]
    bug = "overload-on-wakeup"
    latency_deadline_us = "1023"

    [slo]
    max_p99_us = 2047
    max_idle_overload = 0.02

Mix scenarios add ``topology`` and ``[[scenario.workload]]`` tables
(``spec``/``count``/``stride`` plus factory params); the compiler folds
them into the ``mix`` spec param (:func:`repro.slo.trial.encode_mix`).

:func:`compile_specs` expands one scenario into its variant x seed grid
of orchestrator :class:`~repro.perf.orchestrator.TrialSpec`s;
:func:`run_registry` runs any number of scenarios through the pooled
orchestrator (one ``run_trials`` call, so trials from different
scenarios shard across workers together) and folds the outcomes into an
:class:`~repro.slo.report.SLOReport`.  SLO thresholds deliberately stay
out of the compiled specs: they are judged parent-side, so cached trial
metrics survive threshold edits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.perf.orchestrator import (
    OrchestratorRun,
    ResultCache,
    TrialSpec,
    resolve_kind,
    run_trials,
)
from repro.slo._toml import TOMLError, load_toml
from repro.slo.report import (
    ScenarioReport,
    SLOMetrics,
    SLOReport,
    SLOThresholds,
)
from repro.slo.trial import TOPOLOGIES, MixEntry, encode_mix

PathLike = Union[str, Path]

#: Variants a bug-scenario file may request.
_BUG_VARIANTS = ("buggy", "fixed")

#: Every key ``[scenario]`` may hold; any other is a typo and rejected.
_SCENARIO_KEYS = frozenset({
    "name", "title", "trial", "variants", "seeds", "duration_ms", "scale",
    "features", "params", "workload", "topology",
})


@dataclass(frozen=True)
class WorkloadEntry:
    """One ``[[scenario.workload]]`` table: a task population."""

    spec: str
    count: int
    stride: int = 1
    params: Tuple[Tuple[str, str], ...] = ()

    def as_mix_entry(self) -> MixEntry:
        return (self.spec, self.count, self.stride, self.params)


@dataclass(frozen=True)
class ScenarioSpec:
    """One parsed scenario file."""

    name: str
    title: str
    trial: str
    variants: Tuple[str, ...]
    seeds: Tuple[int, ...]
    duration_ms: int
    scale: float
    features: Tuple[str, ...]
    params: Tuple[Tuple[str, str], ...]
    workloads: Tuple[WorkloadEntry, ...]
    topology: Optional[str]
    thresholds: SLOThresholds
    source: str = ""


def _require(table: Mapping[str, object], key: str, source: str) -> object:
    if key not in table:
        raise ValueError(f"{source}: [scenario] is missing {key!r}")
    return table[key]


def _str_list(value: object, what: str, source: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise ValueError(f"{source}: {what} must be a list of strings")
    return tuple(value)


def _int_list(value: object, what: str, source: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{source}: {what} must be a list of integers")
    return tuple(value)


def _parse_workloads(
    value: object, source: str
) -> Tuple[WorkloadEntry, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{source}: scenario.workload must be a table array")
    entries: List[WorkloadEntry] = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ValueError(f"{source}: workload[{i}] must be a table")
        if "spec" not in item or "count" not in item:
            raise ValueError(
                f"{source}: workload[{i}] needs 'spec' and 'count'"
            )
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"{source}: workload[{i}].params must be a table")
        entries.append(
            WorkloadEntry(
                spec=str(item["spec"]),
                count=int(item["count"]),  # type: ignore[call-overload]
                stride=int(item.get("stride", 1)),  # type: ignore[call-overload]
                params=tuple(
                    sorted((str(k), str(v)) for k, v in params.items())
                ),
            )
        )
    return tuple(entries)


def load_scenario(path: PathLike) -> ScenarioSpec:
    """Parse and validate one scenario TOML file.

    Besides the structure, every reference must resolve: the ``trial``
    kind and each workload ``spec`` import as ``module:function``, and
    ``topology`` names a :data:`~repro.slo.trial.TOPOLOGIES` preset.
    """
    source = str(path)
    try:
        doc = load_toml(path)
    except TOMLError as exc:
        raise ValueError(f"{source}: {exc}") from None
    table = doc.get("scenario")
    if not isinstance(table, dict):
        raise ValueError(f"{source}: missing [scenario] table")
    for key in table:
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{source}: [scenario] has unknown key {key!r}")

    name = str(_require(table, "name", source))
    trial = str(_require(table, "trial", source))
    workloads = _parse_workloads(table.get("workload", []), source)
    refs = [("trial", trial)] + [("workload spec", w.spec) for w in workloads]
    for what, ref in refs:
        try:
            resolve_kind(ref)
        except (ImportError, ValueError) as exc:
            raise ValueError(
                f"{source}: {what} {ref!r} does not resolve: {exc}"
            ) from None
    topology = table.get("topology")
    if topology is not None and not isinstance(topology, str):
        raise ValueError(f"{source}: topology must be a string")
    if topology is not None and topology not in TOPOLOGIES:
        raise ValueError(f"{source}: unknown topology {topology!r}")
    default_variants = (
        _BUG_VARIANTS if not workloads else ("base",)
    )
    variants = _str_list(
        table.get("variants", list(default_variants)), "variants", source
    )
    if not variants:
        raise ValueError(f"{source}: variants must not be empty")
    seeds = _int_list(table.get("seeds", [42]), "seeds", source)
    if not seeds:
        raise ValueError(f"{source}: seeds must not be empty")
    params_table = table.get("params", {})
    if not isinstance(params_table, dict):
        raise ValueError(f"{source}: scenario.params must be a table")
    slo_table = doc.get("slo", {})
    if not isinstance(slo_table, dict):
        raise ValueError(f"{source}: [slo] must be a table")
    try:
        thresholds = SLOThresholds.from_mapping(slo_table)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None

    return ScenarioSpec(
        name=name,
        title=str(table.get("title", name)),
        trial=trial,
        variants=variants,
        seeds=seeds,
        duration_ms=int(table.get("duration_ms", 1000)),  # type: ignore[call-overload]
        scale=float(table.get("scale", 1.0)),  # type: ignore[arg-type]
        features=_str_list(table.get("features", []), "features", source),
        params=tuple(
            sorted((str(k), str(v)) for k, v in params_table.items())
        ),
        workloads=workloads,
        topology=topology,
        thresholds=thresholds,
        source=source,
    )


def shipped_scenario_paths() -> List[Path]:
    """The scenario files shipped with the package, sorted by name."""
    root = Path(__file__).resolve().parent / "scenarios"
    return sorted(root.glob("*.toml"))


def load_registry(
    paths: Optional[Sequence[PathLike]] = None,
) -> List[ScenarioSpec]:
    """Load scenario files (shipped registry by default).

    Directories are expanded to their ``*.toml`` files; scenarios come
    back sorted by name, and duplicate names are rejected.
    """
    files: List[Path] = []
    if paths is None:
        files = shipped_scenario_paths()
    else:
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                files.extend(sorted(p.glob("*.toml")))
            else:
                files.append(p)
    scenarios = sorted(
        (load_scenario(p) for p in files), key=lambda s: s.name
    )
    seen: Dict[str, str] = {}
    for scenario in scenarios:
        if scenario.name in seen:
            raise ValueError(
                f"duplicate scenario name {scenario.name!r} "
                f"({seen[scenario.name]} and {scenario.source})"
            )
        seen[scenario.name] = scenario.source
    return scenarios


def compile_specs(
    scenario: ScenarioSpec,
    scale: float = 1.0,
    record: bool = False,
) -> List[TrialSpec]:
    """Expand one scenario into its variant x seed grid of trial specs.

    ``scale`` multiplies the scenario's own scale (the CLI's quick knob).
    ``record`` adds the replay layer's recording param and opts the spec
    out of the result cache (recordings ride back as artifacts, which
    are never cached).
    """
    base_params: Dict[str, str] = dict(scenario.params)
    base_params.setdefault("duration_ms", str(scenario.duration_ms))
    if scenario.topology is not None:
        base_params["topology"] = scenario.topology
    if scenario.workloads:
        base_params["mix"] = encode_mix(
            [w.as_mix_entry() for w in scenario.workloads]
        )
    if record:
        base_params["record"] = "1"
    specs: List[TrialSpec] = []
    for variant in scenario.variants:
        params = dict(base_params)
        if variant != "base":
            params["variant"] = variant
        for seed in scenario.seeds:
            specs.append(
                TrialSpec(
                    kind=scenario.trial,
                    scenario=scenario.name,
                    seed=seed,
                    features=scenario.features,
                    scale=scenario.scale * scale,
                    params=tuple(sorted(params.items())),
                    cache=not record,
                )
            )
    return specs


def spec_variant(spec: TrialSpec) -> str:
    """The scenario variant a compiled spec belongs to."""
    variant = spec.param("variant", "base")
    assert variant is not None
    return variant


def run_registry(
    scenarios: Sequence[ScenarioSpec],
    scale: float = 1.0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[..., Any]] = None,
) -> Tuple[SLOReport, OrchestratorRun]:
    """Run every scenario's trials through the pooled orchestrator.

    All scenarios compile into one flat spec list (one pool, maximal
    sharding); outcomes fold back into per-(scenario, variant) reports
    in registry order.
    """
    specs: List[TrialSpec] = []
    bounds: List[Tuple[ScenarioSpec, int]] = []
    for scenario in scenarios:
        compiled = compile_specs(scenario, scale=scale)
        bounds.append((scenario, len(compiled)))
        specs.extend(compiled)
    run = run_trials(specs, jobs=jobs, cache=cache, progress=progress)

    report = SLOReport()
    cursor = 0
    for scenario, width in bounds:
        outcomes = run.outcomes[cursor:cursor + width]
        cursor += width
        by_variant: Dict[str, ScenarioReport] = {}
        for variant in scenario.variants:
            by_variant[variant] = ScenarioReport(
                scenario=scenario.name,
                variant=variant,
                thresholds=scenario.thresholds,
            )
        for outcome in outcomes:
            variant = spec_variant(outcome.spec)
            entry = by_variant[variant]
            entry.per_seed.append(
                (
                    outcome.spec.seed,
                    SLOMetrics.from_row(outcome.result.row),
                )
            )
            entry.schedule_digests.append(outcome.result.schedule_digest)
        report.scenarios.extend(
            by_variant[variant] for variant in scenario.variants
        )
    return report, run


def find_scenarios(
    scenarios: Sequence[ScenarioSpec], names: Sequence[str]
) -> List[ScenarioSpec]:
    """Select scenarios by name, preserving registry order."""
    known = {s.name for s in scenarios}
    missing = [n for n in names if n not in known]
    if missing:
        raise ValueError(
            f"unknown scenario(s): {', '.join(missing)} "
            f"(registry has: {', '.join(sorted(known))})"
        )
    wanted = set(names)
    return [s for s in scenarios if s.name in wanted]


def record_spec(spec: TrialSpec) -> TrialSpec:
    """A copy of a compiled spec with recording on (and caching off)."""
    params = dict(spec.params)
    params["record"] = "1"
    return replace(
        spec, params=tuple(sorted(params.items())), cache=False
    )
