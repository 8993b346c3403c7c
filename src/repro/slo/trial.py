"""Orchestrator trial functions behind the SLO scenario registry.

Two trial kinds cover the registry's needs:

* :func:`bug_slo_trial` re-runs one of the paper's minimal bug scenarios
  (:func:`repro.experiments.scenarios.build_bug_scenario`) with an
  observability session attached and folds the run into SLO metrics.
* :func:`mix_slo_trial` builds a machine from a named topology preset,
  spawns a declarative workload mix (``module:function`` task-spec
  factories such as :func:`hog` and :func:`sleeper`), and measures the
  same metrics -- scenarios that are pure data, no Python.

Both run inside pool workers, so everything is rebuilt from the picklable
:class:`~repro.perf.orchestrator.TrialSpec`; nothing at module level is
mutable (the ``orchestrator-fork-safety`` lint rule now covers
``repro.slo``).  With the ``record`` param set, the scheduler event
stream rides back as the result's artifact for the replay layer -- such
specs must opt out of the result cache.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.harness import schedule_digest, system_stats
from repro.experiments.scenarios import build_bug_scenario
from repro.obs.session import ObsSession
from repro.perf.orchestrator import TrialResult, TrialSpec, build_features
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.slo.report import collect_slo_metrics
from repro.stats.metrics import IdleOverloadSampler
from repro.topology import amd_bulldozer_64, flat_smp, single_node, two_nodes
from repro.topology.presets import ring_numa
from repro.topology.machine import MachineTopology
from repro.viz.events import TraceBuffer, TraceProbe
from repro.workloads.base import Program, Run, Sleep, TaskSpec

#: Orchestrator references to this module's trial functions.
BUG_TRIAL_KIND = "repro.slo.trial:bug_slo_trial"
MIX_TRIAL_KIND = "repro.slo.trial:mix_slo_trial"

#: Default latency deadline (us) when a scenario does not declare one;
#: ``2**k - 1`` so the log-bucket miss-rate is exact (see Histogram docs).
DEFAULT_LATENCY_DEADLINE_US = 1023

#: Registry-addressable topology presets (read-only).
TOPOLOGIES: Dict[str, Callable[[], MachineTopology]] = {
    "amd_bulldozer_64": amd_bulldozer_64,
    "two_nodes_4": lambda: two_nodes(cores_per_node=4),
    "two_nodes_8": lambda: two_nodes(cores_per_node=8),
    "single_node_4": lambda: single_node(cores=4),
    "flat_smp_8": lambda: flat_smp(cores=8),
    "ring_numa_4x2": lambda: ring_numa(nodes=4, cores_per_node=2),
}


def topology_factory(name: str) -> Callable[[], MachineTopology]:
    """Resolve a registry topology name to its preset factory."""
    try:
        return TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; expected one of "
            f"{', '.join(sorted(TOPOLOGIES))}"
        ) from None


# -- workload factories (referenced from TOML as module:function) ------------


def hog(name: str, params: Mapping[str, str]) -> TaskSpec:
    """An always-runnable CPU hog; ``run_ms`` sets the burst length."""
    run_us = int(params.get("run_ms", "5")) * MS

    def factory() -> Program:
        def program() -> Program:
            while True:
                yield Run(run_us)

        return program()

    return TaskSpec(name, factory)


def sleeper(name: str, params: Mapping[str, str]) -> TaskSpec:
    """A run/sleep cycler; ``run_ms``/``sleep_ms`` shape the duty cycle."""
    run_us = int(params.get("run_ms", "1")) * MS
    sleep_us = int(params.get("sleep_ms", "2")) * MS

    def factory() -> Program:
        def program() -> Program:
            while True:
                yield Run(run_us)
                yield Sleep(sleep_us)

        return program()

    return TaskSpec(name, factory)


# -- workload-mix wire format ------------------------------------------------

#: One compiled mix entry: (factory reference, count, parent-cpu stride,
#: factory params).
MixEntry = Tuple[str, int, int, Tuple[Tuple[str, str], ...]]


def encode_mix(entries: List[MixEntry]) -> str:
    """Serialize a workload mix into one canonical spec-param string."""
    parts: List[str] = []
    for ref, count, stride, params in entries:
        text = f"{ref}*{count}@{stride}"
        if params:
            text += "?" + ",".join(f"{k}={v}" for k, v in sorted(params))
        parts.append(text)
    return ";".join(parts)


def decode_mix(text: str) -> List[MixEntry]:
    """Invert :func:`encode_mix`."""
    entries: List[MixEntry] = []
    for part in text.split(";"):
        if not part:
            continue
        head, _, query = part.partition("?")
        ref_count, _, stride_text = head.partition("@")
        ref, _, count_text = ref_count.partition("*")
        params: List[Tuple[str, str]] = []
        if query:
            for pair in query.split(","):
                key, _, value = pair.partition("=")
                params.append((key, value))
        entries.append(
            (ref, int(count_text), int(stride_text), tuple(params))
        )
    return entries


def resolve_workload(ref: str) -> Callable[[str, Mapping[str, str]], TaskSpec]:
    """Import a ``module:function`` workload factory reference."""
    from repro.perf.orchestrator import resolve_kind

    return resolve_kind(ref)  # type: ignore[return-value]


# -- shared plumbing ---------------------------------------------------------


def _duration_us(spec: TrialSpec) -> int:
    duration_ms = float(spec.param("duration_ms", "1000"))  # type: ignore[arg-type]
    return max(MS, int(duration_ms * spec.scale) * MS)


def _deadline_us(spec: TrialSpec) -> int:
    return int(
        spec.param(
            "latency_deadline_us", str(DEFAULT_LATENCY_DEADLINE_US)
        )  # type: ignore[arg-type]
    )


def _record_probe(spec: TrialSpec) -> Optional[TraceProbe]:
    """The replay layer's trace probe, when the spec asks for a recording.

    Load samples are excluded (they are floats; the replay diff hashes
    and compares integer/string fields only).
    """
    if spec.param("record") != "1":
        return None
    return TraceProbe(buffer=TraceBuffer(capacity=2_000_000),
                      record_load=False)


def _result(
    spec: TrialSpec,
    system: System,
    obs: ObsSession,
    idle_overload_fraction: float,
    probe: Optional[TraceProbe],
    extra_row: Mapping[str, object],
) -> TrialResult:
    obs.close()
    metrics = collect_slo_metrics(
        obs.recorder, idle_overload_fraction, _deadline_us(spec)
    )
    row: Dict[str, object] = dict(extra_row)
    row.update(metrics.to_json())
    return TrialResult(
        row=row,
        schedule_digest=schedule_digest(system),
        stats=system_stats(system),
        artifact=probe.buffer if probe is not None else None,
    )


# -- trial functions ---------------------------------------------------------


def bug_slo_trial(spec: TrialSpec) -> TrialResult:
    """One paper-bug scenario run, folded into SLO metrics.

    Params: ``bug`` (canonical name), ``variant`` (buggy|fixed),
    ``duration_ms``, ``latency_deadline_us``, ``record``.
    """
    bug = spec.param("bug")
    if bug is None:
        raise ValueError("bug_slo_trial spec needs a 'bug' param")
    variant = spec.param("variant", "buggy")
    assert variant is not None
    probe = _record_probe(spec)
    holder: Dict[str, ObsSession] = {}

    def instrument(system: System) -> None:
        holder["obs"] = ObsSession.attach_to(system)
        if probe is not None:
            system.attach_probe(probe)

    tokens = spec.features

    scenario = build_bug_scenario(
        bug,
        variant,
        seed=spec.seed,
        instrument=instrument,
        features_transform=(
            (lambda f: build_features(tokens, base=f)) if tokens else None
        ),
    )
    scenario.run(_duration_us(spec))
    return _result(
        spec,
        scenario.system,
        holder["obs"],
        scenario.sampler.violation_fraction,
        probe,
        {"scenario": spec.scenario, "variant": variant, "seed": spec.seed},
    )


def mix_slo_trial(spec: TrialSpec) -> TrialResult:
    """A declarative workload mix on a named topology preset.

    Params: ``topology`` (a :data:`TOPOLOGIES` key), ``mix`` (see
    :func:`encode_mix`), ``duration_ms``, ``latency_deadline_us``,
    ``record``.
    """
    topology_name = spec.param("topology")
    mix_text = spec.param("mix")
    if topology_name is None or mix_text is None:
        raise ValueError(
            "mix_slo_trial spec needs 'topology' and 'mix' params"
        )
    topology = topology_factory(topology_name)()
    features = build_features(spec.features)
    system = System(topology, features, seed=spec.seed)
    sampler = IdleOverloadSampler()
    sampler.attach(system)
    obs = ObsSession.attach_to(system)
    probe = _record_probe(spec)
    if probe is not None:
        system.attach_probe(probe)

    num_cpus = topology.num_cpus
    for ref, count, stride, params in decode_mix(mix_text):
        factory = resolve_workload(ref)
        base = ref.rsplit(":", 1)[-1]
        param_map = dict(params)
        for i in range(count):
            system.spawn(
                factory(f"{base}{i}", param_map),
                parent_cpu=(i * stride) % num_cpus,
            )
    system.run_for(_duration_us(spec))
    return _result(
        spec,
        system,
        obs,
        sampler.violation_fraction,
        probe,
        {"scenario": spec.scenario, "variant": "base", "seed": spec.seed},
    )
