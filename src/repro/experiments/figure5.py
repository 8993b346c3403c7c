"""Figure 5: the Missing Scheduling Domains bug's considered-cores plot.

Paper setup: after a core disable/re-enable, a 16-thread application is
launched; all its threads pack onto one node (node 1).  The figure shows
vertical lines for the cores Core 0 examines on each (failed) load-
balancing call, every 4 ms: under the bug, Core 0 only ever considers its
SMT sibling and its own node -- never the overloaded node.

We record every balancing call's considered-core set from the observer
core and measure the *coverage fraction*: what share of the machine the
observer's balancing ever looks at (1/8th under the bug, ~1.0 fixed).
"""

from __future__ import annotations

import os

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.harness import ExperimentConfig, schedule_digest
from repro.perf.orchestrator import (
    ResultCache,
    TrialResult,
    TrialSpec,
    build_features,
    feature_tokens,
    run_trials,
)
from repro.viz.considered import (
    considered_core_sets,
    coverage_fraction,
    render_ascii_considered,
    render_svg_considered,
)
from repro.viz.events import TraceBuffer, TraceProbe
from repro.workloads.cpubound import cpu_hog_program
from repro.workloads.base import TaskSpec

#: The core whose balancing calls the figure observes.
OBSERVER_CPU = 0
#: The core hotplugged to trigger the bug.
HOTPLUGGED_CPU = 9

#: The orchestrator reference to this module's trial function.
TRIAL_KIND = "repro.experiments.figure5:hotplug_trial"


@dataclass
class Figure5Run:
    """One traced hotplug run and its considered-core coverage."""

    label: str
    trace: TraceBuffer
    span_us: int
    num_cpus: int
    cores_per_node: int
    coverage: float
    balancing_calls: int
    #: Schedule fingerprint of the run (tracing does not perturb it).
    schedule_digest: str = ""


def run_hotplug_traced(
    config: ExperimentConfig,
    nr_threads: int = 16,
    run_ms: int = 200,
) -> Figure5Run:
    """Hotplug a core, launch the app, record balancing decisions."""
    system = config.build_system()
    topo = system.topology
    system.hotplug_cpu(HOTPLUGGED_CPU, False)
    system.hotplug_cpu(HOTPLUGGED_CPU, True)
    # The considered-core stream and the runqueue sizes the SVG heatmap
    # draws under it.  The considered stream keeps every balancing
    # attempt that would otherwise be skipped as unable to move a task
    # (``wants_balance`` is True), so the coverage is what a full trace
    # would show; it switches no search: wakeups take the same path
    # untraced.
    probe = TraceProbe(
        record_load=False, record_wakeups=False,
        record_migrations=False, record_lifecycle=False,
        record_switches=False,
    )
    system.attach_probe(probe)
    # A 16-thread compute application forked from node 1 (the paper's
    # overloaded node).
    parent = min(topo.cpus_of_node(1 % topo.num_nodes))
    tasks = [
        system.spawn(
            TaskSpec(f"app-t{i}", cpu_hog_program(None)),
            parent_cpu=parent,
        )
        for i in range(nr_threads)
    ]
    system.run_for(run_ms * 1000)
    del tasks
    events = considered_core_sets(probe.buffer, OBSERVER_CPU, "load_balance")
    return Figure5Run(
        label=config.features.describe(),
        trace=probe.buffer,
        span_us=system.now,
        num_cpus=topo.num_cpus,
        cores_per_node=topo.cores_per_node,
        coverage=coverage_fraction(events, topo.num_cpus),
        balancing_calls=len(events),
        schedule_digest=schedule_digest(system),
    )


def hotplug_trial(spec: TrialSpec) -> TrialResult:
    """Orchestrator trial: one post-hotplug traced run from the spec."""
    nr_threads = int(spec.param("threads", "16") or "16")
    run_ms = int(spec.param("run_ms", "200") or "200")
    config = ExperimentConfig(
        build_features(spec.features), seed=spec.seed, scale=spec.scale
    )
    run = run_hotplug_traced(config, nr_threads=nr_threads, run_ms=run_ms)
    row: Dict[str, object] = {
        "label": run.label,
        "span_us": run.span_us,
        "coverage": run.coverage,
        "balancing_calls": run.balancing_calls,
    }
    want_artifact = spec.param("artifact") == "1"
    return TrialResult(
        row=row,
        schedule_digest=run.schedule_digest,
        stats={"sim_us": run.span_us},
        artifact=run if want_artifact else None,
    )


def figure5_specs(
    seed: int = 42,
    nr_threads: int = 16,
    run_ms: int = 200,
    artifact: bool = True,
) -> List[TrialSpec]:
    """The (buggy, fixed) hotplug trial pair."""
    specs: List[TrialSpec] = []
    for tokens in (
        feature_tokens(autogroup=False),
        feature_tokens("missing_domains", autogroup=False),
    ):
        params: tuple = (("threads", str(nr_threads)),
                         ("run_ms", str(run_ms)))
        if artifact:
            params += (("artifact", "1"),)
        specs.append(
            TrialSpec(
                kind=TRIAL_KIND,
                scenario="figure5:hotplug",
                seed=seed,
                features=tokens,
                params=params,
                cache=not artifact,
            )
        )
    return specs


@dataclass
class Figure5Result:
    """Buggy and fixed traced runs, side by side."""

    buggy: Figure5Run
    fixed: Figure5Run


def run_figure5(
    seed: int = 42,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Figure5Result:
    """Run the hotplug scenario under the bug and the fix."""
    run = run_trials(figure5_specs(seed=seed), jobs=jobs, cache=cache)
    buggy, fixed = (o.result.artifact for o in run.outcomes)
    return Figure5Result(buggy=buggy, fixed=fixed)


def render_figure5(
    result: Figure5Result,
    ascii_output: bool = True,
    svg_dir: Optional[str] = None,
) -> str:
    sections = []
    for tag, run in (("with bug", result.buggy), ("fix applied", result.fixed)):
        if ascii_output:
            sections.append(
                f"Figure 5 ({tag}): cores considered by core "
                f"{OBSERVER_CPU}'s load balancing\n"
                + render_ascii_considered(
                    run.trace, OBSERVER_CPU, run.num_cpus, max_events=12
                )
            )
        if svg_dir is not None:
            os.makedirs(svg_dir, exist_ok=True)
            path = f"{svg_dir}/figure5-{tag.replace(' ', '-')}.svg"
            with open(path, "w", encoding="utf-8") as f:
                f.write(
                    render_svg_considered(
                        run.trace, OBSERVER_CPU, run.num_cpus,
                        0, run.span_us,
                        cores_per_node=run.cores_per_node,
                        title=f"Figure 5 ({tag})",
                    )
                )
            sections.append(f"(SVG written to {path})")
        sections.append(
            f"  {tag}: {run.balancing_calls} balancing calls by core "
            f"{OBSERVER_CPU}; coverage of the machine: {run.coverage:.1%}"
        )
    return "\n\n".join(sections)
