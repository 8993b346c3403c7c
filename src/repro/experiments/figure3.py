"""Figure 3: the Overload-on-Wakeup bug visualized (database + TPC-H).

Paper setup: the commercial database with 64 workers runs TPC-H while
transient kernel threads perturb the load; autogroups are disabled to
isolate the wakeup bug.  The figure shows cores staying idle for long
stretches while extra database threads keep waking up on busy cores, and
the system eventually recovering when periodic balancing happens to elect
a long-term idle core.

We reproduce the trace, render the heatmap, and quantify the signature
with (a) the fraction of wakeups landing on busy cores and (b) the offline
invariant analysis (violation episodes and their durations).
"""

from __future__ import annotations

import os

from dataclasses import dataclass
from typing import List, Optional

from repro.core.offline import OfflineViolation, find_trace_violations
from repro.experiments.harness import ExperimentConfig, schedule_digest
from repro.experiments.table2 import (
    CONTAINERS,
    TRANSIENT_DURATION_US,
    TRANSIENT_RATE_PER_SEC,
)
from repro.perf.orchestrator import (
    ResultCache,
    TrialResult,
    TrialSpec,
    build_features,
    feature_tokens,
    run_trials,
)
from repro.sim.timebase import SEC
from repro.viz.events import NrRunningEvent, TraceBuffer, TraceProbe
from repro.viz.heatmap import HeatmapBuilder, render_ascii_heatmap, render_svg_heatmap
from repro.viz.timeline import wakeup_busy_fraction
from repro.workloads.database import Database, query18
from repro.workloads.transient import TransientLoad


#: The orchestrator reference to this module's trial function.
TRIAL_KIND = "repro.experiments.figure3:database_trial"


@dataclass
class Figure3Run:
    """One traced database run and its wakeup/violation statistics."""

    label: str
    #: Runqueue-size and wakeup events only: no migration or switch
    #: events, so a migration count read from it is zero by construction.
    trace: TraceBuffer
    span_us: int
    num_cpus: int
    cores_per_node: int
    busy_wakeup_fraction: float
    violations: List[OfflineViolation]
    #: Schedule fingerprint of the run (tracing does not perturb it).
    schedule_digest: str = ""

    @property
    def violation_time_ms(self) -> float:
        """Total milliseconds spent in detected imbalance episodes."""
        return sum(v.duration_us for v in self.violations) / 1000.0


def run_database_traced(
    config: ExperimentConfig, queries: int = 8
) -> Figure3Run:
    """One traced database run (Q18 x ``queries``) under ``config``."""
    system = config.build_system()
    topo = system.topology
    # Only what the heatmap, the violation scan and the busy-wakeup
    # fraction read: runqueue sizes and wakeups.
    probe = TraceProbe(
        record_considered=False, record_load=False,
        record_lifecycle=False, record_migrations=False,
        record_switches=False,
    )
    system.attach_probe(probe)
    db = Database(containers=CONTAINERS, seed=config.seed,
                  think_time_us=1_000)
    db.bind(system)
    transients = TransientLoad(
        rate_per_sec=TRANSIENT_RATE_PER_SEC,
        duration_us=TRANSIENT_DURATION_US,
        seed=config.seed + 1,
    )
    transients.attach(system)
    workers = [
        system.spawn(spec, parent_cpu=i % topo.num_cpus)
        for i, spec in enumerate(db.worker_specs())
    ]
    driver = system.spawn(
        db.driver_spec([query18(config.scale)] * queries), parent_cpu=0
    )
    system.run_until_done([driver], config.deadline_us)
    # No duration floor, as in violation_time_fraction: the wakeup bug
    # shows as many short episodes (none reaches 2 ms), so a floor
    # hides the very episodes that separate the two variants.
    violations = find_trace_violations(
        probe.buffer, topo.num_cpus, min_duration_us=1, end_us=system.now,
    )
    return Figure3Run(
        label=config.features.describe(),
        trace=probe.buffer,
        span_us=system.now,
        num_cpus=topo.num_cpus,
        cores_per_node=topo.cores_per_node,
        busy_wakeup_fraction=wakeup_busy_fraction(probe.buffer),
        violations=violations,
        schedule_digest=schedule_digest(system),
    )


def database_trial(spec: TrialSpec) -> TrialResult:
    """Orchestrator trial: one traced database run from the spec.

    The wakeup fraction and invariant-violation statistics are computed
    inside the worker, so the row is cacheable; the trace itself rides
    back as an artifact only when the ``artifact`` param is set (those
    specs opt out of the cache).
    """
    queries = int(spec.param("queries", "8") or "8")
    config = ExperimentConfig(
        build_features(spec.features),
        seed=spec.seed,
        scale=spec.scale,
        deadline_us=spec.deadline_us or 600 * SEC,
    )
    run = run_database_traced(config, queries=queries)
    row: Dict[str, object] = {
        "label": run.label,
        "span_us": run.span_us,
        "busy_wakeup_fraction": run.busy_wakeup_fraction,
        "violation_episodes": len(run.violations),
        "violation_time_ms": run.violation_time_ms,
    }
    want_artifact = spec.param("artifact") == "1"
    return TrialResult(
        row=row,
        schedule_digest=run.schedule_digest,
        stats={"sim_us": run.span_us},
        artifact=run if want_artifact else None,
    )


def figure3_specs(
    scale: float = 1.0,
    seed: int = 42,
    queries: int = 8,
    artifact: bool = True,
) -> List[TrialSpec]:
    """The (buggy, fixed) traced-database trial pair."""
    specs: List[TrialSpec] = []
    for tokens in (
        feature_tokens(autogroup=False),
        feature_tokens("overload_on_wakeup", autogroup=False),
    ):
        params: tuple = (("queries", str(queries)),)
        if artifact:
            params += (("artifact", "1"),)
        specs.append(
            TrialSpec(
                kind=TRIAL_KIND,
                scenario="figure3:tpch",
                seed=seed,
                features=tokens,
                scale=scale,
                params=params,
                cache=not artifact,
            )
        )
    return specs


@dataclass
class Figure3Result:
    """Buggy and fixed traced runs, side by side."""

    buggy: Figure3Run
    fixed: Figure3Run


def run_figure3(
    scale: float = 1.0,
    seed: int = 42,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Figure3Result:
    """Run the TPC-H scenario under the bug and the wakeup fix."""
    run = run_trials(
        figure3_specs(scale=scale, seed=seed), jobs=jobs, cache=cache
    )
    buggy, fixed = (o.result.artifact for o in run.outcomes)
    return Figure3Result(buggy=buggy, fixed=fixed)


def render_figure3(
    result: Figure3Result,
    bins: int = 120,
    ascii_output: bool = True,
    svg_dir: Optional[str] = None,
) -> str:
    sections: List[str] = []
    for tag, run in (("with bug", result.buggy), ("fix applied", result.fixed)):
        builder = HeatmapBuilder(run.num_cpus, 0, run.span_us, bins)
        matrix = builder.from_trace(run.trace, NrRunningEvent)
        title = f"Figure 3 ({tag}): runqueue sizes during TPC-H"
        if ascii_output:
            sections.append(
                render_ascii_heatmap(
                    matrix, cores_per_node=run.cores_per_node, title=title
                )
            )
        if svg_dir is not None:
            os.makedirs(svg_dir, exist_ok=True)
            path = f"{svg_dir}/figure3-{tag.replace(' ', '-')}.svg"
            with open(path, "w", encoding="utf-8") as f:
                f.write(
                    render_svg_heatmap(
                        matrix,
                        cores_per_node=run.cores_per_node,
                        title=title,
                        t0_us=0,
                        t1_us=run.span_us,
                    )
                )
            sections.append(f"(SVG written to {path})")
        sections.append(
            f"  {tag}: wakeups on busy cores "
            f"{run.busy_wakeup_fraction:.1%}; "
            f"{len(run.violations)} invariant-violation episode(s) "
            f"totalling {run.violation_time_ms:.1f}ms "
            f"(episodes recover on their own, as in the paper)"
        )
    return "\n\n".join(sections)
