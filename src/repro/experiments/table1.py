"""Table 1: NAS applications under the Scheduling Group Construction bug.

Paper setup: every NAS application launched with
``numactl --cpunodebind=1,2`` on the 8-node machine, with as many threads
as pinned cores (16).  Threads spawn on node 1 (children start on the
parent's node); with the bug, the machine-level scheduling groups both
contain nodes 1 and 2, so node 2 never steals and the whole application
runs on one node.  Speedups blow past 2x because of spin-synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import (
    ExperimentConfig,
    node_cpuset,
    schedule_digest,
    speedup,
    system_stats,
)
from repro.experiments.report import Table
from repro.perf.orchestrator import (
    ResultCache,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    build_features,
    feature_tokens,
    run_trials,
)
from repro.sched.features import SchedFeatures
from repro.sim.timebase import SEC
from repro.workloads.nas import all_nas_names, nas_app

#: The nodes the paper pins to: two hops apart on the Bulldozer machine.
PINNED_NODES = (1, 2)

#: The orchestrator reference to this module's trial function.
TRIAL_KIND = "repro.experiments.table1:nas_pinned_trial"


@dataclass
class NasRunResult:
    """Completion time of one pinned NAS run, plus obs latency if on."""

    seconds: float
    wakeup_p50_us: Optional[float] = None
    wakeup_p99_us: Optional[float] = None
    #: Schedule fingerprint and counters of the run that produced this.
    schedule_digest: str = ""
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class Table1Row:
    """One application's times under both configurations."""

    app: str
    time_with_bug_s: float
    time_without_bug_s: float
    #: Wakeup-to-run latency percentiles, filled when ``obs`` was on.
    bug_wakeup_p50_us: Optional[float] = None
    bug_wakeup_p99_us: Optional[float] = None
    fix_wakeup_p50_us: Optional[float] = None
    fix_wakeup_p99_us: Optional[float] = None

    @property
    def speedup(self) -> float:
        """Buggy time over fixed time."""
        return speedup(self.time_with_bug_s, self.time_without_bug_s)


def run_nas_pinned_result(
    config: ExperimentConfig,
    app_name: str,
    nr_threads: Optional[int] = None,
) -> NasRunResult:
    """One NAS run pinned to ``PINNED_NODES``, with full run statistics."""
    system = config.build_system()
    topo = system.topology
    allowed = node_cpuset(topo, PINNED_NODES)
    if nr_threads is None:
        nr_threads = len(allowed)
    app = nas_app(
        app_name,
        nr_threads,
        allowed_cpus=allowed,
        seed=config.seed,
        scale=config.scale,
    )
    # Threads spawn from a parent on node 1 (ssh session's shell).
    parent = min(topo.cpus_of_node(PINNED_NODES[0]))
    tasks = [system.spawn(spec, parent_cpu=parent) for spec in app.thread_specs()]
    done = system.run_until_done(tasks, config.deadline_us)
    seconds = (config.deadline_us if not done else system.now) / SEC
    result = NasRunResult(
        seconds,
        schedule_digest=schedule_digest(system),
        stats=system_stats(system),
    )
    if system.obs is not None:
        system.obs.close()
        latency = system.obs.recorder.wakeup_latency
        if latency.count():
            result.wakeup_p50_us = latency.percentile(50)
            result.wakeup_p99_us = latency.percentile(99)
    return result


def nas_pinned_trial(spec: TrialSpec) -> TrialResult:
    """Orchestrator trial: one pinned NAS run, rebuilt from the spec."""
    app = spec.param("app")
    if app is None:
        raise ValueError("table1 trial spec is missing its 'app' param")
    config = ExperimentConfig(
        build_features(spec.features),
        seed=spec.seed,
        scale=spec.scale,
        deadline_us=spec.deadline_us,
        obs=spec.param("obs") == "1",
    )
    r = run_nas_pinned_result(config, app)
    row: Dict[str, object] = {
        "app": app,
        "seconds": r.seconds,
        "wakeup_p50_us": r.wakeup_p50_us,
        "wakeup_p99_us": r.wakeup_p99_us,
    }
    return TrialResult(
        row=row, schedule_digest=r.schedule_digest, stats=r.stats
    )


def table1_specs(
    scale: float = 0.25,
    apps: Optional[Sequence[str]] = None,
    seed: int = 42,
    deadline_us: int = 600 * SEC,
    obs: bool = False,
) -> List[TrialSpec]:
    """The flat trial grid of Table 1: (buggy, fixed) for every app."""
    variants = (
        feature_tokens(autogroup=False),
        feature_tokens("group_construction", autogroup=False),
    )
    extra = (("obs", "1"),) if obs else ()
    specs: List[TrialSpec] = []
    for app_name in apps or all_nas_names():
        for tokens in variants:
            specs.append(
                TrialSpec(
                    kind=TRIAL_KIND,
                    scenario=f"table1:{app_name}",
                    seed=seed,
                    features=tokens,
                    scale=scale,
                    deadline_us=deadline_us,
                    params=(("app", app_name),) + extra,
                )
            )
    return specs


def _opt_float(value: object) -> Optional[float]:
    return None if value is None else float(value)  # type: ignore[arg-type]


def table1_rows(outcomes: Sequence[TrialOutcome]) -> List[Table1Row]:
    """Merge trial outcomes (spec order: bug, fix per app) into rows."""
    rows: List[Table1Row] = []
    for i in range(0, len(outcomes), 2):
        bug, fix = outcomes[i].result.row, outcomes[i + 1].result.row
        rows.append(
            Table1Row(
                str(bug["app"]),
                float(bug["seconds"]),  # type: ignore[arg-type]
                float(fix["seconds"]),  # type: ignore[arg-type]
                bug_wakeup_p50_us=_opt_float(bug["wakeup_p50_us"]),
                bug_wakeup_p99_us=_opt_float(bug["wakeup_p99_us"]),
                fix_wakeup_p50_us=_opt_float(fix["wakeup_p50_us"]),
                fix_wakeup_p99_us=_opt_float(fix["wakeup_p99_us"]),
            )
        )
    return rows


def run_table1(
    scale: float = 0.25,
    apps: Optional[Sequence[str]] = None,
    seed: int = 42,
    deadline_us: int = 600 * SEC,
    obs: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Table1Row]:
    """Both configurations for every app, through the orchestrator."""
    specs = table1_specs(
        scale=scale, apps=apps, seed=seed, deadline_us=deadline_us, obs=obs
    )
    return table1_rows(run_trials(specs, jobs=jobs, cache=cache).outcomes)


#: Speedup factors the paper reports, for shape comparison.
PAPER_SPEEDUPS: Dict[str, float] = {
    "bt": 1.75, "cg": 2.73, "ep": 2.0, "ft": 1.92, "is": 1.33,
    "lu": 27.0, "mg": 2.03, "sp": 2.23, "ua": 3.63,
}


def format_table1(rows: List[Table1Row]) -> str:
    """Render the reproduced Table 1 with the paper's factors.

    When the rows carry obs latency (``run_table1(obs=True)``), the table
    grows wakeup-to-run percentile columns for both variants.
    """
    with_latency = any(r.bug_wakeup_p99_us is not None for r in rows)
    headers = ["app", "time w/ bug (s)", "time w/o bug (s)", "speedup (x)",
               "paper (x)"]
    if with_latency:
        headers += ["bug wake p50/p99 (us)", "fix wake p50/p99 (us)"]
    table = Table(
        "Table 1: NAS with the Scheduling Group Construction bug "
        "(numactl --cpunodebind=1,2)",
        headers,
    )

    def pair(p50, p99):
        if p99 is None:
            return "-"
        return f"{p50:.0f}/{p99:.0f}"

    for row in rows:
        cells = [
            row.app,
            f"{row.time_with_bug_s:.3f}",
            f"{row.time_without_bug_s:.3f}",
            f"{row.speedup:.2f}",
            f"{PAPER_SPEEDUPS.get(row.app, float('nan')):.2f}",
        ]
        if with_latency:
            cells.append(pair(row.bug_wakeup_p50_us, row.bug_wakeup_p99_us))
            cells.append(pair(row.fix_wakeup_p50_us, row.fix_wakeup_p99_us))
        table.add_row(*cells)
    table.add_note(
        "absolute times are simulator-scaled; the reproduction target is "
        "the speedup column's shape (all > 1, lu extreme)"
    )
    return table.render()
