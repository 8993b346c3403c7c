"""The full evaluation report, generated through one orchestrated run.

``repro report`` used to execute every section serially: table 1 fully
finished before table 2 started, and so on.  This module instead emits
**one flat spec list across all sections** and hands it to the
orchestrator in a single :func:`repro.perf.orchestrator.run_trials`
call -- so with ``--jobs 4`` a table-3 NAS run can execute while a
table-2 TPC-H trial is still going, and the worker pool never drains
between sections.  Outcomes come back in spec order, each section's
slice is merged by its own driver, and the rendered markdown is
byte-identical to a serial run.

The figure sections use the drivers' artifact-free trial variants: the
report only prints summary numbers (make seconds, wakeup fractions,
balancing coverage), which the workers compute in-process, so every
report trial is cacheable and a warm-cache rerun touches no simulator
at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.perf.orchestrator import (
    OrchestratorRun,
    PoolStats,
    ResultCache,
    TrialOutcome,
    TrialSpec,
    run_trials,
)

#: Scale used when the report runs in ``--quick`` mode (CI smoke runs).
QUICK_SCALE = 0.05

#: Parent-side progress hook, re-exported for the CLI.
Progress = Callable[[int, int, TrialOutcome], None]


@dataclass
class ReportResult:
    """The rendered report plus its equivalence and utilization evidence."""

    markdown: str
    #: Schedule digest of every trial, in spec order.  Two runs of the
    #: same report (any ``--jobs``) must produce identical lists.
    digests: List[str]
    stats: PoolStats
    #: Summed integer counters of every trial (sim_us, events_fired,
    #: migrations, balance_calls) -- the throughput side of the story.
    counters: Dict[str, int]


def report_sections(
    scale: float, seed: int = 42
) -> List[Tuple[str, List[TrialSpec]]]:
    """Every section's trial specs, in report order."""
    from repro.experiments.figure2 import figure2_specs
    from repro.experiments.figure3 import figure3_specs
    from repro.experiments.figure5 import figure5_specs
    from repro.experiments.table1 import table1_specs
    from repro.experiments.table2 import table2_specs
    from repro.experiments.table3 import table3_specs

    return [
        ("table1", table1_specs(scale=scale, seed=seed)),
        ("table2", table2_specs(scale=min(scale * 5, 1.0), seed=seed,
                                runs=1)),
        ("table3", table3_specs(scale=scale, seed=seed)),
        ("figure2", figure2_specs(scale=min(scale * 2, 1.0), seed=seed,
                                  traced=False)),
        ("figure3", figure3_specs(scale=min(scale * 5, 1.0), seed=seed,
                                  artifact=False)),
        ("figure5", figure5_specs(seed=seed, artifact=False)),
    ]


def generate_report(
    scale: float = 0.2,
    seed: int = 42,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Progress] = None,
) -> ReportResult:
    """Run every experiment through one orchestrated pool; render markdown."""
    from repro.experiments.figure5 import OBSERVER_CPU
    from repro.experiments.figures_topology import (
        format_figure4,
        format_table5,
    )
    from repro.experiments.table1 import format_table1, table1_rows
    from repro.experiments.table2 import format_table2, table2_rows
    from repro.experiments.table3 import format_table3, table3_rows
    from repro.experiments.table4 import format_table4
    from repro.topology import amd_bulldozer_64

    sections = report_sections(scale, seed=seed)
    flat: List[TrialSpec] = [s for _, specs in sections for s in specs]
    run: OrchestratorRun = run_trials(
        flat, jobs=jobs, cache=cache, progress=progress
    )

    # Slice the flat outcome list back into per-section runs.
    by_name = {}
    offset = 0
    for name, specs in sections:
        by_name[name] = run.outcomes[offset:offset + len(specs)]
        offset += len(specs)

    out: List[str] = []
    out.append("# wastedcores reproduction report\n")
    out.append(f"(scale = {scale}; all times are simulator times)\n")

    # One machine for both descriptions; it is not kept past this call.
    machine = amd_bulldozer_64()
    out.append("## Machine\n```")
    out.append(format_table5(machine))
    out.append("")
    out.append(format_figure4(machine))
    out.append("```\n")

    out.append("## Table 1\n```")
    out.append(format_table1(table1_rows(by_name["table1"])))
    out.append("```\n")

    out.append("## Table 2\n```")
    out.append(format_table2(table2_rows(by_name["table2"], runs=1)))
    out.append("```\n")

    out.append("## Table 3\n```")
    out.append(format_table3(table3_rows(by_name["table3"])))
    out.append("```\n")

    out.append("## Table 4\n```")
    out.append(format_table4())
    out.append("```\n")

    f2_bug, f2_fix = (o.result.row for o in by_name["figure2"])
    make_bug = float(f2_bug["make_seconds"])  # type: ignore[arg-type]
    make_fix = float(f2_fix["make_seconds"])  # type: ignore[arg-type]
    improvement = (make_fix - make_bug) / make_bug * 100.0
    out.append("## Figure 2\n```")
    out.append(
        f"make: {make_bug:.3f}s buggy vs "
        f"{make_fix:.3f}s fixed "
        f"({improvement:+.1f}%); "
        f"idle R-node core-s "
        f"{float(f2_bug['idle_node_core_seconds']):.2f} vs "  # type: ignore[arg-type]
        f"{float(f2_fix['idle_node_core_seconds']):.2f}"  # type: ignore[arg-type]
    )
    out.append("```\n")

    f3_bug, f3_fix = (o.result.row for o in by_name["figure3"])
    out.append("## Figure 3\n```")
    out.append(
        f"busy-core wakeups: "
        f"{float(f3_bug['busy_wakeup_fraction']):.1%} buggy "  # type: ignore[arg-type]
        f"vs {float(f3_fix['busy_wakeup_fraction']):.1%} fixed"  # type: ignore[arg-type]
    )
    out.append("```\n")

    f5_bug, f5_fix = (o.result.row for o in by_name["figure5"])
    out.append("## Figure 5\n```")
    out.append(
        f"balancing coverage by core {OBSERVER_CPU}: "
        f"{float(f5_bug['coverage']):.1%} buggy "  # type: ignore[arg-type]
        f"vs {float(f5_fix['coverage']):.1%} fixed"  # type: ignore[arg-type]
    )
    out.append("```\n")

    counters: Dict[str, int] = {}
    for outcome in run.outcomes:
        for key, value in outcome.result.stats.items():
            counters[key] = counters.get(key, 0) + value

    return ReportResult(
        markdown="\n".join(out),
        digests=run.digests(),
        stats=run.stats,
        counters=counters,
    )
