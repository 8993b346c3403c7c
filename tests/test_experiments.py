"""Smoke tests for every experiment driver (tiny scales).

Each table/figure driver must run end to end, produce the paper's
qualitative shape, and render a report.
"""

import pytest

from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure3 import (
    figure3_specs,
    render_figure3,
    run_figure3,
)
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.figures_topology import (
    format_bulldozer_domains,
    format_figure1,
    format_figure4,
    format_table5,
)
from repro.experiments.harness import (
    ExperimentConfig,
    averaged,
    improvement_pct,
    node_cpuset,
    quick_scale,
    speedup,
)
from repro.experiments.overhead import format_overhead, run_overhead
from repro.experiments.report import Table, format_table
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import bug_descriptions, format_table4
from repro.perf.orchestrator import run_trials
from repro.sched.features import SchedFeatures
from repro.topology import two_nodes


# -- harness utilities ---------------------------------------------------------


def test_speedup_and_improvement():
    assert speedup(10.0, 2.0) == 5.0
    assert improvement_pct(100.0, 87.0) == pytest.approx(-13.0)
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)
    with pytest.raises(ValueError):
        improvement_pct(0.0, 1.0)


def test_averaged_varies_seed():
    seen = []
    averaged(lambda s: seen.append(s) or 0.0, repetitions=3, base_seed=10)
    assert len(set(seen)) == 3
    with pytest.raises(ValueError):
        averaged(lambda s: 0.0, repetitions=0)


def test_quick_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert quick_scale(0.5) == 0.5
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    assert quick_scale(0.5) == 0.25
    monkeypatch.setenv("REPRO_SCALE", "-1")
    with pytest.raises(ValueError):
        quick_scale()


def test_quick_scale_error_messages(monkeypatch):
    # Whitespace/empty values mean "unset", not an error.
    monkeypatch.setenv("REPRO_SCALE", "  ")
    assert quick_scale(0.75) == 0.75
    # Non-numeric values name themselves and show a valid example.
    monkeypatch.setenv("REPRO_SCALE", "fast")
    with pytest.raises(
        ValueError, match=r"REPRO_SCALE must be a number such as 0\.25"
    ):
        quick_scale()
    # Finite and positive are required; the message echoes the input.
    for bad in ("nan", "inf", "0", "-0.5"):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(
            ValueError,
            match=f"must be a positive finite number, got {bad!r}",
        ):
            quick_scale()


def test_node_cpuset():
    topo = two_nodes(cores_per_node=2)
    assert node_cpuset(topo, [1]) == frozenset({2, 3})


def test_experiment_config_builders():
    config = ExperimentConfig(SchedFeatures(), topology_factory=lambda: two_nodes())
    system = config.build_system()
    assert system.topology.num_cpus == 8
    other = config.with_features(SchedFeatures().with_fixes("all"))
    assert other.features.fix_group_imbalance


def test_report_table_rendering():
    table = Table("demo", ["a", "b"])
    table.add_row("x", 1.5)
    table.add_note("n")
    text = format_table(table)
    assert "demo" in text and "1.50" in text and "note: n" in text
    with pytest.raises(ValueError):
        table.add_row("only-one")


# -- tables -------------------------------------------------------------------


def test_table1_shape_smoke():
    rows = run_table1(scale=0.05, apps=["ep", "lu"])
    factors = {r.app: r.speedup for r in rows}
    assert factors["lu"] > factors["ep"] > 1.0
    text = format_table1(rows)
    assert "lu" in text and "speedup" in text


def test_table2_smoke():
    rows = run_table2(scale=0.15, q18_repeats=1, runs=1)
    assert [r.config for r in rows] == [
        "None", "Group Imbalance", "Overload-on-Wakeup", "Both",
    ]
    assert rows[0].q18.improvement_pct is None
    assert rows[1].q18.improvement_pct is not None
    text = format_table2(rows)
    assert "TPC-H" in text


def test_table3_shape_smoke():
    rows = run_table3(scale=0.05, apps=["ep", "lu"])
    factors = {r.app: r.speedup for r in rows}
    assert factors["lu"] > 1.5
    assert factors["ep"] > 1.5
    assert "Missing Scheduling Domains" in format_table3(rows)


def test_table4_render():
    text = format_table4()
    assert "Group Imbalance" in text
    assert "138x" in text
    text = format_table4(measured_max={"Group Imbalance": "7x"})
    assert "7x" in text
    assert "fix flag" in bug_descriptions()


# -- figures ------------------------------------------------------------------


def test_figure2_smoke(tmp_path):
    result = run_figure2(scale=0.2)
    # The buggy run wastes more core-time on the R nodes, and the make
    # job completes faster with the fix.
    assert (
        result.buggy.idle_node_core_seconds
        > 2 * result.fixed.idle_node_core_seconds
    )
    assert result.make_improvement_pct < 0
    text = render_figure2(result, bins=24, svg_dir=str(tmp_path))
    assert "Figure 2a" in text
    assert (tmp_path / "figure2a.svg").exists()
    assert (tmp_path / "figure2b.svg").exists()
    assert (tmp_path / "figure2c.svg").exists()


def test_figure3_smoke(tmp_path):
    result = run_figure3(scale=0.3)
    assert (
        result.buggy.busy_wakeup_fraction
        > result.fixed.busy_wakeup_fraction
    )
    text = render_figure3(result, bins=24, svg_dir=str(tmp_path))
    assert "Figure 3" in text
    assert "wakeups on busy cores" in text


@pytest.mark.parametrize("seed", [42, 1729])
def test_figure3_violation_time_separates_the_variants(seed):
    """The report's Figure 3 pair (no artifact, scale 0.1) measures
    more invariant-violation time under the wakeup bug than with its
    fix; every episode is shorter than 2 ms, so this reads 0 for both
    variants if the scan keeps a duration floor."""
    run = run_trials(figure3_specs(scale=0.1, seed=seed, artifact=False))
    buggy, fixed = (o.result.row for o in run.outcomes)
    assert buggy["violation_episodes"] > 0
    assert buggy["violation_time_ms"] > fixed["violation_time_ms"]


def test_figure5_smoke(tmp_path):
    result = run_figure5()
    # The buggy observer only ever considers its own node (1/8 of the
    # machine); the fixed one reaches across nodes (its one-hop domain at
    # least -- 5 of 8 nodes -- plus the machine level when it is the
    # designated idle core).
    assert result.buggy.coverage <= 0.15
    assert result.fixed.coverage >= 0.5
    assert result.buggy.balancing_calls > 0
    text = render_figure5(result, svg_dir=str(tmp_path))
    assert "coverage" in text


def test_topology_renderings():
    assert "AMD Bulldozer" in format_table5()
    fig4 = format_figure4()
    assert "node 0: one hop -> [1, 2, 4, 6]" in fig4
    assert "distance = 2" in fig4
    fig1 = format_figure1()
    assert "scheduling domains" in fig1
    assert "NUMA" in format_bulldozer_domains(0)


# -- overhead -----------------------------------------------------------------


def test_overhead_checker_does_not_perturb():
    result = run_overhead(threads=32, run_virtual_s=0.3)
    assert result.behavior_identical
    assert result.checks_performed >= 0
    assert "behavior identical = True" in format_overhead(result)
