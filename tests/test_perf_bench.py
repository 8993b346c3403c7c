"""Tests for the ``repro bench`` harness (repro.perf).

Timing-dependent assertions are deliberately absent: wall-clock speedups
are machine- and load-dependent, so those live in the BENCH trajectory,
not the test suite.  What is pinned here is everything deterministic --
the benchmark registry, the metric bookkeeping, the digest contract
(fast and baseline modes hash to the same schedule), and the JSON
trajectory round trip.
"""

import json

from repro.cli import main
from repro.perf import (
    BENCHMARKS,
    append_run,
    benchmark_names,
    check_digests,
    format_results,
    load_trajectory,
    run_benchmark,
)
from repro.perf.bench import BenchResult, ModeMetrics


def _metrics(wall=2.0, events=100):
    return ModeMetrics(
        wall_seconds=wall,
        sim_us=1_000_000,
        events_fired=events,
        balance_calls=50,
        migrations=5,
        heap_compactions=1,
    )


def _result(name="table4", baseline_wall=None, digest="d" * 64):
    baseline = None if baseline_wall is None else _metrics(baseline_wall)
    return BenchResult(
        name=name,
        quick=True,
        fast=_metrics(),
        baseline=baseline,
        digest=digest,
        digest_match=None if baseline is None else True,
    )


def test_registry_names():
    assert benchmark_names() == [
        "table4", "figure2", "soak64", "report_wall",
    ]
    for name, spec in BENCHMARKS.items():
        assert spec.name == name
        assert spec.description


def test_mode_metrics_rates_and_json():
    metrics = _metrics(wall=2.0, events=100)
    assert metrics.events_per_sec == 50.0
    assert metrics.balance_calls_per_sec == 25.0
    obj = metrics.to_json()
    assert obj["wall_seconds"] == 2.0
    assert obj["events_per_sec"] == 50.0
    degenerate = _metrics(wall=0.0)
    assert degenerate.events_per_sec == 0.0


def test_speedup_is_baseline_over_fast():
    assert _result().speedup is None
    assert _result(baseline_wall=5.0).speedup == 2.5
    assert _result(baseline_wall=5.0).to_json()["speedup"] == 2.5


def test_quick_benchmark_digest_identical_across_modes():
    # The harness's core claim, exercised through the public entry point:
    # fast and baseline runs of a seeded benchmark hash to the same
    # schedule.  figure2 is the cheapest of the three.
    result = run_benchmark("figure2", quick=True, compare=True)
    assert result.digest_match is True
    assert result.baseline is not None
    assert result.fast.sim_us == result.baseline.sim_us
    assert result.fast.events_fired == result.baseline.events_fired
    assert result.fast.migrations == result.baseline.migrations
    assert len(result.digest) == 64


def test_trajectory_round_trip(tmp_path):
    path = tmp_path / "BENCH_test.json"
    assert load_trajectory(path) == {"version": 1, "runs": []}
    append_run(path, [_result()], label="first")
    append_run(path, [_result(baseline_wall=4.0)], label="second")
    data = load_trajectory(path)
    assert [run["label"] for run in data["runs"]] == ["first", "second"]
    latest = data["runs"][-1]["benchmarks"]["table4"]
    assert latest["speedup"] == 2.0
    assert latest["digest"] == "d" * 64
    # The file itself is valid, stable JSON.
    assert json.loads(path.read_text())["version"] == 1


def test_check_digests_flags_drift_only(tmp_path):
    path = tmp_path / "BENCH_test.json"
    append_run(path, [_result(digest="a" * 64)])
    assert check_digests(path, [_result(digest="a" * 64)]) == []
    mismatches = check_digests(path, [_result(digest="b" * 64)])
    assert mismatches == [("table4", "a" * 64, "b" * 64)]
    # Benchmarks unknown to the stored run are not drift.
    assert check_digests(path, [_result(name="brand-new")]) == []
    # An absent trajectory has nothing to drift from.
    assert check_digests(tmp_path / "missing.json", [_result()]) == []


def test_format_results_renders_both_modes():
    text = format_results([_result(baseline_wall=5.0)])
    assert "table4" in text
    assert "baseline" in text
    assert "2.50x" in text
    assert "DIGEST MISMATCH" not in text
    broken = _result(baseline_wall=5.0)
    broken.digest_match = False
    assert "DIGEST MISMATCH" in format_results([broken])


def test_cli_bench_quick(tmp_path, capsys):
    out = tmp_path / "BENCH_cli.json"
    code = main([
        "bench", "--quick", "--only", "figure2",
        "--out", str(out), "--label", "cli-test",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "figure2" in stdout
    data = load_trajectory(out)
    assert data["runs"][0]["label"] == "cli-test"
    assert "figure2" in data["runs"][0]["benchmarks"]


def test_cli_bench_check_digests_drift_fails(tmp_path):
    out = tmp_path / "BENCH_cli.json"
    assert main(["bench", "--quick", "--only", "figure2",
                 "--out", str(out)]) == 0
    # Same seed, same schedule: a fresh run matches its own trajectory.
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(out)]) == 0
    # Corrupt the stored digest: the check must fail the run.
    data = json.loads(out.read_text())
    data["runs"][-1]["benchmarks"]["figure2"]["digest"] = "0" * 64
    out.write_text(json.dumps(data))
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(out)]) == 1


def test_cli_bench_check_digests_missing_file_exits_2(tmp_path, capsys):
    # A typo'd path must not pass vacuously, and must fail before any
    # benchmark runs.
    missing = tmp_path / "missing.json"
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(missing)]) == 2
    captured = capsys.readouterr()
    assert str(missing) in captured.err
    assert "running figure2" not in captured.err
    # A trajectory whose latest run stores no digests is refused too.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"version": 1, "runs": [{"benchmarks": {}}]}))
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(empty)]) == 2


def test_cli_bench_check_digests_corrupt_file_exits_2(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"version": 1, "runs": [')
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(corrupt)]) == 2
    captured = capsys.readouterr()
    assert str(corrupt) in captured.err
    assert "running figure2" not in captured.err
    # Valid JSON of the wrong shape is corrupt as well.
    corrupt.write_text('{"version": 1, "runs": [1]}')
    assert main(["bench", "--quick", "--only", "figure2",
                 "--check-digests", str(corrupt)]) == 2


def test_cli_bench_unknown_benchmark():
    assert main(["bench", "--quick", "--only", "nope"]) == 2


# ------------------------------------------------------------- SLO columns


def test_bench_specs_carry_slo_companions():
    # report_wall has no single representative scenario; the rest do.
    assert BENCHMARKS["report_wall"].slo is None
    for name in ("table4", "figure2", "soak64"):
        assert BENCHMARKS[name].slo is not None, name


def test_bench_result_json_carries_slo_fields():
    slo = {
        "wakeup_p50_us": 100.0,
        "wakeup_p95_us": 200.0,
        "wakeup_p99_us": 400.0,
        "jitter_us": 3.5,
        "samples": 42,
    }
    result = _result()
    assert result.slo is None
    assert result.to_json()["slo"] is None
    with_slo = BenchResult(
        name="table4",
        quick=True,
        fast=_metrics(),
        baseline=None,
        digest="d" * 64,
        digest_match=None,
        slo=slo,
    )
    assert with_slo.to_json()["slo"] == slo
    text = format_results([with_slo])
    assert "SLO table4" in text
    assert "p50/p95/p99 = 100.0/200.0/400.0us" in text
    assert "jitter 3.5us (n=42)" in text


def test_slo_companion_measures_real_run():
    from repro.perf.bench import _slo_bug
    from repro.sim.timebase import MS

    fields = _slo_bug("overload-on-wakeup", 10 * MS)
    assert set(fields) == {
        "wakeup_p50_us", "wakeup_p95_us", "wakeup_p99_us",
        "jitter_us", "samples",
    }
    assert fields["samples"] > 0
    # Deterministic: the companion is seeded, so a rerun agrees exactly.
    assert _slo_bug("overload-on-wakeup", 10 * MS) == fields


# ----------------------------------------------------------------- trend


def _trend_fixture(tmp_path):
    path = tmp_path / "BENCH_trend.json"
    first = _result(baseline_wall=4.0)
    first.digest_match = True
    append_run(path, [first], label="pr1")
    second = _result(baseline_wall=6.0)
    # A variant name from the trajectory's history: rendering must not
    # depend on today's VARIANTS.
    second.variant = "vec"
    second.digest_match = True
    append_run(path, [second, _result(name="figure2")], label="pr2")
    return path


def test_format_trend_groups_by_benchmark(tmp_path):
    from repro.perf import format_trend

    data = load_trajectory(_trend_fixture(tmp_path))
    text = format_trend(data)
    lines = text.splitlines()
    header = lines[0].split()
    assert header == [
        "benchmark", "run", "variant", "wall(s)", "speedup", "digest_match",
    ]
    # table4 appears once (group label), with both runs under it in order.
    assert sum(1 for ln in lines if ln.startswith("table4")) == 1
    assert "0:pr1" in text and "1:pr2" in text
    assert "2.00x" in text and "3.00x" in text
    assert "vec" in text
    # figure2 only exists in the second run; its row has no speedup.
    fig_rows = [ln for ln in lines if ln.startswith("figure2")]
    assert len(fig_rows) == 1 and "1:pr2" in fig_rows[0]
    # Columns align: the variant column starts at one offset everywhere.
    offset = lines[0].index("variant")
    values = {ln[offset:].split()[0] for ln in lines[1:] if len(ln) > offset}
    assert values <= {"fast", "vec"}
    assert format_trend({"version": 1, "runs": []}) == "(empty trajectory)"


def test_cli_bench_trend(tmp_path, capsys):
    path = _trend_fixture(tmp_path)
    assert main(["bench", "--trend", str(path)]) == 0
    out = capsys.readouterr().out
    assert "benchmark" in out and "table4" in out and "figure2" in out
    assert "2.00x" in out
    # --trend never runs a benchmark: a bogus --only slips through
    # because the command exits before validation touches it.
    assert main(["bench", "--trend", str(tmp_path / "missing.json")]) == 0
    assert "(empty trajectory)" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a trajectory\"}")
    assert main(["bench", "--trend", str(bad)]) == 2
