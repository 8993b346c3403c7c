"""CLI coverage for ``repro slo run|check`` and ``repro replay
record|diff`` against a tiny private registry (no shipped scenarios, so
the tests stay fast and hermetic)."""

import json

import pytest

from repro.cli import main

TINY = """
[scenario]
name = "tiny"
title = "Tiny overload scenario"
trial = "repro.slo.trial:bug_slo_trial"
variants = ["buggy", "fixed"]
seeds = [42]
duration_ms = 50

[scenario.params]
bug = "overload-on-wakeup"
latency_deadline_us = "1023"

[slo]
max_idle_overload = 1.0
"""


@pytest.fixture
def registry(tmp_path):
    reg = tmp_path / "scenarios"
    reg.mkdir()
    (reg / "tiny.toml").write_text(TINY)
    return reg


def test_slo_run_renders_verdicts(registry, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "slo", "run", "--registry", str(registry), "--no-cache",
        "-j", "1", "--json", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "tiny" in captured.out
    assert "PASS" in captured.out
    payload = json.loads(out.read_text())
    assert payload["verdicts"] == {"tiny/buggy": True, "tiny/fixed": True}


def test_slo_check_baseline_cycle(registry, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    common = [
        "slo", "check", "--registry", str(registry), "--no-cache",
        "-j", "1", "--baseline", str(baseline),
    ]
    # No baseline yet: distinct exit code so CI can tell "unconfigured"
    # from "regressed".
    assert main(common) == 2

    assert main(common + ["--write-baseline"]) == 0
    assert json.loads(baseline.read_text())["verdicts"] == {
        "tiny/buggy": True, "tiny/fixed": True,
    }
    capsys.readouterr()

    # Clean compare.
    assert main(common) == 0
    assert "verdicts match" in capsys.readouterr().out

    # Flip a stored verdict: the gate must fail and name the drift.
    data = json.loads(baseline.read_text())
    data["verdicts"]["tiny/buggy"] = False
    baseline.write_text(json.dumps(data))
    assert main(common) == 1
    out = capsys.readouterr().out
    assert "SLO REGRESSION: tiny/buggy" in out

    # A scenario present in the baseline but not evaluated also fails.
    data["verdicts"] = {"tiny/buggy": True, "tiny/fixed": True,
                        "ghost/base": True}
    baseline.write_text(json.dumps(data))
    assert main(common) == 1
    assert "ghost/base in baseline but not evaluated" in capsys.readouterr().out


def test_replay_record_then_diff(registry, tmp_path, capsys):
    traces = tmp_path / "traces"
    code = main([
        "replay", "record", "--registry", str(registry),
        "--out", str(traces),
    ])
    assert code == 0
    files = sorted(traces.glob("*.trace.jsonl"))
    assert [f.name for f in files] == [
        "tiny__buggy__s42.trace.jsonl",
        "tiny__fixed__s42.trace.jsonl",
    ]
    capsys.readouterr()

    code = main(["replay", "diff"] + [str(f) for f in files])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("identical") == 2


def test_replay_diff_flags_divergence(registry, tmp_path, capsys):
    traces = tmp_path / "traces"
    assert main([
        "replay", "record", "--registry", str(registry),
        "--scenario", "tiny", "--out", str(traces),
    ]) == 0
    path = next(traces.glob("*.trace.jsonl"))
    lines = path.read_text().splitlines()
    event = json.loads(lines[5])
    int_keys = [k for k, v in event.items()
                if isinstance(v, int) and not isinstance(v, bool)]
    event[int_keys[0]] += 1
    lines[5] = json.dumps(event, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["replay", "diff", str(path)]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "first divergent event: #4" in out


def test_slo_run_unknown_scenario_errors(registry, capsys):
    code = main([
        "slo", "run", "--registry", str(registry),
        "--scenario", "nope", "--no-cache",
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: unknown scenario")


def _bad_registry(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "no-such-registry"
    reg = tmp_path / "bad"
    reg.mkdir()
    (reg / "broken.toml").write_text("[scenario]\nname = \"broken\"\n")
    return reg


@pytest.mark.parametrize("kind", ["missing", "malformed"])
@pytest.mark.parametrize("argv", [
    ["slo", "run"], ["slo", "check"], ["replay", "record"],
], ids=["slo-run", "slo-check", "replay-record"])
def test_bad_registry_exits_two(tmp_path, capsys, argv, kind):
    # Exit 1 is "SLO REGRESSION"; bad input must not masquerade as one.
    registry = _bad_registry(tmp_path, kind)
    extra = ["--out", str(tmp_path / "t")] if argv[0] == "replay" else []
    code = main(argv + ["--registry", str(registry)] + extra)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("payload", ["{torn", "[]", "null", "3"],
                         ids=["corrupt", "list", "null", "int"])
def test_slo_check_bad_baseline_exits_two(registry, tmp_path, capsys,
                                          payload):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(payload)
    code = main([
        "slo", "check", "--registry", str(registry), "--no-cache",
        "-j", "1", "--baseline", str(baseline),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(baseline) in err[0]
