"""Scenario-registry tests: TOML parsing (both parsers), spec
compilation, and a small end-to-end run through the pooled orchestrator."""

from pathlib import Path

import pytest

from repro.slo._toml import TOMLError, parse_toml, parse_toml_fallback
from repro.slo.registry import (
    compile_specs,
    find_scenarios,
    load_registry,
    load_scenario,
    record_spec,
    run_registry,
    shipped_scenario_paths,
)

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


MIX = """
[scenario]
name = "mix"
trial = "repro.slo.trial:mix_slo_trial"
seeds = [1]
duration_ms = 10
topology = "two_nodes_4"

[[scenario.workload]]
spec = "repro.slo.trial:hog"
count = 2

[slo]
max_p99_us = 1000
"""


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY)
    return path


# ---------------------------------------------------------------- parsing


def test_shipped_registry_loads():
    scenarios = load_registry()
    names = [s.name for s in scenarios]
    assert names == sorted(names)
    assert "group-imbalance" in names
    assert "mixed-soak" in names
    for scenario in scenarios:
        assert ":" in scenario.trial
        assert scenario.seeds and scenario.variants
        # Every shipped scenario declares at least one SLO bound.
        assert scenario.thresholds.to_json()


def test_fallback_parser_agrees_with_tomllib_on_shipped_files():
    pytest.importorskip("tomllib")
    for path in shipped_scenario_paths():
        text = Path(path).read_text()
        assert parse_toml_fallback(text) == parse_toml(text), path


def test_fallback_parser_subset_semantics():
    doc = parse_toml_fallback(TINY)
    assert doc["scenario"]["name"] == "tiny"
    assert doc["scenario"]["seeds"] == [42]
    assert doc["scenario"]["params"]["latency_deadline_us"] == "1023"
    assert doc["slo"]["max_idle_overload"] == 1.0


def test_fallback_parser_rejects_garbage():
    with pytest.raises(TOMLError):
        parse_toml_fallback("not toml at all")
    with pytest.raises(TOMLError):
        parse_toml_fallback('[scenario]\nname = "a"\nname = "b"\n')


def test_load_scenario_validates_structure(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nname = "x"\n')
    with pytest.raises(ValueError, match="missing 'trial'"):
        load_scenario(bad)
    bad.write_text('[scenario]\nname = "x"\ntrial = "no-colon"\n')
    with pytest.raises(ValueError, match="module:function"):
        load_scenario(bad)


def test_load_scenario_rejects_unknown_keys(tmp_path):
    # A typo'd key (or a key the loader no longer reads) must not be
    # silently ignored.
    for key, value in (("duraton_ms", "50"), ("tracepoints", "[]")):
        path = tmp_path / f"{key}.toml"
        extra = f"duration_ms = 50\n{key} = {value}"
        path.write_text(TINY.replace("duration_ms = 50", extra))
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_scenario(path)


@pytest.mark.parametrize(
    "template, good, bad",
    [
        pytest.param(
            TINY, "repro.slo.trial:bug_slo_trial",
            "repro.slo.trial:no_such_trial", id="trial",
        ),
        pytest.param(
            MIX, "repro.slo.trial:hog",
            "repro.slo.trial:no_such_workload", id="workload-spec",
        ),
        pytest.param(MIX, "two_nodes_4", "no_such_topology", id="topology"),
    ],
)
def test_load_scenario_rejects_dangling_reference(
    tmp_path, template, good, bad
):
    # The loader every run goes through resolves each reference, so a
    # typo fails when the file loads, not inside a pool worker.
    path = tmp_path / "dangling.toml"
    path.write_text(template)
    load_scenario(path)
    assert template.count(f'"{good}"') == 1
    path.write_text(template.replace(f'"{good}"', f'"{bad}"'))
    with pytest.raises(ValueError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ")
    assert repr(bad) in message


def test_load_registry_rejects_duplicate_names(tmp_path, tiny_path):
    twin = tmp_path / "twin.toml"
    twin.write_text(TINY)
    with pytest.raises(ValueError, match="duplicate scenario name"):
        load_registry([tiny_path, twin])


def test_find_scenarios_unknown_name(tiny_path):
    scenarios = load_registry([tiny_path])
    with pytest.raises(ValueError, match="unknown scenario"):
        find_scenarios(scenarios, ["nope"])
    assert find_scenarios(scenarios, ["tiny"]) == scenarios


# ------------------------------------------------------------ compilation


def test_compile_specs_variant_seed_grid(tiny_path):
    scenario = load_scenario(tiny_path)
    specs = compile_specs(scenario)
    assert len(specs) == 2  # 2 variants x 1 seed
    variants = [dict(s.params).get("variant") for s in specs]
    assert variants == ["buggy", "fixed"]
    for spec in specs:
        params = dict(spec.params)
        assert params["bug"] == "overload-on-wakeup"
        assert params["duration_ms"] == "50"
        assert spec.cache
    # Compilation is deterministic: fingerprints are stable.
    again = compile_specs(scenario)
    assert [s.fingerprint() for s in specs] == [
        s.fingerprint() for s in again
    ]


def test_compile_specs_record_disables_cache(tiny_path):
    scenario = load_scenario(tiny_path)
    for spec in compile_specs(scenario, record=True):
        assert dict(spec.params)["record"] == "1"
        assert not spec.cache


def test_record_spec_flips_cache_policy(tiny_path):
    scenario = load_scenario(tiny_path)
    spec = compile_specs(scenario)[0]
    recording = record_spec(spec)
    assert dict(recording.params)["record"] == "1"
    assert not recording.cache
    assert recording.scenario == spec.scenario


# ------------------------------------------------------------- end-to-end


def test_run_registry_reports_verdicts(tiny_path):
    scenarios = load_registry([tiny_path])
    report, run = run_registry(scenarios, cache=None)
    assert len(run.outcomes) == 2
    assert report.verdicts() == {"tiny/buggy": True, "tiny/fixed": True}
    for scenario_report in report.scenarios:
        assert scenario_report.per_seed, scenario_report.key
        (seed, m) = scenario_report.per_seed[0]
        assert seed == 42
        assert m.samples > 0
        assert scenario_report.schedule_digests


def test_run_registry_parallel_matches_serial(tiny_path):
    scenarios = load_registry([tiny_path])
    serial, serial_run = run_registry(scenarios, jobs=1, cache=None)
    pooled, pooled_run = run_registry(scenarios, jobs=2, cache=None)
    assert serial_run.digests() == pooled_run.digests()
    assert serial.to_json() == pooled.to_json()
