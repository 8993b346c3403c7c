"""SARIF 2.1.0 export tests: document shape, suppressions, CLI paths."""

import json

from repro.analysis import Finding, default_rules, run_lint
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

BAD_SOURCE = "import random\n\njitter = random.random()\n"


def _capture():
    lines = []
    return lines, lines.append


def sample_findings():
    return [
        Finding(
            "det-unseeded-random", "pkg/a.py", 3, 9,
            "unseeded random", snippet="jitter = random.random()",
        ),
        Finding(
            "perf-load-bypass", "pkg/b.py", 0, 0,
            "raw load read", snippet="rq._cached_load",
            severity="error", suppressed=True,
        ),
    ]


def test_sarif_document_shape():
    doc = to_sarif(sample_findings(), default_rules())
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SARIF_SCHEMA
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    for result in run["results"]:
        # Every result's ruleIndex must resolve to its own ruleId.
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]


def test_sarif_result_fields():
    doc = to_sarif(sample_findings())
    first, second = doc["runs"][0]["results"]
    assert first["level"] == "warning"
    assert second["level"] == "error"
    region = first["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 3, "startColumn": 10}  # 1-based column
    # Line 0 (file-level finding) clamps to the schema minimum of 1.
    clamped = second["locations"][0]["physicalLocation"]["region"]
    assert clamped["startLine"] == 1 and clamped["startColumn"] == 1
    fp = first["partialFingerprints"]["reproLintFingerprint/v1"]
    assert fp == sample_findings()[0].fingerprint()


def test_sarif_suppressions():
    doc = to_sarif(sample_findings())
    first, second = doc["runs"][0]["results"]
    # The active finding carries no suppressions key; the noqa'd one is
    # suppressed in source.
    assert "suppressions" not in first
    assert [s["kind"] for s in second["suppressions"]] == ["inSource"]


def test_run_lint_sarif_format(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], fmt="sarif", out=out) == 1
    doc = json.loads("\n".join(lines))
    assert doc["version"] == "2.1.0"
    (result,) = doc["runs"][0]["results"]
    assert result["ruleId"] == "det-unseeded-random"


def test_run_lint_sarif_file_alongside_text(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    sarif_file = tmp_path / "lint.sarif"
    lines, out = _capture()
    code = run_lint(
        paths=[str(target)], sarif_path=str(sarif_file), out=out
    )
    assert code == 1
    assert lines[-1].endswith("1 finding")  # text report still rendered
    doc = json.loads(sarif_file.read_text())
    assert len(doc["runs"][0]["results"]) == 1
