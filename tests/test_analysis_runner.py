"""End-to-end tests for ``repro lint``: exit codes, JSON schema, noqa."""

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.runner import REPORT_VERSION

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Trips UnseededRandomRule, whose scope is the whole tree -- no module
#: override needed, so it exercises the real CLI path.
BAD_SOURCE = "import random\n\njitter = random.random()\n"
CLEAN_SOURCE = "import random\n\nrng = random.Random(7)\n"


def _capture():
    lines = []
    return lines, lines.append


@pytest.fixture(scope="module")
def shipped_lint():
    """One JSON-format lint of the shipped tree, shared by the self-lint
    tests: ``(exit code, stdout lines, parsed report)``."""
    lines, out = _capture()
    code = run_lint(paths=[str(SRC / "repro")], fmt="json", out=out)
    return code, lines, json.loads("\n".join(lines))


def test_clean_tree_exits_zero(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], out=out) == 0
    assert lines[-1] == "0 findings"


def test_findings_exit_nonzero(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], out=out) == 1
    assert any("det-unseeded-random" in line for line in lines)


def test_missing_path_exits_two(tmp_path):
    lines, out = _capture()
    assert run_lint(paths=[str(tmp_path / "nope")], out=out) == 2
    assert any("no such path" in line for line in lines)


def test_json_report_schema(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], fmt="json", out=out) == 1
    report = json.loads("\n".join(lines))
    assert report["version"] == REPORT_VERSION
    assert report["counts"] == {"new": 1, "noqa": 0}
    assert "baseline" not in report
    assert report["noqa"] == []
    (finding,) = report["findings"]
    assert finding["rule"] == "det-unseeded-random"
    assert finding["line"] == 3
    assert finding["snippet"] == "jitter = random.random()"
    assert finding["fingerprint"]


def test_noqa_excuses_only_its_own_line(tmp_path):
    """An inline ``# repro: noqa[...]`` excuses its line and nothing else.

    One violation is noqa'd, one is active: the run fails and reports
    both, each in its own section.  Once the active line is gone, the
    noqa'd one alone leaves the run clean.
    """
    target = tmp_path / "drifty.py"
    noqa_line = "b = random.random()  # repro: noqa[det-unseeded-random]\n"
    target.write_text("import random\n\na = random.random()\n" + noqa_line)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], fmt="json", out=out) == 1
    report = json.loads("\n".join(lines))
    assert report["counts"] == {"new": 1, "noqa": 1}
    assert report["findings"][0]["snippet"] == "a = random.random()"

    target.write_text("import random\n\n" + noqa_line)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], out=out) == 0
    assert lines[-1] == "0 findings (1 suppressed inline)"


def test_repository_tree_is_lint_clean(shipped_lint):
    """Acceptance: ``repro lint`` runs clean on the shipped source tree.

    "Clean" means zero *active* findings; the tree's own deliberate
    ``# repro: noqa[...]`` exemptions (e.g. ``RunQueue.requeue``) are
    reported as inline-suppressed and never fail the run.
    """
    code, lines, report = shipped_lint
    assert code == 0, "\n".join(lines)
    assert report["counts"]["new"] == 0
    assert report["findings"] == []


def test_self_lint_suppressions_are_exactly_the_declared_ones(shipped_lint):
    """The gate stays honest: every inline noqa in the tree is accounted.

    Intentional churn must be suppressed at the site with a
    justification; this test pins the full list so a new suppression
    (or a rule silently going blind) shows up as a diff here.
    """
    code, _lines, report = shipped_lint
    assert code == 0
    assert report["findings"] == []
    suppressed = sorted(
        (f["rule"], Path(f["path"]).name) for f in report["noqa"]
    )
    assert suppressed == [
        ("coherence-unbumped-write", "runqueue.py"),
        ("coherence-unbumped-write", "runqueue.py"),
    ]
