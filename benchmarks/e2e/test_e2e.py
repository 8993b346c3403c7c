"""Self-test of the end-to-end benchmark, at smoke size (about 25 s).

    pytest benchmarks/e2e -q

Every check drives ``run.py`` the way BENCHMARK.json's command does, in a
subprocess, with tiny operations and one second of timing per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import load_benchmark, verdict  # noqa: E402

RUN = HERE / "run.py"
BENCH = load_benchmark()

#: The smoke size: tiny operations, timed for one second.
SMOKE = ("--smoke", "--seconds", "1")

Result = Tuple[int, Dict[str, Any], Dict[str, Any]]


def _run(out: Path, workload: str, trace: int, *extra: str) -> Result:
    """(exit status, last stdout line, full --out record) of one run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--trace", str(trace),
         "--out", str(out), *SMOKE, *extra],
        capture_output=True, text=True, timeout=120,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Result]:
    tmp = tmp_path_factory.mktemp("e2e")
    plan = {
        "soak64": ("soak64", 0),
        "soak64-traced": ("soak64", 1),
        "soak64-traced-again": ("soak64", 1),
        "bugsweep": ("bugsweep", 0),
        "report_cold": ("report_cold", 0),
        "report_warm": ("report_warm", 0),
        "report_warm-traced": ("report_warm", 1),
    }
    return {key: _run(tmp / f"{key}.json", w, t) for key, (w, t) in plan.items()}


def test_metric_names_match_benchmark(runs: Dict[str, Result]) -> None:
    for key, (status, last, record) in runs.items():
        kind = "per_layer" if record["trace"] else "end_to_end"
        assert status == 0, key
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_every_workload_runs_correctly(runs: Dict[str, Result]) -> None:
    # No smoke digest is committed, so each run is checked by its
    # workload's reference: bugsweep also checks the paper's shape, and
    # report_cold reruns trials serially against its two-worker pool.
    for key in ("soak64", "bugsweep", "report_cold", "report_warm"):
        _, last, record = runs[key]
        assert last["correct"] and last["failed"] == 0, key
        assert record["expected"] == record["digest"], key
    assert runs["report_cold"][2]["detail"]["orch_utilization"] > 0


def test_traced_and_untraced_runs_give_the_same_digest(runs: Dict[str, Result]) -> None:
    for workload in ("soak64", "report_warm"):
        plain, traced = runs[workload][2], runs[f"{workload}-traced"][2]
        assert plain["correct"] and traced["correct"]
        assert plain["digest"] == traced["digest"]


def test_layer_call_counts_repeat_exactly(runs: Dict[str, Result]) -> None:
    first, again = (runs[k][1]["metrics"] for k in ("soak64-traced", "soak64-traced-again"))
    counts = [k for k in first if k.endswith((".calls", ".events", ".executed"))]
    assert first["sim.events"]["value"] > 0
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_layer_self_times_partition_the_traced_wall(runs: Dict[str, Result]) -> None:
    for key in ("soak64-traced", "report_warm-traced"):
        record = runs[key][2]
        self_s = sum(v["self_s"] for v in record["layers"].values())
        assert self_s == pytest.approx(record["traced_wall_s"], rel=0.02)


def test_planted_digest_mismatch_fails_the_run(tmp_path: Path) -> None:
    planted = tmp_path / "digests.json"
    planted.write_text(json.dumps({"smoke": {"soak64": {"42": "0" * 64}}}))
    status, last, _ = _run(tmp_path / "out.json", "soak64", 0, "--digests", str(planted))
    assert status != 0
    assert last["correct"] is False
    assert last["failed"] / last["attempted"] > 0


@pytest.mark.parametrize("b, expected", [
    ([80, 81, 79, 80, 82, 80, 81, 79, 80, 81], "improved"),
    ([100, 101, 99, 100, 102, 100, 101, 99, 100, 101], "unchanged"),
    ([130, 131, 129, 130, 132, 130, 131, 129, 130, 131], "regressed"),
    ([60, 140, 70, 150, 65, 145, 70, 150, 60, 140], "unresolved"),
])
def test_compare_verdicts(b: list, expected: str) -> None:
    a = [100, 101, 99, 100, 102, 100, 101, 99, 100, 101]
    assert verdict(a, b, bound=0.1, lower_better=True)[0] == expected
