"""Compare two suite result files metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both are ``run.py --out`` files of
the same benchmark settings.  One row per workload and end-to-end metric
gives each side's median and quartiles, the share of pairs ``B`` wins
(pairs are the i-th runs of each side, which a suite takes in
alternation), and a verdict against the bound in ``BENCHMARK.json``:

* ``improved``   -- B wins at least 9 in 10 pairs and the medians differ
  by more than A's own quartile spread;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the runs spread wider than the bound, so the bound
  cannot be read, unless every B run beats every A run;
* ``unchanged``  -- otherwise.

Digests are compared per (workload, seed), and any rise in the share of
failed operations is reported.  Exit status 1 flags a regression, a
digest difference or new failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"

#: Share of pairs B must win before a gain is claimed.
WIN_SHARE = 0.9


def load_benchmark(path: Path = BENCHMARK) -> Dict[str, object]:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _runs(doc: Dict[str, object], workload: str) -> List[Dict[str, object]]:
    runs = [r for r in doc["runs"] if r["workload"] == workload and not r["trace"]]
    return sorted(runs, key=lambda r: r["order"])


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, lower_better: bool
) -> Tuple[str, float]:
    """(verdict, share of pairs B wins) for one metric on one workload."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    gain = sign * (ma - mb)  # > 0 when B is better
    if share >= WIN_SHARE and gain > qa3 - qa1:
        return "improved", share
    spread = max(qa3 - qa1, qb3 - qb1) / ma if ma else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if -gain > bound * abs(ma) and (spread <= bound or all_worse):
        return "regressed", share
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(a_doc: Dict[str, object], b_doc: Dict[str, object],
            bench: Dict[str, object]) -> Tuple[List[str], bool]:
    """The report lines, and whether B is acceptable."""
    lines: List[str] = []
    ok = True
    header = (f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':<30} "
              f"{'B median [q1, q3]':<30} {'B wins':>6}  verdict")
    lines.append(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs, b_runs = _runs(a_doc, workload), _runs(b_doc, workload)
        if not a_runs or not b_runs:
            lines.append(f"{workload:<12} (missing on one side)")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            lower = metric["better"] == "lower"
            result, share = verdict(a, b, metric["bound"], lower)
            ok &= result != "regressed"
            lines.append(
                f"{workload:<12} {name:<12} {_cell(a):<30} {_cell(b):<30} "
                f"{share:>6.0%}  {result}"
            )
        a_fail, b_fail = _fail_frac(a_runs), _fail_frac(b_runs)
        if b_fail > a_fail:
            ok = False
            lines.append(f"{workload:<12} fail_frac rose {a_fail:.4f} -> {b_fail:.4f}")
        digests = _digest_check(a_runs, b_runs)
        ok &= digests != "differ"
        lines.append(f"{workload:<12} digests {digests}")
    return lines, ok


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def _fail_frac(runs: Sequence[Dict[str, object]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _digest_check(a_runs: Sequence[Dict[str, object]],
                  b_runs: Sequence[Dict[str, object]]) -> str:
    a = {r["seed"]: r["digest"] for r in a_runs}
    b = {r["seed"]: r["digest"] for r in b_runs}
    common = sorted(set(a) & set(b))
    if not common:
        return "not comparable (no common seed)"
    same = [s for s in common if a[s] == b[s]]
    if len(same) == len(common):
        return f"equal on seeds {', '.join(map(str, common))}"
    return "differ"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="parent's run.py --out file")
    parser.add_argument("b", type=Path, help="change's run.py --out file")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with path.open(encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, ok = compare(docs[0], docs[1], load_benchmark())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
