"""BENCH_*.json trajectory files: persist, compare, and render bench runs.

The trajectory is an append-only JSON document::

    {
      "version": 1,
      "runs": [
        {
          "label": "pr3",
          "quick": false,
          "benchmarks": {
            "table4": {
              "name": "table4",
              "quick": false,
              "fast": {"wall_seconds": ..., "events_per_sec": ..., ...},
              "baseline": {...} | null,
              "speedup": 2.2 | null,
              "digest": "<sha256 of the seeded schedule>",
              "digest_match": true | false | null,
              "slo": {"wakeup_p50_us": ..., "wakeup_p95_us": ...,
                      "wakeup_p99_us": ..., "jitter_us": ...,
                      "samples": ...} | null
            },
            ...
          }
        },
        ...
      ]
    }

Each CI run appends one entry, so the file records the speedup (and the
determinism digest) over the repository's history.  ``check_digests``
compares freshly measured digests against the most recent stored run: a
mismatch means the schedule changed, which is either an intentional
behavior change (re-baseline by committing the new file) or a
determinism regression (fix it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.perf.bench import BenchResult, ModeMetrics

_VERSION = 1

PathLike = Union[str, Path]


def load_trajectory(path: PathLike) -> Dict[str, object]:
    """Read a trajectory file; a missing file is an empty trajectory."""
    p = Path(path)
    if not p.exists():
        return {"version": _VERSION, "runs": []}
    with p.open() as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "runs" not in data:
        raise ValueError(f"{p}: not a bench trajectory file")
    return data


def append_run(
    path: PathLike,
    results: Sequence[BenchResult],
    label: str = "",
    jobs: int = 1,
) -> Dict[str, object]:
    """Append one run (a set of benchmark results) to the trajectory.

    ``jobs`` records the parallelism the run used (the ``--jobs`` knob of
    ``repro bench``), so a trajectory reader can normalize wall-clock
    numbers across runs taken on different worker counts.
    """
    data = load_trajectory(path)
    runs = data["runs"]
    assert isinstance(runs, list)
    runs.append(
        {
            "label": label,
            "quick": any(r.quick for r in results),
            "jobs": jobs,
            "benchmarks": {r.name: r.to_json() for r in results},
        }
    )
    p = Path(path)
    with p.open("w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def _latest_digests(data: Dict[str, object]) -> Dict[str, str]:
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return {}
    latest = runs[-1]
    benchmarks = latest.get("benchmarks") if isinstance(latest, dict) else None
    digests: Dict[str, str] = {}
    if not isinstance(benchmarks, dict):
        return digests
    for name, bench in benchmarks.items():
        digest = bench.get("digest") if isinstance(bench, dict) else None
        if isinstance(digest, str):
            digests[name] = digest
    return digests


def stored_digests(path: PathLike) -> Dict[str, str]:
    """The digests of the most recent run stored in ``path``.

    Unlike :func:`load_trajectory`, a missing file is an error, and so is
    a trajectory whose latest run holds no digest: comparing against
    either would pass vacuously.  Raises ``OSError`` for a missing or
    unreadable file and ``ValueError`` for a corrupt or digest-less one.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{p}: no such trajectory file")
    digests = _latest_digests(load_trajectory(p))
    if not digests:
        raise ValueError(f"{p}: the latest run stores no digests")
    return digests


def check_digests(
    path: PathLike,
    results: Sequence[BenchResult],
) -> List[Tuple[str, str, str]]:
    """Compare fresh digests against the most recent stored run.

    Returns ``(benchmark, stored, fresh)`` for every mismatch.
    Benchmarks absent from the stored run are ignored (new benchmarks
    have no baseline to regress against), and so is a missing file; a
    caller that needs a baseline validates it with :func:`stored_digests`.
    """
    stored = _latest_digests(load_trajectory(path))
    mismatches: List[Tuple[str, str, str]] = []
    for result in results:
        expected = stored.get(result.name)
        if expected is not None and expected != result.digest:
            mismatches.append((result.name, expected, result.digest))
    return mismatches


def format_trend(data: Dict[str, object]) -> str:
    """Render a trajectory as one aligned per-benchmark history table.

    Rows are grouped by benchmark and ordered by run, so the speedup
    (and digest stability) trend of each workload reads top to bottom:
    run id, measured variant, wall seconds, speedup over baseline, and
    whether the digest check passed.  ``repro bench --trend`` prints
    this for a committed ``BENCH_*.json`` without re-running anything.
    """
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return "(empty trajectory)"
    names: List[str] = []
    for run in runs:
        for name in run.get("benchmarks", {}):
            if name not in names:
                names.append(name)
    header = ("benchmark", "run", "variant", "wall(s)", "speedup",
              "digest_match")
    rows: List[Tuple[str, ...]] = [header]
    for name in names:
        first = True
        for index, run in enumerate(runs):
            bench = run.get("benchmarks", {}).get(name)
            if not isinstance(bench, dict):
                continue
            label = run.get("label") or ""
            run_id = f"{index}:{label}" if label else str(index)
            if run.get("quick"):
                run_id += " (quick)"
            fast = bench.get("fast")
            wall = (
                f"{fast['wall_seconds']:.3f}"
                if isinstance(fast, dict) and "wall_seconds" in fast
                else "-"
            )
            speedup = bench.get("speedup")
            match = bench.get("digest_match")
            rows.append((
                name if first else "",
                run_id,
                str(bench.get("variant", "fast")),
                wall,
                f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-",
                "-" if match is None else str(bool(match)).lower(),
            ))
            first = False
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def format_results(results: Sequence[BenchResult]) -> str:
    """Render results as an aligned text table."""
    header = (
        "benchmark", "mode", "wall(s)", "events/s", "balance/s", "speedup",
    )
    rows: List[Tuple[str, ...]] = [header]
    for result in results:
        primary = result.variant
        modes: List[Tuple[str, ModeMetrics]] = [(primary, result.fast)]
        if result.baseline is not None:
            modes.append(("baseline", result.baseline))
        for mode_name, metrics in modes:
            speedup = result.speedup
            rows.append(
                (
                    result.name if mode_name == primary else "",
                    mode_name,
                    f"{metrics.wall_seconds:.3f}",
                    f"{metrics.events_per_sec:,.0f}",
                    f"{metrics.balance_calls_per_sec:,.0f}",
                    (
                        f"{speedup:.2f}x"
                        if mode_name == primary and speedup is not None
                        else ""
                    ),
                )
            )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    for result in results:
        slo = result.slo
        if slo:
            lines.append(
                f"SLO {result.name}: wakeup p50/p95/p99 = "
                f"{slo.get('wakeup_p50_us')}/{slo.get('wakeup_p95_us')}/"
                f"{slo.get('wakeup_p99_us')}us, jitter "
                f"{slo.get('jitter_us')}us (n={slo.get('samples')})"
            )
    for result in results:
        if result.digests:
            short = ", ".join(
                f"{v}={d[:12]}" for v, d in result.digests.items()
            )
            lines.append(f"digests {result.name}: {short}")
        if result.digest_match is False:
            lines.append(
                f"DIGEST MISMATCH: {result.name} schedules differ between "
                "variants"
            )
    return "\n".join(lines)
