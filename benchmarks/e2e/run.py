"""End-to-end benchmark of the simulator: four workloads, timed from outside.

One workload, one run (the form of ``command`` in BENCHMARK.json):

    python3 benchmarks/e2e/run.py --workload soak64 --seed 7 --seconds 20 --trace 0

The suite (every workload, each repeat in a fresh subprocess, workloads
taken round-robin so host drift spreads evenly over them):

    PYTHONPATH=src python3 benchmarks/e2e/run.py --repeats 5 --out A.json
    PYTHONPATH=src python3 benchmarks/e2e/run.py --repeats 1 --traced

A run sets up (imports plus the inputs made from ``--seed``), then runs
operations back to back until the next one would overrun ``--seconds``,
then checks every operation's digest.  It prints a table, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics -- the end-to-end ones of ``BENCHMARK.json`` with ``--trace 0``,
the per-layer ones with ``--trace 1``.  The exit status is 0 only when
every operation was correct.
"""

from __future__ import annotations

import time

#: Set-up is measured from here: the imports of the program are in it.
T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

from compare import load_benchmark, percentile, quartiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Scratch space inside the checkout; every run removes its own subdir.
WORKDIR = ROOT / ".bench_build" / "e2e"

#: Committed digests: {"full"|"smoke": {workload: {seed: sha256}}}.
DIGESTS = HERE / "digests.json"

#: Set-ups per run whose median is ``setup_s``: this process plus fresh
#: interpreters that import and set up the same way.  One set-up per run
#: spread up to 0.25 across runs, as wide as the metric's bound; the
#: median of five stayed under 0.11 (calibration.json).
SETUP_SAMPLES = 5

#: The shared host's speed drifts by tens of percent within seconds to
#: minutes, and every workload drifts with it.  So a run also times a
#: fixed loop of standard-library work (no code of the program under
#: test) by its thread's CPU time, which contention on the host stretches
#: but waiting for a core does not.  Each operation's time is scaled by
#: REF_LOOP_S over the median of the loops timed within LOCAL_S of it,
#: so it reads as if the loop took REF_LOOP_S, its median on the
#: calibration host (2-vCPU VM, CPython 3.11.7).  Raw wall times are kept
#: as ``wall_*`` detail metrics.
#:
#: PROBE_REPS loops are timed between operations, at most every
#: PROBE_EVERY_S, and never while one runs: the load an operation puts on
#: the host (report_cold's pool workers) must not slow the loop its own
#: time is scaled by.
REF_LOOP_ITERATIONS = 5_000
REF_LOOP_S = 0.0036
LOCAL_S = 1.5
PROBE_EVERY_S = 1.0
PROBE_REPS = 5

#: (start, seconds) of one timed operation or reference loop.
Span = Tuple[float, float]

#: Units of the metrics printed beside the BENCHMARK.json ones.
DETAIL_UNITS = {
    "ops": "count",
    "failed": "count",
    "fail_frac": "ratio",
    "timed_s": "s",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
    "wall_p50_ms": "ms",
    "setup_wall_s": "s",
    "ref_loop_ms": "ms",
    "sim_s_per_s": "s/s",
    "trial_p50_s": "s",
    "trial_p80_s": "s",
    "orch_utilization": "ratio",
    "orch_idle_s": "s",
    "cache_hit_ratio": "ratio",
    "fill_s": "s",
}


@dataclass
class Timing:
    """The timed phase, folded as operations finish.

    Only the first successful result is kept whole; later ones are
    reduced to their digest and samples, so the benchmark's own memory
    stays out of ``peak_rss_mb``.
    """

    plain: List[Span] = field(default_factory=list)  # untraced operations
    traced: List[Span] = field(default_factory=list)
    loops: List[Span] = field(default_factory=list)  # in time order
    digests: Counter = field(default_factory=Counter)  # digest -> operations
    first: Any = None  # workloads.OpResult
    sim_us: List[int] = field(default_factory=list)  # per untraced operation
    samples: Dict[str, List[float]] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.plain) + len(self.traced)

    def probe(self) -> None:
        self.loops += [(time.perf_counter(), reference_loop()) for _ in range(PROBE_REPS)]

    def failed(self, expected: Optional[str]) -> int:
        """Operations that raised or returned another digest."""
        return self.attempted - self.digests.get(expected, 0)

    def add(self, span: Span, traced: bool, result: Any) -> None:
        (self.traced if traced else self.plain).append(span)
        if result is None:
            if not traced:
                self.sim_us.append(0)
            return
        self.digests[result.digest] += 1
        if self.first is None:
            self.first = result
        if not traced:
            self.sim_us.append(result.sim_us)
            for key, values in result.samples.items():
                self.samples.setdefault(key, []).extend(values)

    def normalized(self, spans: Sequence[Span]) -> List[float]:
        """Seconds of each operation, scaled by the loops timed near it."""
        times = [t for t, _ in self.loops]
        out = []
        for start, seconds in spans:
            lo = bisect.bisect_left(times, start - LOCAL_S)
            hi = bisect.bisect_right(times, start + seconds + LOCAL_S)
            near = self.loops[lo:hi] or self.loops
            out.append(seconds * REF_LOOP_S / statistics.median(s for _, s in near))
        return out


# -- host -------------------------------------------------------------------


def reference_loop() -> float:
    """CPU seconds one pass of the fixed reference loop takes here now."""
    heap: List[Tuple[int, int]] = []
    sums: Dict[int, int] = {}
    start = time.thread_time()
    for i in range(REF_LOOP_ITERATIONS):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        sums[i % 97] = sums.get(i % 97, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.thread_time() - start


def _git(*argv: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), *argv],
        capture_output=True, text=True, timeout=60,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint(load_start: Tuple[float, float, float]) -> Dict[str, Any]:
    """Where and on what a run measured; every output JSON carries one."""
    from repro.perf.orchestrator import source_tree_digest
    from repro.sched.vec import make_ops

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vec_backend": make_ops("auto").name,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": commit or "unknown",
        "git_dirty": None if status is None else bool(status),
        "source_tree_digest": source_tree_digest(),
    }


# -- one workload -------------------------------------------------------------


def committed_digest(path: Path, smoke: bool, workload: str, seed: int) -> Optional[str]:
    with path.open(encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))


def _setup_sample() -> Span:
    """(set-up wall seconds so far, reference-loop seconds right after)."""
    wall = time.perf_counter() - T0
    return wall, statistics.median(reference_loop() for _ in range(PROBE_REPS))


def _probe_setup(args: argparse.Namespace) -> Span:
    """A set-up sample from a fresh interpreter doing this run's set-up."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    wall, loop = done.stdout.split()[-2:]
    return float(wall), float(loop)


def timed_ops(op: Any, fixture: Any, seconds: float, tracer: Any) -> Timing:
    """Operations back to back until the next would overrun ``seconds``.

    The reference loop is timed before the first operation, between
    operations when due, and after the last.  With a tracer, operations
    alternate untraced and traced (at least one of each), so the tracing
    overhead is measured on the same inputs.
    """
    timing = Timing()
    start = last_probe = time.perf_counter()
    timing.probe()
    while True:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            timing.probe()
            last_probe = time.perf_counter()
        traced = tracer is not None and timing.attempted % 2 == 1
        if traced:
            tracer.install()
        began = time.perf_counter()
        try:
            result = tracer.op(lambda: op(fixture)) if traced else op(fixture)
        except Exception:
            traceback.print_exc()
            result = None
        latency = time.perf_counter() - began
        if traced:
            tracer.uninstall()
        timing.add((began, latency), traced, result)
        timing.elapsed = time.perf_counter() - start
        pending_traced = tracer is not None and not timing.traced
        if timing.elapsed + latency > seconds and not pending_traced:
            timing.probe()
            return timing


def _detail(timing: Timing, setup: Sequence[Span], peak_rss_mb: float,
            extra: Dict[str, float], failed: int) -> Dict[str, float]:
    """Every metric of an untraced run; times scaled to the reference host."""
    seconds = timing.normalized(timing.plain)
    latency_ms = [s * 1e3 for s in seconds]
    detail: Dict[str, float] = {
        "op_p50_ms": statistics.median(latency_ms),
        "ops_per_s": len(seconds) / sum(seconds),
        "setup_s": statistics.median(wall * REF_LOOP_S / loop for wall, loop in setup),
        "peak_rss_mb": peak_rss_mb,
        "op_p90_ms": percentile(latency_ms, 90),
        "wall_p50_ms": statistics.median(s for _, s in timing.plain) * 1e3,
        "setup_wall_s": statistics.median(wall for wall, _ in setup),
        "ref_loop_ms": statistics.median(s for _, s in timing.loops) * 1e3,
        "ops": timing.attempted,
        "failed": failed,
        "fail_frac": failed / timing.attempted,
        "timed_s": timing.elapsed,
    }
    if len(latency_ms) >= 1000:  # ten samples beyond p99
        detail["op_p99_ms"] = percentile(latency_ms, 99)
    simulated = [(s, us) for s, us in zip(seconds, timing.sim_us) if us]
    if simulated:
        detail["sim_s_per_s"] = (
            sum(us for _, us in simulated) / 1e6 / sum(s for s, _ in simulated)
        )
    for key, values in sorted(timing.samples.items()):
        if key == "trial_s":
            detail["trial_p50_s"] = statistics.median(values)
            detail["trial_p80_s"] = percentile(values, 80)
        elif values:
            detail[key] = statistics.median(values)
    detail.update(extra)
    return detail


def _layer_metrics(timing: Timing, tracer: Any) -> Dict[str, float]:
    traced = statistics.median(timing.normalized(timing.traced))
    metrics = tracer.metrics(len(timing.traced))
    metrics["trace.root_ms"] = traced * 1e3
    metrics["trace.overhead_pct"] = (
        100.0 * (traced / statistics.median(timing.normalized(timing.plain)) - 1.0)
    )
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Config

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR, prefix=f"{args.workload}-"))
    try:
        fixture = workload.setup(Config(args.seed, workdir, args.smoke, bool(args.trace)))
        setup = [_setup_sample()]
        if args.setup_probe:
            print(*setup[0])
            return 0
        extra = workload.prepare(fixture)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        timing = timed_ops(workload.op, fixture, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The other set-ups start only now: four interpreters starting just
        # before the timed phase slowed its first reference loops up to 2x.
        if not args.smoke:
            setup += [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        first = timing.first
        expected = committed_digest(args.digests, args.smoke, workload.name, args.seed)
        if expected is None and first is not None:
            expected = workload.reference(fixture, first)
        failed = timing.failed(expected)
        detail = _detail(timing, setup, peak_rss_mb, extra, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bench = load_benchmark()
    values = _layer_metrics(timing, tracer) if tracer is not None else detail
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kind]}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": timing.attempted,
        "failed": failed,
        "digest": first.digest if first is not None else None,
        "expected": expected,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "detail": detail,
        "setup_samples": setup,
        "layers": tracer.layer_seconds() if tracer is not None else None,
        # Raw wall seconds of the traced operations, as timed from outside
        # the root span: the layers' self times must add up to this.
        "traced_wall_s": sum(s for _, s in timing.traced) if tracer is not None else None,
        "fingerprint": host_fingerprint(load_start),
    }
    _print_run(record, metrics)
    if failed:
        print(f"{workload.name}: {failed}/{timing.attempted} operations failed; "
              f"digest {record['digest']} expected {expected}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _print_run(record: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> None:
    fp = record["fingerprint"]
    print(f"host: python {fp['python']}, numpy {fp['numpy']}, "
          f"vec {fp['vec_backend']}, nproc {fp['nproc']}, "
          f"load {fp['loadavg_start'][0]:.2f}->{fp['loadavg_end'][0]:.2f}, "
          f"commit {fp['git_commit'][:12]}{'+dirty' if fp['git_dirty'] else ''}, "
          f"tree {fp['source_tree_digest'][:12]}")
    print(f"{record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"ops={record['attempted']} failed={record['failed']} "
          f"digest={str(record['digest'])[:16]}")
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    if not record["trace"]:
        rows += [(k, v, DETAIL_UNITS.get(k, "")) for k, v in record["detail"].items()
                 if k not in metrics]
    for name, value, unit in rows:
        print(f"  {name:<26} {value:>14.6g} {unit}")


# -- suite -----------------------------------------------------------------------


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int,
           out: Path) -> Dict[str, Any]:
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
           "--digests", str(args.digests)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode not in (0, 1) or not out.exists():
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} crashed (exit {done.returncode})")
    record = json.loads(out.read_text())
    out.unlink()
    status = "ok" if record["correct"] else "FAILED"
    print(f"  {workload:<12} seed={seed:<6} trace={trace} {status} "
          f"ops={record['attempted']}", flush=True)
    return record


def run_suite(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    load_start = os.getloadavg()
    runs: List[Dict[str, Any]] = []
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR, prefix="suite-") as tmp:
        out = Path(tmp) / "run.json"
        plan = [(name, args.seeds[rep % len(args.seeds)], 0)
                for rep in range(args.repeats) for name in names]
        if args.traced:
            plan += [(name, args.seeds[0], 1) for name in names for _ in range(2)]
        for order, (name, seed, trace) in enumerate(plan):
            record = _child(args, name, seed, trace, out)
            record["order"] = order
            runs.append(record)
    sys.path.insert(0, str(ROOT / "src"))
    doc = {"fingerprint": host_fingerprint(load_start), "seconds": args.seconds,
           "smoke": args.smoke, "runs": runs}
    ok = all(r["correct"] for r in runs)
    print(_suite_table(doc, bench, names))
    if args.traced:
        table, exact = _layer_table(doc, bench, names)
        print(table)
        ok &= exact
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def _suite_table(doc: Dict[str, Any], bench: Dict[str, Any], names: Sequence[str]) -> str:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    lines = [f"{'workload':<12} {'metric':<18} {'unit':<6} {'n':>3} "
             f"{'median':>12} {'q1':>12} {'q3':>12}"]
    for name in names:
        runs = [r for r in doc["runs"] if r["workload"] == name and not r["trace"]]
        if not runs:
            continue
        keys = [k for k in runs[0]["detail"] if all(k in r["detail"] for r in runs)]
        for key in keys:
            q1, med, q3 = quartiles([r["detail"][key] for r in runs])
            unit = units.get(key) or DETAIL_UNITS.get(key, "")
            lines.append(f"{name:<12} {key:<18} {unit:<6} {len(runs):>3} "
                         f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g}")
        digests = sorted({f"{r['seed']}:{str(r['digest'])[:12]}" for r in runs})
        lines.append(f"{name:<12} digests {' '.join(digests)}")
    return "\n".join(lines)


def _layer_table(doc: Dict[str, Any], bench: Dict[str, Any],
                 names: Sequence[str]) -> Tuple[str, bool]:
    """The per-layer split, and whether call counts repeated exactly."""
    lines: List[str] = []
    exact = True
    metric_names = [m["name"] for m in bench["per_layer"]]
    for name in names:
        runs = [r for r in doc["runs"] if r["workload"] == name and r["trace"]]
        if not runs:
            continue
        counts = [{k: v for k, v in r["metrics"].items()
                   if k.endswith((".calls", ".events", ".executed"))} for r in runs]
        repeat = all(c == counts[0] for c in counts)
        exact &= repeat
        lines.append(f"\n{name}: {len(runs)} traced runs, call counts "
                     f"{'repeat exactly' if repeat else 'DIFFER'}")
        lines.append(f"  {'layer':<18} {'calls/op':>12} {'self %':>8} {'self s':>10}")
        layers = runs[0]["layers"]
        share = sum(v["self_s"] for v in layers.values()) / runs[0]["traced_wall_s"]
        lines.append(f"  self times sum to {share:.2%} of the traced operations' wall time")
        for layer, totals in layers.items():
            self_pct = statistics.median(r["metrics"][f"{layer}.self_pct"] for r in runs)
            calls = runs[0]["metrics"].get(f"{layer}.calls", "")
            lines.append(f"  {layer:<18} {calls:>12} {self_pct:>8.2f} "
                         f"{totals['self_s']:>10.4f}")
        for key in metric_names:
            if key.split(".")[-1] in ("calls", "self_pct"):
                continue
            value = statistics.median(r["metrics"][key] for r in runs)
            lines.append(f"  {key:<26} {value:>12.6g}")
    return "\n".join(lines), exact


# -- entry point -----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="End-to-end simulator benchmark.")
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]],
                        help="run one workload in this process (else: the suite)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="how long one run times operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="committed digests to check against")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    suite = parser.add_argument_group("suite")
    suite.add_argument("--repeats", type=int, default=5)
    suite.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                       default=[42, 1729], help="seeds, cycled over the repeats")
    suite.add_argument("--traced", action="store_true",
                       help="add two traced runs per workload and print the layer split")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
