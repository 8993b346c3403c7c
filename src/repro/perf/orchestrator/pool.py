"""Sharded trial execution across a ``multiprocessing`` worker pool.

The pool is deliberately boring: the parent enumerates ``(index, spec)``
pairs, workers execute them in whatever order the pool hands them out,
and the parent reassembles results by index -- so the merged output is
in spec order no matter how execution interleaved, and a ``--jobs 4``
run is byte-identical to ``--jobs 1``.

Worker determinism (both ``fork`` and ``spawn`` start methods):

* Every trial function rebuilds its entire world -- system, RNGs,
  observability registries -- from the spec, inside the worker.  Specs
  are plain data, so nothing stateful crosses the process boundary.
* Before each trial the worker resets the interpreter-global ``random``
  state from the spec fingerprint.  The simulator never draws from the
  global generator (the ``det-unseeded-random`` lint rule enforces it),
  but a ``fork``-started worker inherits the parent's state and a
  ``spawn``-started one gets a fresh seed; pinning it to the spec makes
  any stray draw identical across start methods, worker counts, and
  execution orders instead of silently order-dependent.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.orchestrator.spec import TrialResult, TrialSpec, resolve_kind

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable selecting the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count to use: argument, ``REPRO_JOBS``, or serial.

    ``None`` falls back to the environment and then to 1 (serial -- the
    default keeps existing behavior unchanged); 0 means "one worker per
    available core"; negative counts are rejected.
    """
    source = "jobs"
    if jobs is None:
        raw = os.environ.get(JOBS_ENV)
        if raw is None or raw.strip() == "":
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
        source = JOBS_ENV
    if jobs < 0:
        raise ValueError(f"{source} must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def resolve_start_method(method: Optional[str] = None) -> Optional[str]:
    """Validate the requested start method (``REPRO_START_METHOD`` aware).

    ``None`` defers to the platform default; anything else must be one of
    the methods this interpreter supports (``fork``, ``spawn``,
    ``forkserver``).
    """
    if method is None:
        method = os.environ.get(START_METHOD_ENV) or None
    if method is None:
        return None
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available "
            f"(choose from {', '.join(available)})"
        )
    return method


@dataclass
class ExecutedTrial:
    """One trial's execution record, as shipped back from a worker."""

    index: int
    result: TrialResult
    wall_seconds: float
    worker: str


def _scrub_global_rng(spec: TrialSpec) -> None:
    """Reset the interpreter-global RNG to a spec-derived state.

    Uses only the seeded-``Random`` idiom the determinism lint allows:
    the global generator's state becomes that of a fresh
    ``Random(<spec fingerprint>)``, erasing anything inherited across
    ``fork`` or accumulated from earlier trials in this worker.
    """
    derived = int(spec.fingerprint()[:16], 16)
    random.setstate(random.Random(derived).getstate())


def _execute_one(
    item: Tuple[int, TrialSpec], worker: Optional[str] = None
) -> ExecutedTrial:
    """Run one spec in the current process (the pool's worker entry point).

    The record names ``worker``, or the pool worker's process name when
    none is given.
    """
    index, spec = item
    _scrub_global_rng(spec)
    fn = resolve_kind(spec.kind)
    start = time.perf_counter()
    result = fn(spec)
    wall = time.perf_counter() - start
    if worker is None:
        import multiprocessing

        worker = multiprocessing.current_process().name
    return ExecutedTrial(
        index=index, result=result, wall_seconds=wall, worker=worker
    )


#: Parent-side completion hook: called once per finished trial, in
#: completion (not spec) order.
OnResult = Callable[[ExecutedTrial], None]


def run_pool(
    items: Sequence[Tuple[int, TrialSpec]],
    jobs: int,
    start_method: Optional[str] = None,
    on_result: Optional[OnResult] = None,
) -> List[ExecutedTrial]:
    """Execute ``items`` with ``jobs`` workers; results in input order.

    With one job (or one item) everything runs inline in the parent --
    no pool, no pickling, identical code path to the historical serial
    drivers.  Otherwise a pool executes items as they become free
    (``imap_unordered``, chunk size 1, so one slow trial never convoys
    the queue behind it) and the parent slots results back by index.
    """
    executed: Dict[int, ExecutedTrial] = {}
    if jobs <= 1 or len(items) <= 1:
        for item in items:
            record = _execute_one(item, worker="serial")
            executed[record.index] = record
            if on_result is not None:
                on_result(record)
    else:
        import multiprocessing

        ctx = multiprocessing.get_context(resolve_start_method(start_method))
        workers = min(jobs, len(items))
        with ctx.Pool(processes=workers) as pool:
            for record in pool.imap_unordered(
                _execute_one, list(items), chunksize=1
            ):
                executed[record.index] = record
                if on_result is not None:
                    on_result(record)
    return [executed[index] for index, _ in items]
