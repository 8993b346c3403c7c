"""The on-disk content-addressed trial cache under ``.repro-cache/``.

A cache entry is addressed by two digests:

* the **spec fingerprint** -- SHA-256 of the trial's canonical identity
  (:meth:`TrialSpec.fingerprint`); and
* the **source-tree digest** -- SHA-256 over every ``.py`` file of the
  packages whose behavior feeds trial results (the scheduler model, the
  simulator, the workloads, the experiment drivers and their supporting
  layers).

The source-tree digest is the invalidation story: editing
``repro/sched/*.py`` changes it, so every cached trial silently misses
and reruns against the new scheduler; editing documentation, the static
analyzer, the CLI, or the orchestrator itself leaves it unchanged, so a
``repro report`` after a doc-only commit is answered from disk.  Entries
are plain JSON (row + schedule digest + counters), written atomically so
concurrent workers never observe a torn file.  Artifacts (trace buffers)
are deliberately not cached -- specs that need them set ``cache=False``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.perf.orchestrator.spec import TrialResult, TrialSpec

#: Cache layout version; bump when the entry schema changes.
CACHE_VERSION = 1

#: Default cache directory (relative to the working directory);
#: ``REPRO_CACHE_DIR`` overrides it.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Packages under ``repro/`` whose source feeds trial results.  Everything
#: a trial's row can depend on is here: the scheduler model, the
#: simulator, workloads and topologies, the experiment drivers, the bug
#: registry/sanity checker (``core``), statistics, trace probes (``viz``),
#: the obs layer (latency columns) and the SLO trial functions (``slo``).
#: Deliberately absent: ``analysis``
#: (offline lint), ``perf`` (this orchestrator), and the CLI -- editing
#: those cannot change what a trial computes, so cached rows survive.
DEFAULT_CODE_PACKAGES: Tuple[str, ...] = (
    "core",
    "experiments",
    "modular",
    "obs",
    "sched",
    "sim",
    "slo",
    "stats",
    "topology",
    "viz",
    "workloads",
)

PathLike = Union[str, Path]


def source_tree_digest(
    root: Optional[PathLike] = None,
    packages: Tuple[str, ...] = DEFAULT_CODE_PACKAGES,
) -> str:
    """SHA-256 over the ``.py`` files of the result-relevant packages.

    ``root`` defaults to the installed ``repro`` package directory.  Only
    Python sources are hashed -- docs, JSON baselines and bytecode do not
    perturb the digest -- and files are folded in sorted relative-path
    order so the digest is stable across filesystems.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    hasher = hashlib.sha256()
    for package in packages:
        package_dir = root / package
        if not package_dir.is_dir():
            continue
        for path in sorted(package_dir.rglob("*.py")):
            hasher.update(path.relative_to(root).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
    return hasher.hexdigest()


class ResultCache:
    """Content-addressed store of trial rows keyed by spec + source digest."""

    def __init__(
        self,
        root: Optional[PathLike] = None,
        code_digest: Optional[str] = None,
    ):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.code_digest = (
            code_digest if code_digest is not None else source_tree_digest()
        )
        #: The current digest's shard directory, as a string: lookups
        #: join entry names onto it instead of building ``Path`` objects.
        self._shard_dir = os.path.join(
            self.root, f"v{CACHE_VERSION}", self.code_digest[:16]
        )
        #: Tallies for utilization summaries.
        self.hits = 0
        self.misses = 0

    def _entry_file(self, spec: TrialSpec) -> str:
        return os.path.join(self._shard_dir, f"{spec.fingerprint()}.json")

    def entry_path(self, spec: TrialSpec) -> Path:
        """Where this spec's entry lives under the current source digest."""
        return Path(self._entry_file(spec))

    def get(self, spec: TrialSpec) -> Optional[TrialResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        A corrupt or schema-incompatible entry counts as a miss (it will
        be overwritten by the next :meth:`put`), never an error.
        """
        # One unbuffered binary read, then a str parse: no text wrapper,
        # and ``json.loads`` skips its encoding sniff.  Bytes that are not
        # UTF-8 raise ``UnicodeDecodeError``, a ``ValueError``: a miss.
        try:
            with open(self._entry_file(spec), "rb", buffering=0) as fh:
                data = json.loads(fh.readall().decode("utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(data, dict):
            self.misses += 1
            return None
        row = data.get("row")
        digest = data.get("schedule_digest")
        if not isinstance(row, dict) or not isinstance(digest, str):
            self.misses += 1
            return None
        stats_raw = data.get("stats")
        stats: Dict[str, int] = {}
        if isinstance(stats_raw, dict):
            for key, value in stats_raw.items():
                if isinstance(value, int):
                    stats[str(key)] = value
        self.hits += 1
        return TrialResult(row=row, schedule_digest=digest, stats=stats)

    def put(
        self, spec: TrialSpec, result: TrialResult, wall_seconds: float = 0.0
    ) -> Path:
        """Store one executed trial's row (atomically; artifact excluded)."""
        fingerprint = spec.fingerprint()
        path = os.path.join(self._shard_dir, f"{fingerprint}.json")
        os.makedirs(self._shard_dir, exist_ok=True)
        entry: Dict[str, object] = {
            "version": CACHE_VERSION,
            "code_digest": self.code_digest,
            "spec": spec.canonical(),
            "row": result.row,
            "schedule_digest": result.schedule_digest,
            "stats": result.stats,
            "wall_seconds": round(wall_seconds, 4),
        }
        # Write-then-rename so a concurrent reader (another worker, another
        # process) sees either the old entry or the new one, never a torn
        # file.  The temp name is per-pid to keep writers from colliding.
        tmp = os.path.join(
            self._shard_dir, f"{fingerprint}.{os.getpid()}.tmp"
        )
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return Path(path)

    def entry_count(self) -> int:
        """How many entries exist under the current source digest."""
        shard = Path(self._shard_dir)
        if not shard.is_dir():
            return 0
        return sum(1 for _ in shard.glob("*.json"))
