"""Trial specifications: the unit of work the orchestrator shards.

A :class:`TrialSpec` names one independent experiment trial -- one
(scenario, seed, features, scale, deadline) point of an evaluation grid --
as plain picklable data.  The executable half is referenced by a
``"module:function"`` string (``kind``) rather than a callable, so a spec
crosses a ``fork`` or ``spawn`` process boundary without dragging live
objects (systems, observability sessions, RNGs) with it: the worker
imports the module and rebuilds everything from the spec alone, which is
what makes sharded execution bit-identical to a serial run.

The trial function receives the spec and returns a :class:`TrialResult`:
a JSON-able ``row`` (what tables/figures render), a ``schedule_digest``
(a SHA-256 fingerprint of the simulated schedule, the equivalence
witness), optional integer ``stats`` (event/balance/migration counters),
and an optional ``artifact`` -- an arbitrary in-memory payload (e.g. a
trace buffer for heatmap rendering) that is shipped back to the parent
but never cached.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sched.features import SchedFeatures

#: The one canonical encoder every fingerprint uses.  ``json.dumps(...,
#: sort_keys=True)`` would build a fresh ``JSONEncoder`` per call; this
#: one has the same settings, so it emits the same bytes and every cache
#: key and scrub seed stays what it was.
_CANONICAL = json.JSONEncoder(sort_keys=True)


@dataclass
class TrialResult:
    """What one executed trial produced."""

    #: JSON-able result row; everything a table/figure needs to render.
    row: Dict[str, object]
    #: SHA-256 fingerprint of the simulated schedule; serial and parallel
    #: runs of the same spec must produce the same digest.
    schedule_digest: str
    #: Integer run counters (sim_us, events_fired, ...) for utilization
    #: and throughput accounting; cached alongside the row.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Arbitrary in-memory payload (e.g. a trace buffer).  Returned to
    #: the caller but never written to the result cache.
    artifact: Any = None


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial of an experiment grid (picklable, hashable).

    ``kind`` is a ``"module:function"`` reference resolved inside the
    executing process; ``params`` carries kind-specific knobs as string
    pairs so the spec stays canonically serializable.
    """

    kind: str
    scenario: str
    seed: int
    features: Tuple[str, ...] = ()
    scale: float = 1.0
    deadline_us: int = 0
    params: Tuple[Tuple[str, str], ...] = ()
    #: Execution policy, not identity: specs whose results are
    #: wall-clock measurements or carry artifacts opt out of the cache.
    cache: bool = True

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The value of one kind-specific parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def kind_name(self) -> str:
        """The bare function name of ``kind`` (for labels and progress)."""
        return self.kind.rsplit(":", 1)[-1]

    @property
    def label(self) -> str:
        """A short human-readable identity for progress lines.

        The sorted ``fix:*`` features are appended, so a buggy/fixed pair
        of the same scenario gets two labels.  Not part of
        :meth:`canonical`: fingerprints and cache keys ignore it.
        """
        fixes = sorted(t for t in self.features if t.startswith("fix:"))
        return "+".join([f"{self.kind_name}:{self.scenario}", *fixes])

    def canonical(self) -> Dict[str, object]:
        """The identity of this trial as a plain JSON-able mapping.

        Excludes ``cache`` (execution policy) -- two specs that differ
        only in caching policy are the same trial.
        """
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "seed": self.seed,
            "features": list(self.features),
            "scale": repr(self.scale),
            "deadline_us": self.deadline_us,
            "params": {k: v for k, v in self.params},
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical form; the cache key's spec half."""
        payload = _CANONICAL.encode(self.canonical())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The signature every trial function implements.
TrialFn = Callable[[TrialSpec], TrialResult]


def resolve_kind(kind: str) -> TrialFn:
    """Import and return the trial function named by ``module:function``."""
    module_name, _, func_name = kind.partition(":")
    if not module_name or not func_name:
        raise ValueError(
            f"trial kind must be 'module:function', got {kind!r}"
        )
    module = importlib.import_module(module_name)
    fn = getattr(module, func_name, None)
    if fn is None or not callable(fn):
        raise ValueError(f"{module_name} has no trial function {func_name!r}")
    return fn  # type: ignore[no-any-return]


def build_features(
    tokens: Tuple[str, ...], base: SchedFeatures = SchedFeatures()
) -> SchedFeatures:
    """Apply a spec's feature tokens on top of ``base``.

    Tokens are the canonical, order-insensitive encoding trial specs use:
    ``fix:<name>`` enables one paper fix, ``no_autogroup`` disables the
    autogroup feature, ``v43`` selects the reworked load metric, and
    ``fastpath_off`` disables the simulator fast path (the reference path
    every report trial is checked against in ``tests/test_cross_path.py``).
    An unknown token raises ``ValueError``.
    """
    features = base
    for token in tokens:
        if token.startswith("fix:"):
            features = features.with_fixes(token[len("fix:"):])
        elif token == "no_autogroup":
            features = features.without_autogroup()
        elif token == "v43":
            features = features.with_v43_load_metric()
        elif token == "fastpath_off":
            features = features.with_fastpath(False)
        else:
            raise ValueError(f"unknown feature token {token!r}")
    return features


def feature_tokens(
    *fixes: str, autogroup: bool = True
) -> Tuple[str, ...]:
    """The token tuple for a fix set (the builders' convenience inverse)."""
    tokens = tuple(f"fix:{name}" for name in fixes)
    if not autogroup:
        tokens = tokens + ("no_autogroup",)
    return tokens
