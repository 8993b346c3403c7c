"""The shipped rule set of the offline sanity checker.

Every rule is grounded in an invariant this repository already depends on;
see each module's docstring for the contract it enforces and the incident
class it prevents.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Rule
from repro.analysis.rules.coherence import CoherenceRule
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.flags import FeatureFlagRule
from repro.analysis.rules.layering import LayeringRule, layering_rules
from repro.analysis.rules.orchestrator import OrchestratorForkSafetyRule
from repro.analysis.rules.perf import LoadBypassRule
from repro.analysis.rules.sloreg import SloRegistryRule
from repro.analysis.rules.taint import TaintRule
from repro.analysis.rules.tracepoints import TracepointConsistencyRule


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule (rules hold per-run state)."""
    rules: List[Rule] = [
        UnseededRandomRule(),
        WallClockRule(),
        SetIterationRule(),
        FeatureFlagRule(),
        LoadBypassRule(),
        CoherenceRule(),
        TaintRule(),
        TracepointConsistencyRule(),
        OrchestratorForkSafetyRule(),
        SloRegistryRule(),
    ]
    rules.extend(layering_rules())
    return rules


def split_rules(rules: List[Rule]) -> "tuple[List[Rule], List[Rule]]":
    """(per-file, cross-file) partition for the parallel runner.

    Per-file rules are stateless across files and may run in worker
    shards; cross-file rules accumulate whole-program state and must see
    every file in one process.  A rule counts as cross-file when it
    says so (``cross_file = True``) *or* when its class overrides
    :meth:`Rule.finalize`: finalize-time findings depend on every file
    the instance visited, so running such a rule inside a worker shard
    would emit per-shard results that vary with the shard split.  The
    attribute alone used to decide this, which silently sharded any
    finalize-carrying rule that forgot to set it -- ``-jN`` output then
    differed from ``-j1``.
    """
    per_file = [
        r for r in rules
        if not r.cross_file
        and type(r).finalize is Rule.finalize
    ]
    cross = [r for r in rules if r not in per_file]
    return per_file, cross


__all__ = [
    "default_rules",
    "split_rules",
    "CoherenceRule",
    "UnseededRandomRule",
    "WallClockRule",
    "SetIterationRule",
    "FeatureFlagRule",
    "LayeringRule",
    "LoadBypassRule",
    "OrchestratorForkSafetyRule",
    "SloRegistryRule",
    "TaintRule",
    "layering_rules",
    "TracepointConsistencyRule",
]
