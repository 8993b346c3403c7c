"""The shipped rule set of the offline sanity checker.

Every rule is grounded in an invariant this repository already depends on;
see each module's docstring for the contract it enforces and the incident
class it prevents.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Rule
from repro.analysis.rules.determinism import (
    FloatSumRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.flags import FeatureFlagRule
from repro.analysis.rules.layering import LayeringRule, layering_rules
from repro.analysis.rules.orchestrator import OrchestratorForkSafetyRule
from repro.analysis.rules.perf import LoadBypassRule
from repro.analysis.rules.sloreg import SloRegistryRule


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule (rules hold per-run state)."""
    rules: List[Rule] = [
        UnseededRandomRule(),
        WallClockRule(),
        SetIterationRule(),
        FloatSumRule(),
        FeatureFlagRule(),
        LoadBypassRule(),
        OrchestratorForkSafetyRule(),
        SloRegistryRule(),
    ]
    rules.extend(layering_rules())
    return rules


__all__ = [
    "default_rules",
    "FloatSumRule",
    "UnseededRandomRule",
    "WallClockRule",
    "SetIterationRule",
    "FeatureFlagRule",
    "LayeringRule",
    "LoadBypassRule",
    "OrchestratorForkSafetyRule",
    "SloRegistryRule",
    "layering_rules",
]
