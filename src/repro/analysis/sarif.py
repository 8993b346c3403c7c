"""SARIF 2.1.0 export for ``repro lint`` findings.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what CI systems and code-scanning UIs ingest; emitting it makes the
offline checker a first-class producer next to commercial analyzers.
The document here is deliberately minimal-but-valid: one run, one tool
driver with per-rule metadata, one result per finding with a physical
location, and a SARIF-native ``suppressions`` entry (``kind: inSource``)
for findings excused by an inline ``# repro: noqa[...]`` directive.

Fingerprints go under ``partialFingerprints`` so SARIF consumers track a
finding across commits (the line-number-independent
:meth:`Finding.fingerprint`).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from repro.analysis.core import Finding, Rule

#: Spec pin; consumers dispatch on this pair.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Finding severities map 1:1 onto SARIF levels.
_LEVELS = ("error", "warning", "note")

#: Rule ids the framework itself can emit without a Rule instance.
_SYNTHETIC_RULES = {
    "parse-error": "the file could not be read or parsed",
    "coherence-unguarded-dependency": (
        "a cached accessor depends on a field outside the coherence "
        "contract"
    ),
}


def _tool_version() -> str:
    try:
        from repro import __version__

        return str(__version__)
    except Exception:  # pragma: no cover - version is always present
        return "0"


def to_sarif(
    findings: Sequence[Finding], rules: Iterable[Rule] = ()
) -> Dict[str, object]:
    """The findings as a SARIF 2.1.0 ``log`` object (JSON-ready).

    ``rules`` provides driver metadata (descriptions); rule ids that
    appear only in findings are synthesized so every result's
    ``ruleIndex`` resolves.
    """
    descriptions: Dict[str, str] = dict(_SYNTHETIC_RULES)
    for rule in rules:
        if rule.rule_id:
            descriptions[rule.rule_id] = rule.description
    for finding in findings:
        descriptions.setdefault(finding.rule_id, "")

    rule_ids = sorted(
        {f.rule_id for f in findings} | {r for r in descriptions if r}
    )
    index_of = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    driver_rules: List[Dict[str, object]] = [
        {
            "id": rule_id,
            "shortDescription": {"text": descriptions.get(rule_id) or rule_id},
        }
        for rule_id in rule_ids
    ]

    results: List[Dict[str, object]] = []
    for finding in findings:
        level = (
            finding.severity if finding.severity in _LEVELS else "warning"
        )
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "ruleIndex": index_of[finding.rule_id],
            "level": level,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col + 1, 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "reproLintFingerprint/v1": finding.fingerprint()
            },
        }
        if finding.suppressed:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": "# repro: noqa directive on the line",
            }]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/paper-repro/"
                            "wasted-cores-sim"
                        ),
                        "version": _tool_version(),
                        "rules": driver_rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding], rules: Iterable[Rule] = ()
) -> str:
    return json.dumps(to_sarif(findings, rules), indent=2, sort_keys=True)
