"""The ``repro lint`` entry point: walk, apply suppressions, render, exit.

Composes with pre-commit hooks and CI: exit status is 0 on a clean tree
(or when every finding is silenced by an inline ``# repro: noqa[...]``
directive) and 1 when any active finding exists.  ``--format json``
emits a stable machine-readable document, ``--format sarif`` (or
``--sarif FILE``) a SARIF 2.1.0 log for code-scanning consumers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.core import Analyzer, Finding
from repro.analysis.rules import default_rules
from repro.analysis.sarif import render_sarif

#: Schema version of the ``--format json`` document.  Version 2 split
#: findings into ``findings`` (fail the run), ``baseline`` and ``noqa``
#: (inline); version 3 dropped the ``baseline`` section with the
#: baseline file.
REPORT_VERSION = 3


def default_target() -> Path:
    """The installed ``repro`` package tree (lint's default subject)."""
    import repro

    return Path(repro.__file__).resolve().parent


def partition_noqa(
    findings: Sequence[Finding],
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (active, inline-suppressed)."""
    active = [f for f in findings if not f.suppressed]
    noqa = [f for f in findings if f.suppressed]
    return active, noqa


def render_json(new: Sequence[Finding], noqa: Sequence[Finding]) -> str:
    report = {
        "version": REPORT_VERSION,
        "findings": [f.to_dict() for f in new],
        "noqa": [f.to_dict() for f in noqa],
        "counts": {"new": len(new), "noqa": len(noqa)},
    }
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(new: Sequence[Finding], noqa: Sequence[Finding]) -> str:
    lines = [f.format() for f in new]
    if new:
        lines.append("")
    noun = "finding" if len(new) == 1 else "findings"
    summary = f"{len(new)} {noun}"
    if noqa:
        summary += f" ({len(noqa)} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def run_lint(
    paths: Optional[Sequence[str]] = None,
    fmt: str = "text",
    sarif_path: Optional[str] = None,
    out: Callable[[str], None] = print,
) -> int:
    """Run the offline checker; returns the process exit code.

    ``paths`` defaults to the installed ``repro`` package.  When
    ``sarif_path`` is given a SARIF 2.1.0 log of *every* finding
    (including suppressed ones, flagged as such) is also written there.
    """
    targets = (
        [Path(p) for p in paths] if paths else [default_target()]
    )
    missing = [t for t in targets if not t.exists()]
    if missing:
        out(f"error: no such path: {', '.join(str(m) for m in missing)}")
        return 2

    rules = default_rules()
    findings = Analyzer(rules).run(targets)
    active, noqa = partition_noqa(findings)

    if sarif_path is not None:
        Path(sarif_path).write_text(
            render_sarif(findings, rules) + "\n", encoding="utf-8"
        )

    if fmt == "json":
        out(render_json(active, noqa))
    elif fmt == "sarif":
        out(render_sarif(findings, rules))
    else:
        out(render_text(active, noqa))
    return 1 if active else 0
