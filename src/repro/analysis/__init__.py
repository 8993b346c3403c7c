"""repro.analysis: the offline static invariant checker (``repro lint``).

The complement of the paper's online sanity checker (Algorithm 2): instead
of detecting invariant violations *after* they occur at runtime, this
package checks, before anything runs, the invariants the reproduction
depends on -- seed determinism and sequential float load sums, the
``sched``/``sim``/``obs`` layering contract, feature-flag discipline,
fork safety, SLO scenario references, and load reads that bypass the
runqueue memo.  Cache coherence is checked at runtime instead, by the
``--sanitize`` mode (:mod:`repro.sched.sanitizer`).

Public surface:

* :class:`~repro.analysis.core.Rule` -- the plugin interface;
* :class:`~repro.analysis.core.Analyzer` -- the single-pass file walker;
* :class:`~repro.analysis.core.Finding` -- one structured violation;
* :func:`~repro.analysis.rules.default_rules` -- the shipped rule set;
* :func:`~repro.analysis.runner.run_lint` -- the CLI entry point;
* :func:`~repro.analysis.sarif.to_sarif` -- SARIF 2.1.0 export.
"""

from __future__ import annotations

from repro.analysis.core import (
    Analyzer,
    FileContext,
    Finding,
    Rule,
    iter_python_files,
    module_for_path,
)
from repro.analysis.rules import default_rules
from repro.analysis.runner import run_lint
from repro.analysis.sarif import render_sarif, to_sarif

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "Rule",
    "default_rules",
    "iter_python_files",
    "module_for_path",
    "render_sarif",
    "run_lint",
    "to_sarif",
]
