"""Scenario-registry rule: SLO spec files must reference real code.

The ``repro.slo`` registry is deliberately declarative -- a scenario TOML
names its trial function, workload factories and topology preset as
*strings*.  Nothing imports those strings until the orchestrator
resolves them inside a pool worker, so a typo
(``repro.slo.trial:hogg``, a deleted topology preset) survives every
static import check and only explodes at run time, deep inside
``repro slo run``.

This rule closes that gap offline: it loads every scenario file (the
shipped registry by default; tests inject fixture paths) and verifies

* the file parses and passes :func:`repro.slo.registry.load_scenario`'s
  structural validation (no unknown ``[scenario]`` keys, known SLO
  threshold names);
* the ``trial`` kind and every ``[[scenario.workload]]`` ``spec`` resolve
  to an importable ``module:function``;
* ``topology`` names a preset in :data:`repro.slo.trial.TOPOLOGIES`.

Unlike the AST rules, the inputs are TOML, not Python, so everything
happens in :meth:`Rule.finalize` -- the rule visits no source files and
findings point into the scenario file itself (best-effort line match on
the offending token).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule


def _resolvable(ref: str) -> Optional[str]:
    """Why ``module:function`` does not resolve (None when it does)."""
    module_name, _, attr = ref.partition(":")
    try:
        import importlib

        module = importlib.import_module(module_name)
    except Exception as exc:  # ImportError, or a broken module body
        return f"cannot import module {module_name!r}: {exc}"
    if not hasattr(module, attr):
        return f"module {module_name!r} has no attribute {attr!r}"
    if not callable(getattr(module, attr)):
        return f"{ref!r} resolves to a non-callable"
    return None


def _display(path: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _line_of(lines: Sequence[str], token: str) -> int:
    """1-based line of the first occurrence of ``token`` (0 when absent)."""
    for lineno, text in enumerate(lines, start=1):
        if token in text:
            return lineno
    return 0


class SloRegistryRule(Rule):
    """Validate SLO scenario TOML files against the code they reference."""

    rule_id = "slo-registry"
    description = (
        "scenario-registry specs must reference resolvable module:function "
        "trial/workload kinds and known topology presets"
    )
    #: TOML inputs, not Python -- the rule never visits source files.
    scope: Optional[Tuple[str, ...]] = ()

    def __init__(self, spec_paths: Optional[Sequence[object]] = None):
        #: None means "the shipped registry", resolved lazily so tests
        #: that inject fixture paths never touch the package data.
        self._spec_paths = (
            [Path(str(p)) for p in spec_paths]
            if spec_paths is not None
            else None
        )

    def wants(self, module: str) -> bool:
        return False

    def finalize(self) -> Iterable[Finding]:
        if self._spec_paths is not None:
            paths = list(self._spec_paths)
        else:
            from repro.slo.registry import shipped_scenario_paths

            paths = shipped_scenario_paths()
        findings: List[Finding] = []
        for path in paths:
            findings.extend(self._check_file(path))
        return findings

    def _finding(
        self, path: Path, lines: Sequence[str], token: str, message: str
    ) -> Finding:
        lineno = _line_of(lines, token)
        return Finding(
            rule_id=self.rule_id,
            path=_display(path),
            line=lineno,
            col=0,
            message=message,
            snippet=lines[lineno - 1].strip() if lineno else "",
        )

    def _check_file(self, path: Path) -> Iterator[Finding]:
        from repro.slo.registry import load_scenario
        from repro.slo.trial import TOPOLOGIES

        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            yield Finding(
                rule_id=self.rule_id,
                path=_display(path),
                line=0,
                col=0,
                message=f"cannot read scenario file: {exc}",
            )
            return
        try:
            scenario = load_scenario(path)
        except ValueError as exc:
            # load_scenario prefixes messages with the path; strip it so
            # the finding (which already carries the path) stays terse.
            message = str(exc)
            prefix = f"{path}: "
            if message.startswith(prefix):
                message = message[len(prefix):]
            yield Finding(
                rule_id=self.rule_id,
                path=_display(path),
                line=0,
                col=0,
                message=f"invalid scenario spec: {message}",
            )
            return

        refs = [("trial", scenario.trial)]
        refs.extend(
            ("workload spec", entry.spec) for entry in scenario.workloads
        )
        for label, ref in refs:
            problem = _resolvable(ref)
            if problem is not None:
                yield self._finding(
                    path, lines, ref,
                    f"{label} {ref!r} does not resolve: {problem}",
                )
        if scenario.topology is not None and scenario.topology not in TOPOLOGIES:
            yield self._finding(
                path, lines, scenario.topology,
                f"unknown topology preset {scenario.topology!r} "
                f"(known: {', '.join(sorted(TOPOLOGIES))})",
            )
