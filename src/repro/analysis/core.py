"""The offline sanity checker's core: files, rules, findings, the walker.

The paper's Algorithm 2 checker is *online*: it watches invariants while a
simulation runs and can only report violations after the fact.  This module
is the complementary *offline* half -- a small AST-lint framework that
checks the invariants the codebase itself depends on (seed determinism,
the ``sched``/``sim`` layering contract, feature-flag discipline) before
anything executes.

Design:

* :class:`Finding` -- one structured violation (``file:line:col``, rule id,
  message, the offending source line) with a stable :meth:`fingerprint`
  that SARIF consumers use to track it across commits.
* :class:`Rule` -- the plugin interface.  A rule declares a module-prefix
  ``scope``, inspects one parsed file at a time in :meth:`Rule.visit`, and
  may emit cross-file findings from :meth:`Rule.finalize` after the walk
  (the coherence rule needs the whole project).
* :class:`Analyzer` -- the single-pass walker: each file is read and parsed
  exactly once, then offered to every rule whose scope matches.

Rules hold per-run state, so an :class:`Analyzer` (and its rule instances)
is single-use: build a fresh one per run via
:func:`repro.analysis.rules.default_rules`.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Inline suppression directive: ``# repro: noqa[rule-a,rule-b]`` silences
#: the named rules on its line; bare ``# repro: noqa`` silences every rule.
#: Suppressed findings are still collected (marked ``suppressed=True``) so
#: reports can list them.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[a-z0-9_,\s-]*)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, for display and for the fingerprint.
    snippet: str = ""
    #: ``"error"`` | ``"warning"`` | ``"note"`` -- maps onto SARIF levels.
    severity: str = "warning"
    #: True when an inline ``# repro: noqa[...]`` directive excused this
    #: finding; it is reported but never fails the run.
    suppressed: bool = False

    def fingerprint(self) -> str:
        """A line-number-independent identity for tracking a finding.

        Hashes the rule id, the file path, and the offending source text --
        not the line number -- so the identity survives unrelated edits
        that shift the violation up or down the file.
        """
        digest = hashlib.sha256(
            f"{self.rule_id}|{self.path}|{self.snippet}".encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "fingerprint": self.fingerprint(),
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class FileContext:
    """One parsed source file, as offered to every rule."""

    path: Path
    #: Dotted module name, best effort (``repro.sched.cgroup``).  Tests may
    #: override it to place fixture files inside a rule's scope.
    module: str
    #: Path string used in findings (repo-relative when possible).
    display_path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        """The stripped source line at 1-based ``lineno`` ("" when absent)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        severity: str = "warning",
    ) -> Finding:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule_id,
            path=self.display_path,
            line=lineno,
            col=col,
            message=message,
            snippet=self.line(lineno),
            severity=severity,
        )


def noqa_directives(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Per-line inline suppressions: 1-based line -> rule ids (None = all).

    Only the finding's own line is consulted -- a directive never spills
    onto neighbors, so a suppression stays adjacent to the code it excuses.
    """
    directives: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            directives[lineno] = None
        else:
            names = {r.strip() for r in rules.split(",") if r.strip()}
            # ``noqa[]`` names nothing: treat as suppress-all like bare noqa.
            directives[lineno] = names or None
    return directives


def apply_noqa(
    findings: Iterable[Finding], directives: Dict[int, Optional[Set[str]]]
) -> List[Finding]:
    """Mark findings excused by an inline directive as ``suppressed``."""
    out: List[Finding] = []
    for finding in findings:
        if finding.line in directives:
            rules = directives[finding.line]
            if rules is None or finding.rule_id in rules:
                finding = replace(finding, suppressed=True)
        out.append(finding)
    return out


class Rule:
    """The plugin interface of the offline checker.

    Subclasses set ``rule_id`` (a short kebab-case id used in findings
    and ``noqa`` directives), ``description``, and optionally ``scope`` --
    a tuple of dotted module prefixes the rule inspects (``None`` means
    every file).
    """

    rule_id: str = ""
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None

    def wants(self, module: str) -> bool:
        """Whether :meth:`visit` should see the module at all."""
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def visit(self, ctx: FileContext) -> Iterable[Finding]:
        """Inspect one parsed file; yield findings (may also stash state)."""
        return ()

    def finalize(self) -> Iterable[Finding]:
        """Emit cross-file findings after every file has been visited."""
        return ()


def module_for_path(path: Path) -> str:
    """Best-effort dotted module name for a file.

    Climbs parent directories while they are packages (contain an
    ``__init__.py``), mirroring how the import system would name the file.
    A stray file outside any package is just its stem.
    """
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if path.name == "__init__.py":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen = []
    for path in paths:
        if path.is_dir():
            seen.extend(path.rglob("*.py"))
        elif path.suffix == ".py":
            seen.append(path)
    for path in sorted(set(p.resolve() for p in seen)):
        yield path


def _display_path(path: Path) -> str:
    """Repo-relative posix path when under the cwd, else absolute."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


class Analyzer:
    """The single-pass file walker driving a set of rules."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        #: Inline-suppression directives per display path, kept so findings
        #: a rule emits from :meth:`Rule.finalize` (after the walk) still
        #: honor the noqa comment sitting on their line.
        self._noqa: Dict[str, Dict[int, Optional[Set[str]]]] = {}

    def check_file(
        self, path: Path, module: Optional[str] = None
    ) -> List[Finding]:
        """Visit one file with every in-scope rule (no finalize)."""
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return [
                Finding(
                    rule_id="parse-error",
                    path=_display_path(path),
                    line=0,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            ]
        return self.check_source(
            source,
            module=module if module is not None else module_for_path(path),
            path=path,
        )

    def check_source(
        self, source: str, module: str, path: Optional[Path] = None
    ) -> List[Finding]:
        """Visit in-memory source as ``module`` (for tests and fixtures)."""
        display = _display_path(path) if path is not None else f"<{module}>"
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    rule_id="parse-error",
                    path=display,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(
            path=path if path is not None else Path(display),
            module=module,
            display_path=display,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        directives = noqa_directives(ctx.lines)
        self._noqa[display] = directives
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.wants(module):
                findings.extend(rule.visit(ctx))
        return apply_noqa(findings, directives)

    def run(
        self,
        paths: Sequence[Path],
        modules: Optional[Dict[Path, str]] = None,
    ) -> List[Finding]:
        """Walk ``paths`` (files or directories) and run every rule.

        ``modules`` optionally overrides the dotted module name of specific
        files (used by fixture tests to pull files into a rule's scope).
        """
        findings: List[Finding] = []
        overrides = {p.resolve(): m for p, m in (modules or {}).items()}
        for path in iter_python_files(paths):
            findings.extend(self.check_file(path, overrides.get(path)))
        for rule in self.rules:
            for finding in rule.finalize():
                directives = self._noqa.get(finding.path)
                if directives:
                    finding = apply_noqa([finding], directives)[0]
                findings.append(finding)
        findings.sort(key=Finding.sort_key)
        return findings
