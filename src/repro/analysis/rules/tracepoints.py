"""Tracepoint-registry consistency: the bus and its declarations agree.

``repro.obs.tracepoints`` declares every event name the bus carries in
``TRACEPOINT_NAMES`` (name -> one-line description).  Consumers subscribe
by name or prefix, so a producer emitting an undeclared name is silently
invisible to any consumer that trusted the declared list -- and a declared
name nobody emits is dead documentation.  Three findings:

* ``tp-orphan-emit`` -- a string literal passed to ``.tracepoint(...)`` or
  ``span(...)`` that is not declared.
* ``tp-dead-declaration`` -- a declared name no producer in the analyzed
  tree ever materializes.
* ``tp-dynamic-name`` -- a non-literal tracepoint name outside the
  framework module itself; dynamic names defeat both this check and
  grep-ability, which is the entire point of a static event namespace.

If the declaration module is not part of the analyzed file set (linting a
subtree), the cross-checks are skipped rather than reporting every use as
an orphan.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import FileContext, Finding, Rule

#: Where the declarations live and what the declaration mapping is called.
DECLARATION_MODULE = "repro.obs.tracepoints"
DECLARATION_NAME = "TRACEPOINT_NAMES"


class TracepointConsistencyRule(Rule):
    rule_id = "tp-consistency"
    description = (
        "every emitted tracepoint name is declared in "
        f"{DECLARATION_MODULE}.{DECLARATION_NAME} and vice versa"
    )
    scope: Optional[Tuple[str, ...]] = None

    def __init__(self) -> None:
        #: name -> Finding anchored at the first use site.
        self._uses: Dict[str, Finding] = {}
        #: name -> Finding anchored at the declaration entry.
        self._declared: Dict[str, Finding] = {}
        self._declaration_seen = False
        self._dynamic: List[Finding] = []

    # -- collection -----------------------------------------------------------

    def _record_use(self, ctx: FileContext, node: ast.Call) -> None:
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self._uses.setdefault(
                arg.value,
                ctx.finding(
                    "tp-orphan-emit",
                    node,
                    f"tracepoint {arg.value!r} is emitted here but not "
                    f"declared in {DECLARATION_MODULE}.{DECLARATION_NAME}",
                ),
            )
        elif ctx.module != DECLARATION_MODULE:
            self._dynamic.append(
                ctx.finding(
                    "tp-dynamic-name",
                    node,
                    "tracepoint name is not a string literal; dynamic "
                    "names defeat registry consistency checking and grep",
                )
            )

    def _record_declarations(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == DECLARATION_NAME
                    and isinstance(value, ast.Dict)
                ):
                    self._declaration_seen = True
                    for key in value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            self._declared.setdefault(
                                key.value,
                                ctx.finding(
                                    "tp-dead-declaration",
                                    key,
                                    f"tracepoint {key.value!r} is declared "
                                    "but never emitted by any producer",
                                ),
                            )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == DECLARATION_MODULE:
            self._record_declarations(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "tracepoint":
                self._record_use(ctx, node)
            elif isinstance(func, ast.Name) and func.id == "span":
                self._record_use(ctx, node)
        return ()

    # -- cross-file verdicts --------------------------------------------------

    def finalize(self) -> Iterator[Finding]:
        yield from self._dynamic
        if not self._declaration_seen:
            return
        for name in sorted(self._uses):
            if name not in self._declared:
                yield self._uses[name]
        for name in sorted(self._declared):
            if name not in self._uses:
                yield self._declared[name]
