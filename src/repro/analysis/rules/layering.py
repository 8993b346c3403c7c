"""Layering rules: the import contracts between subsystems.

The ``Scheduler`` docstring promises the scheduler is *simulation-agnostic*
("it never touches the event loop"), which in import terms means
``repro.sched`` must never import ``repro.sim``.  Likewise the scheduler
reports events through the :class:`repro.viz.events.Probe` protocol and
the obs consumers (:class:`repro.obs.MetricsRecorder`,
:class:`repro.obs.ChromeTraceBuilder`) are probes -- so ``repro.sched``
must not import ``repro.obs`` directly either; the ``Probe`` protocol is
the only coupling point.  A third rule keeps ``repro.obs`` from importing
scheduler internals: obs sees the scheduler only through probe hooks.

Violations here are how "just one constant" imports quietly invert a
dependency: before this checker existed, ``repro.sched.features`` and
``repro.sched.runqueue`` imported ``repro.sim.timebase`` for tunables --
exactly the regression class these rules now stop in CI.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.core import FileContext, Finding, Rule


class LayeringRule(Rule):
    """Forbid imports of ``forbidden`` from modules under ``source``."""

    def __init__(
        self,
        rule_id: str,
        source: str,
        forbidden: str,
        rationale: str,
        exempt: Tuple[str, ...] = (),
    ):
        self.rule_id = rule_id
        self.description = f"{source} must not import {forbidden}"
        self.scope = (source,)
        self.forbidden = forbidden
        self.rationale = rationale
        self.exempt = exempt

    def _is_forbidden(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return module == self.forbidden or module.startswith(
            self.forbidden + "."
        )

    def _resolve_relative(self, ctx: FileContext, node: ast.ImportFrom) -> str:
        """Absolute dotted target of a relative import, best effort."""
        parts = ctx.module.split(".")
        # level=1 is the containing package of a plain module.
        base = parts[: max(len(parts) - node.level, 0)]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module in self.exempt:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_forbidden(alias.name):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"{ctx.module} imports {alias.name}: "
                            f"{self.rationale}",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = (
                    self._resolve_relative(ctx, node)
                    if node.level
                    else node.module
                )
                if self._is_forbidden(target):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{ctx.module} imports {target}: {self.rationale}",
                    )


def layering_rules() -> List[LayeringRule]:
    """The layering contract of this codebase, as rule instances."""
    return [
        LayeringRule(
            rule_id="layer-sched-sim",
            source="repro.sched",
            forbidden="repro.sim",
            rationale=(
                "the scheduler is simulation-agnostic (Scheduler "
                "docstring); scheduler-side constants belong in "
                "repro.sched.timebase"
            ),
        ),
        LayeringRule(
            rule_id="layer-sched-obs",
            source="repro.sched",
            forbidden="repro.obs",
            rationale=(
                "the scheduler reports through the Probe protocol only; "
                "obs consumers are probes, never the reverse"
            ),
        ),
        LayeringRule(
            rule_id="layer-obs-sched",
            source="repro.obs",
            forbidden="repro.sched",
            rationale=(
                "obs is a pure consumer of Probe hooks; it must not "
                "reach into scheduler internals"
            ),
        ),
    ]
