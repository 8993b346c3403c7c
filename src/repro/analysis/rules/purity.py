"""Vectorization-safety certification for the fast-path read closure.

The ROADMAP's north-star -- a vectorized, array-backed simulation core --
is exactly the kind of aggressive rewrite the paper warns about: batching
and reordering the hot loops is only sound if every function they reach
is *effect-bounded*.  This rule certifies that, statically, today --
before the rewrite exists -- so the transformation has a machine-checked
list of what it may touch.

``pure-hot-path`` (severity: error)
    Every function reachable (via calls and property accesses) from the
    :data:`~repro.analysis.effects.HOT_ROOTS` -- the accessors
    ``SchedFeatures.with_fastpath`` memoizes: the runqueue load memo,
    the balance mirror's sync/fold/election memos, the event-loop pending
    counter -- must classify as

    * **pure** (reads only), or
    * **bounded** (writes confined to the receiver's own state: memo
      cells, dirty counters, incremental mirrors -- state a batched
      rewrite must preserve but that nothing outside the object can
      observe mid-flight).

    A function with **escaping** effects -- foreign-object writes,
    module-global mutation, nondeterminism sources, I/O -- is reported:
    batching or reordering its callers would change observable behavior.
    One narrow idiom is recognized as bounded rather than escaping:
    ``id(x)`` / ``hash(x)`` used *directly* as a private memo key
    (subscript index or ``.get``/``.pop``/``.setdefault`` argument) --
    the identity value never escapes the lookup, interning keeps it
    stable within a pass, and the memo's values are what flow onward.

The same classification feeds :func:`repro.analysis.effects.`
``vectorization_report`` -- the machine-readable JSON artifact
(``repro lint --effects-report``) naming exactly which functions the
batched rewrite may transform (``safe``) and which it must not
touch (``unsafe``, with per-line reasons).  After :meth:`finalize` the
rule instance exposes that report as :attr:`report`, which the runner
writes to disk; the findings themselves travel in the normal SARIF
export.  The runtime counterpart (:mod:`repro.analysis.effectcheck`)
cross-checks the underlying write summaries against observed attribute
mutations during the bug demos.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.effects import (
    EffectEngine,
    HOT_ROOTS,
    classify_function,
    root_function,
    vectorization_report,
)

#: How many reasons one finding spells out before eliding the rest.
_MAX_REASONS = 3


class PureHotPathRule(Rule):
    """Certify the fast-path closure as pure/bounded; flag escapes."""

    rule_id = "pure-hot-path"
    description = (
        "functions reachable from the with_fastpath hot loops must be "
        "effect-bounded (pure, or self-writes only) so the vectorized "
        "core rewrite can batch and reorder them"
    )
    scope: Tuple[str, ...] = ("repro.sched", "repro.sim", "repro.core")
    cross_file = True

    def __init__(self) -> None:
        self._files: List[Tuple[str, str, ast.Module]] = []
        self._lines: Dict[str, List[str]] = {}
        #: The vectorization-safety report, populated by finalize() and
        #: consumed by the runner's ``--effects-report`` writer.
        self.report: Optional[Dict[str, object]] = None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        self._files.append((ctx.module, ctx.display_path, ctx.tree))
        self._lines[ctx.display_path] = ctx.lines
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        if not self._files:
            return
        engine = EffectEngine(self._files)
        self.report = vectorization_report(engine)
        roots: Dict[str, str] = {}
        for label in sorted(HOT_ROOTS):
            cls, name = HOT_ROOTS[label]
            fn = root_function(engine, cls, name)
            if fn is not None:
                roots[fn.qualname] = label
        if not roots:
            return  # partial tree (fixtures without any hot root)
        # Which root(s) reach each member: reported so a finding names
        # the hot loop it would poison, not just the leaf function.
        reached_by: Dict[str, Set[str]] = {}
        for root_qual, label in sorted(roots.items()):
            for member in engine.closure([root_qual]):
                reached_by.setdefault(member, set()).add(label)
        for member in sorted(reached_by):
            category, reasons = classify_function(engine, member)
            if category != "escaping":
                continue
            summary = engine.summaries.get(member)
            if summary is None:
                continue
            line = getattr(summary.fn.node, "lineno", 0)
            lines = self._lines.get(summary.fn.display_path, [])
            snippet = (
                lines[line - 1].strip() if 1 <= line <= len(lines) else ""
            )
            shown = reasons[:_MAX_REASONS]
            more = len(reasons) - len(shown)
            detail = "; ".join(shown) + (
                f"; (+{more} more)" if more > 0 else ""
            )
            via = ", ".join(sorted(reached_by[member]))
            yield Finding(
                rule_id=self.rule_id,
                path=summary.fn.display_path,
                line=line,
                col=0,
                message=(
                    f"{summary.fn.qualname} is reachable from fast-path "
                    f"hot loop(s) [{via}] but has escaping effects: "
                    f"{detail} -- the vectorized rewrite cannot batch "
                    "through it; make the effect self-confined or lift "
                    "it out of the hot closure (suppress with "
                    "'# repro: noqa[pure-hot-path]' only with a comment "
                    "proving the effect is replay-invariant)"
                ),
                snippet=snippet,
                severity="error",
            )
