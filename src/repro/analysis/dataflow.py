"""Mutation/bump summaries and interprocedural bump coverage.

The memoization contract of the fast-path layer (PR 3) is a *pairing*
discipline: every statement that changes a cached-load input must be
followed, on every path that can reach a cached read, by a bump of the
matching dirty counter.  This module extracts the facts that discipline
is stated over:

* :class:`FunctionSummary` -- per function: the fields it writes (plain
  assignments, augmented assignments, subscript stores, and *mutating
  calls* like ``self._q.insert(...)`` or ``bisect.insort(self._q, ...)``,
  which mutate the object held by a field, also through a local alias
  ``q = self._q``), the fields it reads, and the counter bumps it
  performs (``<counter>.bump()`` calls and ``mutations += 1``).
* :class:`CoverageAnalysis` -- the query "is this write followed by a
  bump of counter C?", answered interprocedurally: a bump later in the
  same function (source order; conditional bumps count -- the contract's
  own bumps are conditional on idle transitions) covers it, otherwise
  *every* resolved caller must bump after its call site, recursively.
  A write with no known callers is uncovered (dead or dynamically
  reached code must opt out explicitly via ``noqa``), and a recursive
  cycle is treated as covered on that path (the non-cyclic entry edges
  still have to pass).

Counter names are normalized by stripping leading underscores, so the
``CGroupManager._load_epoch`` binding and the scheduler's ``load_epoch``
count as the same counter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.symbols import (
    MUTATOR_METHODS,
    FunctionInfo,
    SymbolTable,
    TypeRef,
)

#: The dirty counters of the fast-path contract.
COUNTER_NAMES = frozenset({
    "mutations", "load_epoch", "idle_epoch", "divisor_epoch",
})


#: Module functions that insert into the sorted list passed first.
SORTED_INSERTS = frozenset({"insort", "insort_left", "insort_right"})


def normalize_counter(name: str) -> str:
    return name.lstrip("_")


@dataclass(frozen=True)
class FieldAccess:
    """One attribute read or write, attributed to its owning class."""

    #: Bare class name owning the attribute; None when the receiver's
    #: type could not be inferred.
    cls: Optional[str]
    attr: str
    line: int
    #: ``assign`` | ``augassign`` | ``store-sub`` | ``mutate`` | ``read``.
    kind: str
    #: True when the receiver expression is ``self`` (used to exempt
    #: constructor initialization).
    via_self: bool = False


@dataclass
class FunctionSummary:
    """Field effects and counter bumps of one function."""

    fn: FunctionInfo
    writes: List[FieldAccess] = field(default_factory=list)
    reads: List[FieldAccess] = field(default_factory=list)
    #: (normalized counter name, line).
    bumps: List[Tuple[str, int]] = field(default_factory=list)


def build_summaries(
    table: SymbolTable,
) -> Dict[str, FunctionSummary]:
    """One :class:`FunctionSummary` per function in the table."""
    return {
        qual: _summarize(table, fn)
        for qual, fn in table.functions.items()
    }


def _summarize(table: SymbolTable, fn: FunctionInfo) -> FunctionSummary:
    summary = FunctionSummary(fn=fn)
    node = fn.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return summary
    env = table.env_of(fn)

    def owner_of(expr: ast.AST) -> Tuple[Optional[str], bool]:
        """(owning class bare name, receiver-is-self) of an attribute's
        receiver expression."""
        via_self = isinstance(expr, ast.Name) and expr.id == "self"
        inferred = table.infer_expr(expr, env)
        if inferred is None:
            return None, via_self
        if table.resolve_class(inferred.name) is None:
            # A builtin/typing head is a known *non-project* owner: report
            # it as unresolved-but-harmless (the rule only matches project
            # classes) rather than None (which the rule treats as "could
            # be anything" for distinctive fields).
            return f"<{inferred.name}>", via_self
        return inferred.name, via_self

    # Local names bound straight to a field (``q = self._q``): a call
    # through the name mutates the field's object as ``self._q.m()`` does.
    aliases: Dict[str, ast.Attribute] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            name = sub.targets[0]
            if isinstance(name, ast.Name) and isinstance(
                sub.value, ast.Attribute
            ):
                aliases[name.id] = sub.value

    def held_field(expr: ast.expr) -> Optional[ast.Attribute]:
        """The ``x.f`` an expression names, directly or via an alias."""
        if isinstance(expr, ast.Attribute):
            return expr
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        return None

    def record_write(target: ast.expr, kind: str) -> None:
        sub_kind = kind
        if isinstance(target, ast.Subscript):
            target = target.value
            sub_kind = "store-sub"
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                record_write(elt, kind)
            return
        if not isinstance(target, ast.Attribute):
            return
        cls, via_self = owner_of(target.value)
        summary.writes.append(FieldAccess(
            cls=cls, attr=target.attr, line=target.lineno,
            kind=sub_kind, via_self=via_self,
        ))

    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                record_write(target, "assign")
        elif isinstance(sub, ast.AnnAssign):
            if sub.value is not None:
                record_write(sub.target, "assign")
        elif isinstance(sub, ast.AugAssign):
            record_write(sub.target, "augassign")
            # ``self.mutations += 1`` is the runqueue's own bump idiom.
            if (
                isinstance(sub.target, ast.Attribute)
                and normalize_counter(sub.target.attr) in COUNTER_NAMES
            ):
                summary.bumps.append((
                    normalize_counter(sub.target.attr), sub.target.lineno,
                ))
        elif isinstance(sub, ast.Call) and _is_sorted_insert(sub) and (
            held := held_field(sub.args[0])
        ) is not None:
            # ``insort(x.f, item)`` mutates the list held by ``f``.
            cls, via_self = owner_of(held.value)
            summary.writes.append(FieldAccess(
                cls=cls, attr=held.attr, line=sub.lineno,
                kind="mutate", via_self=via_self,
            ))
        elif isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ):
            recv = sub.func.value
            method = sub.func.attr
            if method == "bump":
                counter = _bump_counter(recv)
                if counter is not None:
                    summary.bumps.append((counter, sub.lineno))
                continue
            # Mutating call through a field: ``x.f.m(...)`` mutates the
            # object held by ``f`` -- a write to (class-of-x, f) as far
            # as cache coherence is concerned.
            held = held_field(recv)
            if held is not None:
                cls, via_self = owner_of(held.value)
                if _mutates(table, cls, held.attr, method):
                    summary.writes.append(FieldAccess(
                        cls=cls, attr=held.attr, line=sub.lineno,
                        kind="mutate", via_self=via_self,
                    ))

    # Reads: attribute loads attributed to a project class.  Method and
    # property accesses are call-graph edges, not field reads.
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if not isinstance(sub.ctx, ast.Load):
            continue
        cls, via_self = owner_of(sub.value)
        if cls is None or cls.startswith("<"):
            continue
        if table.method(cls, sub.attr) is not None:
            continue
        summary.reads.append(FieldAccess(
            cls=cls, attr=sub.attr, line=sub.lineno,
            kind="read", via_self=via_self,
        ))
    return summary


def _is_sorted_insert(call: ast.Call) -> bool:
    """Whether ``call`` is ``[bisect.]insort*(seq, ...)``."""
    func = call.func
    name = (
        func.attr if isinstance(func, ast.Attribute)
        else func.id if isinstance(func, ast.Name) else None
    )
    return name in SORTED_INSERTS and bool(call.args)


def _bump_counter(recv: ast.AST) -> Optional[str]:
    """The counter name a ``<recv>.bump()`` call refers to, if clear."""
    if isinstance(recv, ast.Attribute):
        name = normalize_counter(recv.attr)
        return name if name in COUNTER_NAMES else None
    if isinstance(recv, ast.Name):
        name = normalize_counter(recv.id)
        return name if name in COUNTER_NAMES else None
    return None


def _mutates(
    table: SymbolTable,
    holder_cls: Optional[str],
    attr: str,
    method: str,
) -> bool:
    """Whether calling ``method`` on field ``attr`` mutates the field's
    object."""
    ftype: Optional[TypeRef] = None
    if holder_cls is not None and not holder_cls.startswith("<"):
        ftype = table.field_type(holder_cls, attr)
    if ftype is not None and table.resolve_class(ftype.name) is not None:
        return method in table.mutating_methods(ftype.name)
    return method in MUTATOR_METHODS


class CoverageAnalysis:
    """Interprocedural "write followed by bump" queries."""

    def __init__(
        self,
        summaries: Dict[str, FunctionSummary],
        graph: CallGraph,
    ):
        self.summaries = summaries
        self.graph = graph
        self._bumps_any_cache: Dict[str, FrozenSet[str]] = {}

    def bumped_counters(
        self,
        qualname: str,
        _visiting: FrozenSet[str] = frozenset(),
    ) -> FrozenSet[str]:
        """Counters a function bumps anywhere, transitively (memoized).

        Recursion cycles contribute nothing on the cyclic edge; results
        are only cached for queries that completed outside any cycle, so
        an incomplete mid-cycle set never sticks.
        """
        cached = self._bumps_any_cache.get(qualname)
        if cached is not None:
            return cached
        if qualname in _visiting:
            return frozenset()
        visiting = _visiting | {qualname}
        found: Set[str] = set()
        summary = self.summaries.get(qualname)
        if summary is not None:
            found.update(name for name, _line in summary.bumps)
        for site in self.graph.callees(qualname):
            if site.kind != "call":
                continue
            found.update(self.bumped_counters(site.callee, visiting))
        result = frozenset(found)
        if not _visiting:
            self._bumps_any_cache[qualname] = result
        return result

    def _bumps_after(self, qualname: str, line: int, counter: str) -> bool:
        """A bump of ``counter`` at/after ``line`` inside ``qualname``
        (directly or via a callee invoked at/after that line)."""
        summary = self.summaries.get(qualname)
        if summary is not None:
            for name, bump_line in summary.bumps:
                if name == counter and bump_line >= line:
                    return True
        for site in self.graph.callees(qualname):
            if site.kind != "call" or site.line < line:
                continue
            if counter in self.bumped_counters(site.callee):
                return True
        return False

    def covered(
        self,
        qualname: str,
        line: int,
        counter: str,
        _stack: FrozenSet[str] = frozenset(),
    ) -> bool:
        """Is a write at ``qualname:line`` followed by a ``counter`` bump
        on every resolved path back to an entry point?"""
        if self._bumps_after(qualname, line, counter):
            return True
        callers = [
            site for site in self.graph.callers(qualname)
            if site.kind == "call" and site.caller != qualname
        ]
        if not callers:
            return False
        stack = _stack | {qualname}
        for site in callers:
            if site.caller in stack:
                continue  # cycle: the acyclic entries decide
            if not self.covered(site.caller, site.line, counter, stack):
                return False
        return True
