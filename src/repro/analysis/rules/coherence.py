"""Mutation/epoch coherence: the static half of the fast-path contract.

PR 3's exact-memoization layer rests on a pairing discipline: every
statement that changes a cached-load input must bump the matching dirty
counter, or cached reads silently return stale values -- the "invariant
eroded by later patches" decay the paper's Lessons Learned section
blames for a decade of wasted cores.  This rule checks the discipline
*whole-program*: a mutation in ``runqueue.py`` that forgets its bump is
reported even when the only cached reader lives in ``balance.py``.

Two passes over the project symbol table / call graph:

``coherence-unbumped-write`` (severity: error)
    Every write to a contract field (:data:`CONTRACT`) must be followed
    -- in source order, intra-procedurally, or after the call site in
    *every* resolved caller, recursively -- by a bump of each required
    counter.  Constructor self-initialization is exempt (nothing can
    hold a stale cache of an object mid-``__init__``).  A write in a
    function with no resolved callers is uncovered: dead or dynamically
    invoked code must opt out explicitly (``# repro: noqa[...]``), never
    silently.

``coherence-unguarded-dependency`` (severity: error)
    The transitive read closure of each cached accessor (the runqueue
    load memo, the balance-pass group-stats fold, the designated-
    balancer election, the overload count's from-scratch reference)
    must stay inside :data:`CONTRACT`: if an accessor grows a
    dependency on a contract-class field no counter guards, the
    contract itself has drifted.  Fields only ever written during
    ``__init__`` are immutable-in-practice and exempt; so are the
    ``_cached_*`` memo cells and the counters themselves.

The contract's *scope* is deliberate: ``Task``-level state (vruntime,
tracker, weight) is outside it because every task mutation rides a queue
event that already bumps -- the runtime sanitizer soak
(``SchedFeatures.with_sanitizer``) is the backstop for that boundary.
:func:`derived_facts` exposes the accessor dependency closures so the
sanitizer's hand-written fact table is pinned to the analyzer's
derivation by a test.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional
from typing import Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.dataflow import (
    COUNTER_NAMES,
    CoverageAnalysis,
    FunctionSummary,
    build_summaries,
    normalize_counter,
)
from repro.analysis.symbols import FunctionInfo, SymbolTable

#: (class, field) -> dirty counters every write must bump.  ``curr`` and
#: ``_nr_running`` also feed the idle<->busy boundary the designated-
#: balancer election keys on, hence the extra ``idle_epoch``; the bump
#: may be conditional (only idle *transitions* matter) -- the analyzer
#: checks presence on the path, not the guard.
CONTRACT: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("RunQueue", "_q"): frozenset({"mutations", "load_epoch"}),
    ("RunQueue", "curr"): frozenset(
        {"mutations", "load_epoch", "idle_epoch"}
    ),
    ("RunQueue", "_nr_running"): frozenset(
        {"mutations", "load_epoch", "idle_epoch"}
    ),
    ("RunQueue", "_total_weight"): frozenset({"mutations", "load_epoch"}),
    ("CGroup", "_members"): frozenset({"load_epoch", "divisor_epoch"}),
    ("CGroup", "_avg_threads"): frozenset({"load_epoch", "divisor_epoch"}),
    ("Cpu", "online"): frozenset({"idle_epoch"}),
}

#: The cached accessors whose dependency closures are derived.  Keys
#: match ``repro.sched.sanitizer.FACTS``; values locate the accessor as
#: (class bare name or None, function name).
ACCESSORS: Dict[str, Tuple[Optional[str], str]] = {
    "runqueue-load": ("RunQueue", "load"),
    "group-stats": (None, "_fold_group_stats"),
    "designated-balancer": (None, "_elect_designated"),
    "overload-gate": (None, "overloaded_rqs"),
}

_CONTRACT_CLASSES = frozenset(cls for cls, _attr in CONTRACT)
_CONTRACT_FIELDS = frozenset(attr for _cls, attr in CONTRACT)

#: Counter -> VecState notification(s) that must accompany a bump in any
#: class wired to the vectorized mirror (it holds a ``self.vec``
#: reference).  The scalar epoch bump invalidates the scalar memos; the
#: columnar mirror batches its invalidation through these calls, so a
#: bump without its partner is exactly the wiring bug PR 8 fixed by
#: hand: scalar reads stay fresh while the vec arrays serve stale rows.
VEC_PAIRING: Dict[str, FrozenSet[str]] = {
    "mutations": frozenset({"mark_dirty"}),
    "load_epoch": frozenset({"mark_dirty"}),
    "idle_epoch": frozenset({"mark_idle_change", "on_topology_change"}),
}

#: The runtime sanitizer cross-checks cached values against recomputes;
#: its reads verify the memo rather than feed it, so the dependency
#: derivation must not follow calls into it (otherwise every check it
#: performs would masquerade as a new accessor dependency).
_SANITIZER_MODULE = "repro.sched.sanitizer"


class _Project:
    """Symbol table, call graph, summaries, and coverage for one tree."""

    def __init__(self, files: List[Tuple[str, str, ast.Module]]):
        self.table = SymbolTable.build(files)
        self.graph = CallGraph.build(self.table, files)
        self.summaries = build_summaries(self.table)
        self.coverage = CoverageAnalysis(self.summaries, self.graph)
        self.init_only = self._init_only_fields()

    def _init_only_fields(self) -> FrozenSet[Tuple[str, str]]:
        """Fields whose *binding* is only ever assigned by ``self`` in
        ``__init__`` -- a stable pointer, exempt from the dependency
        check.  Mutate-kind writes (``cpu.rq.enqueue(...)``) change the
        held object, not the binding: the dependency they create is
        carried by the reads recorded on the inner class, so they do not
        disqualify a field here."""
        init_ok: Dict[Tuple[str, str], bool] = {}
        for summary in self.summaries.values():
            for write in summary.writes:
                if write.kind == "mutate":
                    continue
                cls = self._canonical_class(write.cls)
                if cls is None:
                    continue
                key = (cls, write.attr)
                ok = summary.fn.is_init and write.via_self
                init_ok[key] = init_ok.get(key, True) and ok
        return frozenset(key for key, ok in init_ok.items() if ok)

    def _canonical_class(self, cls: Optional[str]) -> Optional[str]:
        """Map a bare class name onto the contract ancestor it inherits
        from (``Autogroup`` canonicalizes to ``CGroup``)."""
        seen: Set[str] = set()
        queue = [cls] if cls is not None else []
        while queue:
            current = queue.pop(0)
            if current is None or current in seen or current.startswith("<"):
                break
            seen.add(current)
            if current in _CONTRACT_CLASSES:
                return current
            info = self.table.resolve_class(current)
            if info is None:
                break
            queue.extend(info.bases)
        return cls if cls is not None and not cls.startswith("<") else None

    def required_counters(
        self, cls: Optional[str], attr: str
    ) -> FrozenSet[str]:
        """Counters a write to ``(cls, attr)`` must bump; empty if the
        field is outside the contract."""
        if cls is not None and cls.startswith("<"):
            return frozenset()  # builtin/typing owner: never contract
        canonical = self._canonical_class(cls)
        if canonical is not None:
            return CONTRACT.get((canonical, attr), frozenset())
        # Unresolved receiver: distinctive underscore-prefixed contract
        # fields are still matched (conservative -- ``x._nr_running = 0``
        # is runqueue surgery whoever ``x`` is); plain names like
        # ``curr``/``online`` need a resolved type to avoid noise.
        if attr.startswith("_") and attr in _CONTRACT_FIELDS:
            merged: Set[str] = set()
            for (_cls, field), counters in CONTRACT.items():
                if field == attr:
                    merged.update(counters)
            return frozenset(merged)
        return frozenset()

    def accessor_function(
        self, cls: Optional[str], name: str
    ) -> Optional[FunctionInfo]:
        if cls is not None:
            info = self.table.resolve_class(cls)
            if info is None:
                return None
            return info.methods.get(name)
        for fn in self.table.functions.values():
            if fn.name == name and fn.cls is None:
                return fn
        return None

    def dependency_closure(
        self, fn: FunctionInfo
    ) -> FrozenSet[Tuple[str, str]]:
        """Contract-class fields transitively read by ``fn`` (following
        calls and property accesses), minus counters, memo cells, and
        init-only fields."""
        deps: Set[Tuple[str, str]] = set()
        visited: Set[str] = set()
        queue = [fn.qualname]
        while queue:
            qual = queue.pop(0)
            if qual in visited:
                continue
            visited.add(qual)
            summary = self.summaries.get(qual)
            if summary is not None and summary.fn.module == _SANITIZER_MODULE:
                continue
            if summary is not None:
                for read in summary.reads:
                    cls = self._canonical_class(read.cls)
                    if cls is None or cls not in _CONTRACT_CLASSES:
                        continue
                    if (cls, read.attr) in CONTRACT:
                        # Guarded fields always count as dependencies --
                        # including container bindings like ``_q``
                        # whose *contents* are what the counter guards.
                        deps.add((cls, read.attr))
                        continue
                    if normalize_counter(read.attr) in COUNTER_NAMES:
                        continue
                    if read.attr.startswith("_cached"):
                        continue
                    if (cls, read.attr) in self.init_only:
                        continue
                    deps.add((cls, read.attr))
            for site in self.graph.callees(qual):
                queue.append(site.callee)
        return frozenset(deps)


def derived_facts(
    files: Iterable[Tuple[str, str, ast.Module]],
) -> Dict[str, FrozenSet[Tuple[str, str]]]:
    """Accessor label -> derived (class, field) dependency set.

    The same derivation the rule's drift check runs; exported so tests
    can pin ``repro.sched.sanitizer.FACTS`` to it.
    """
    project = _Project(list(files))
    facts: Dict[str, FrozenSet[Tuple[str, str]]] = {}
    for label, (cls, name) in ACCESSORS.items():
        fn = project.accessor_function(cls, name)
        if fn is not None:
            facts[label] = project.dependency_closure(fn)
    return facts


class CoherenceRule(Rule):
    """Interprocedural mutation/epoch coherence for the fast-path memos."""

    rule_id = "coherence-unbumped-write"
    description = (
        "every write to a memoized-load input must be followed by the "
        "matching epoch/mutation-counter bump on every path"
    )
    scope: Tuple[str, ...] = ("repro.sched", "repro.sim")

    def __init__(self) -> None:
        self._files: List[Tuple[str, str, ast.Module]] = []
        self._lines: Dict[str, List[str]] = {}

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        self._files.append((ctx.module, ctx.display_path, ctx.tree))
        self._lines[ctx.display_path] = ctx.lines
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        if not self._files:
            return
        project = _Project(self._files)
        emitted: Set[Tuple[str, int, str, str]] = set()
        for finding in self._check_writes(project, emitted):
            yield finding
        for finding in self._check_vec_pairing(project):
            yield finding
        for finding in self._check_drift(project):
            yield finding

    # -- pass 1: unbumped writes ------------------------------------------

    def _check_writes(
        self,
        project: _Project,
        emitted: Set[Tuple[str, int, str, str]],
    ) -> Iterator[Finding]:
        for summary in self._sorted_summaries(project):
            fn = summary.fn
            for write in summary.writes:
                if fn.is_init and write.via_self:
                    continue
                required = project.required_counters(write.cls, write.attr)
                if not required:
                    continue
                missing = sorted(
                    counter for counter in required
                    if not project.coverage.covered(
                        fn.qualname, write.line, counter
                    )
                )
                if not missing:
                    continue
                key = (fn.display_path, write.line, write.attr,
                       ",".join(missing))
                if key in emitted:
                    continue
                emitted.add(key)
                owner = (
                    project._canonical_class(write.cls) or write.cls
                    or "<unresolved>"
                )
                yield self._finding(
                    "coherence-unbumped-write",
                    fn.display_path,
                    write.line,
                    f"write to cached-load input {owner}.{write.attr} is "
                    f"not followed by a bump of {', '.join(missing)} on "
                    "every path reaching a cached read; bump the "
                    "counter(s) or suppress with "
                    "'# repro: noqa[coherence-unbumped-write]' if the "
                    "mutation provably preserves every cached aggregate",
                )

    # -- pass 1b: vec-mirror pairing --------------------------------------

    def _vec_classes(self, project: _Project) -> FrozenSet[str]:
        """Bare names of classes wired to the vectorized mirror: their
        body references ``self.vec`` (the field is assigned ``None`` at
        init and rebound by the scheduler, so it carries no annotation
        the symbol table could type -- presence of the reference *is*
        the wiring)."""
        wired: Set[str] = set()
        for qual in sorted(project.table.classes):
            info = project.table.classes[qual]
            for sub in ast.walk(info.node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "vec"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    wired.add(info.name)
                    break
        return frozenset(wired)

    def _vec_notifications(self, fn: FunctionInfo) -> FrozenSet[str]:
        """VecState notification methods this function calls on a
        ``vec`` receiver (``self.vec.mark_dirty(...)``, an alias bound
        from it, or any ``*.vec.`` chain)."""
        names: Set[str] = set()
        for sub in ast.walk(fn.node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
            ):
                continue
            receiver = sub.func.value
            via_vec = (
                isinstance(receiver, ast.Attribute)
                and receiver.attr == "vec"
            ) or (
                isinstance(receiver, ast.Name) and receiver.id == "vec"
            )
            if via_vec:
                names.add(sub.func.attr)
        return frozenset(names)

    def _check_vec_pairing(self, project: _Project) -> Iterator[Finding]:
        """Every epoch/mutation bump in a vec-wired class must have the
        matching VecState notification somewhere in the same function
        (the bump cluster and its notification are adjacent by
        convention, but only presence is checked: the scalar bumps and
        the batched ``mark_dirty`` legitimately interleave)."""
        wired = self._vec_classes(project)
        if not wired:
            return  # tree without the vec mirror (fixtures)
        for summary in self._sorted_summaries(project):
            fn = summary.fn
            if fn.cls is None or fn.cls not in wired or fn.is_init:
                continue
            if not summary.bumps:
                continue
            notified = self._vec_notifications(fn)
            for counter, line in summary.bumps:
                required = VEC_PAIRING.get(counter)
                if required is None or required & notified:
                    continue
                options = " or ".join(
                    f"vec.{name}(...)" for name in sorted(required)
                )
                yield self._finding(
                    "coherence-unbumped-write",
                    fn.display_path,
                    line,
                    f"{fn.qualname} bumps {counter} but never notifies "
                    f"the vectorized mirror ({options}); the scalar "
                    "memos will refresh while the vec arrays serve "
                    "stale rows -- pair the bump with the notification "
                    "(guarded by 'if self.vec is not None') or suppress "
                    "with '# repro: noqa[coherence-unbumped-write]' if "
                    "this class is provably never wired to a VecState",
                )

    # -- pass 2: dependency drift -----------------------------------------

    def _check_drift(self, project: _Project) -> Iterator[Finding]:
        for label in sorted(ACCESSORS):
            cls, name = ACCESSORS[label]
            fn = project.accessor_function(cls, name)
            if fn is None:
                continue  # partial tree (fixtures): nothing to derive
            closure = project.dependency_closure(fn)
            for dep_cls, dep_attr in sorted(closure):
                if (dep_cls, dep_attr) in CONTRACT:
                    continue
                lineno = getattr(fn.node, "lineno", 0)
                yield self._finding(
                    "coherence-unguarded-dependency",
                    fn.display_path,
                    lineno,
                    f"cached accessor '{label}' ({fn.qualname}) depends "
                    f"on {dep_cls}.{dep_attr}, which no dirty counter "
                    "guards -- add the field to the coherence CONTRACT "
                    "(and a matching bump discipline) or stop reading it "
                    "from cached code",
                )

    # -- helpers -----------------------------------------------------------

    def _sorted_summaries(
        self, project: _Project
    ) -> List[FunctionSummary]:
        return [
            project.summaries[qual]
            for qual in sorted(project.summaries)
        ]

    def _finding(
        self, rule_id: str, path: str, line: int, message: str
    ) -> Finding:
        lines = self._lines.get(path, [])
        snippet = (
            lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        )
        return Finding(
            rule_id=rule_id,
            path=path,
            line=line,
            col=0,
            message=message,
            snippet=snippet,
            severity="error",
        )
