"""Interprocedural effect summaries: what each function *does* to the world.

The fast-path work (PR 3) and the parallel orchestrator (PR 5) both rest
on claims of the form "this function is safe to memoize / batch / run
anywhere" -- and the ROADMAP's north-star (a vectorized, array-backed
simulation core) is one giant such claim.  Nothing checked those claims:
the determinism rules were local and syntactic, and the coherence pass
(PR 4) only knew about the handful of contract fields.  This module is
the general engine: over the existing :class:`SymbolTable` /
:class:`CallGraph` fixpoint it computes, per function, a summary of

* fields read and fields written (attributed to their owning class, with
  ``self``-writes separated from *foreign* writes into other objects);
* module globals mutated (``global`` rebinds, mutator-method calls and
  subscript stores on module-level bindings);
* nondeterminism **sources**: unseeded ``random`` draws, wall-clock
  reads, ``os.environ`` reads, ``id()``/``hash()`` ordering, pool
  completion order (``imap_unordered``/``as_completed``), and
  iteration-order-dependent constructs over set-typed values;
* I/O (``open``/``print``, file writes, ``os``/``Path`` filesystem calls).

Two rules consume the engine: ``determinism-taint``
(:mod:`repro.analysis.rules.taint`) flows the sources whole-program into
digest/trace-affecting sinks, and ``pure-hot-path``
(:mod:`repro.analysis.rules.purity`) certifies the fast-path read
closure as effect-bounded and emits the vectorization-safety report a
batched rewrite must consult.  The runtime counterpart
(:mod:`repro.analysis.effectcheck`) pins these static summaries to
observed attribute mutations during the four bug demos.

Like every pass here, the engine is a *linter's* analysis, not a
verifier: unresolvable calls contribute no effects (consumers must treat
certification as "no escaping effect *found*"), and the runtime effect
sanitizer is the backstop for what static resolution misses.

Everything is pure and deterministic: same trees in, same summaries out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, module_aliases, resolve_call
from repro.analysis.dataflow import (
    COUNTER_NAMES,
    FieldAccess,
    build_summaries,
    normalize_counter,
)
from repro.analysis.symbols import (
    MUTATOR_METHODS,
    FunctionInfo,
    SymbolTable,
    TypeRef,
)

# ---------------------------------------------------------------------------
# Shared nondeterminism vocabulary.  The legacy per-file determinism rules
# and the whole-program taint rule import these from here so their
# source/sanitizer lists can never drift apart (satellite: the two rules
# must agree on provably-ordered iteration).

#: Annotation/inference heads that denote unordered set types.
SET_TYPE_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})

#: Callables that consume an iterable order-insensitively: feeding a set
#: (or any nondeterministically-ordered stream) into one of these erases
#: the order dependence -- ``sorted`` by re-imposing a total order, the
#: reductions by commutativity.
ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset",
})

#: Callables whose output order mirrors (possibly nondeterministic) input
#: order -- they launder the type but not the order.
ORDER_KEEPING_CALLS = frozenset({"iter", "list", "tuple", "enumerate"})

#: Set-algebra methods whose result is itself an unordered set.
SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})

#: Functions whose *return value* re-imposes spec order on results that
#: were internally produced in completion order.  ``run_pool`` (PR 5)
#: merges worker results by input index -- the j1-vs-jN byte-equality CI
#: gate is the proof backing this sanitizer entry.
SPEC_ORDER_MERGERS = frozenset({"run_pool"})

#: Module-level ``random`` attributes that do NOT draw from the global
#: generator (constructors of private generators, state plumbing).
RNG_ALLOWED = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

#: Dotted wall-clock calls (host time, never simulated time).
WALL_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Bare names importable ``from time import ...`` that read the wall clock.
WALL_IMPORTS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})

#: Filesystem/teletype calls counted as I/O effects.
IO_NAME_CALLS = frozenset({"open", "print", "input"})
IO_ATTR_CALLS = frozenset({
    "write", "writelines", "write_text", "write_bytes", "read_text",
    "read_bytes", "mkdir", "unlink", "makedirs", "remove", "rename",
})

#: The nondeterminism-source kinds the engine distinguishes.  ``ORDER``
#: kinds are erased by an order-free consumer (``sorted`` et al.); value
#: kinds survive any reordering.
ORDER_KINDS = frozenset({"set-order", "pool-order"})
VALUE_KINDS = frozenset({"rng", "wallclock", "env", "idhash"})
SOURCE_KINDS = ORDER_KINDS | VALUE_KINDS


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Effect summaries.


@dataclass(frozen=True)
class EffectEvent:
    """One observed effect inside a function body."""

    #: Source kinds (``rng``/``wallclock``/``env``/``idhash``/
    #: ``pool-order``/``set-order``), plus ``global-write`` and ``io``.
    kind: str
    line: int
    detail: str


@dataclass
class EffectSummary:
    """The direct (non-transitive) effects of one function."""

    fn: FunctionInfo
    #: (class, attr) fields read, from the dataflow pass.
    reads: FrozenSet[Tuple[str, str]] = frozenset()
    #: Every attribute write, ``self`` and foreign alike.
    writes: Tuple[FieldAccess, ...] = ()
    #: Nondeterminism sources (kind in :data:`SOURCE_KINDS`).
    sources: Tuple[EffectEvent, ...] = ()
    #: Module-global mutations.
    globals_written: Tuple[EffectEvent, ...] = ()
    #: Filesystem/teletype effects.
    io: Tuple[EffectEvent, ...] = ()

    def foreign_writes(self) -> List[FieldAccess]:
        """Writes whose receiver is not the function's own ``self``
        (constructor self-initialization exempt by ``via_self``)."""
        return [w for w in self.writes if not w.via_self]

    def self_writes(self) -> List[FieldAccess]:
        return [w for w in self.writes if w.via_self]


@dataclass
class TransitiveEffects:
    """Effects of a function plus everything it (resolvably) calls.

    Each entry carries provenance: the qualname of the function the
    effect actually occurs in, so a certification failure names the leaf,
    not just the root.
    """

    #: (owner qualname, event).
    sources: List[Tuple[str, EffectEvent]] = field(default_factory=list)
    globals_written: List[Tuple[str, EffectEvent]] = field(default_factory=list)
    io: List[Tuple[str, EffectEvent]] = field(default_factory=list)
    foreign_writes: List[Tuple[str, FieldAccess]] = field(default_factory=list)
    self_writes: List[Tuple[str, FieldAccess]] = field(default_factory=list)
    reads: Set[Tuple[str, str]] = field(default_factory=set)


def _annotation_is_set(ref: Optional[TypeRef]) -> bool:
    return ref is not None and ref.name in SET_TYPE_NAMES


class EffectEngine:
    """Symbol table, call graph, and effect summaries for one file set."""

    def __init__(self, files: Sequence[Tuple[str, str, ast.Module]]):
        self.files = list(files)
        self.table = SymbolTable.build(self.files)
        self.graph = CallGraph.build(self.table, self.files)
        self.aliases = module_aliases(self.files)
        self.field_summaries = build_summaries(self.table)
        #: Names bound at module level, per module (global-write targets).
        self.module_globals: Dict[str, Set[str]] = {
            module: _module_level_names(tree)
            for module, _display, tree in self.files
        }
        self.summaries: Dict[str, EffectSummary] = {
            qual: self._summarize(fn)
            for qual, fn in self.table.functions.items()
        }
        self._transitive_cache: Dict[str, TransitiveEffects] = {}

    # -- construction helpers ----------------------------------------------

    def resolve(self, fn: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Resolve one call expression inside ``fn`` to a qualname."""
        return resolve_call(
            self.table, fn, call, self.table.env_of(fn),
            self.aliases.get(fn.module, {}),
        )

    def is_set_typed(
        self, fn: FunctionInfo, expr: ast.AST
    ) -> bool:
        """Whether an expression is (syntactically or by inference) an
        unordered set."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_METHODS
                and func.attr != "copy"
            ):
                return True
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                return self.is_set_typed(fn, func.value)
            return False
        inferred = self.table.infer_expr(expr, self.table.env_of(fn))
        return _annotation_is_set(inferred)

    def _summarize(self, fn: FunctionInfo) -> EffectSummary:
        node = fn.node
        base = self.field_summaries.get(fn.qualname)
        summary = EffectSummary(
            fn=fn,
            reads=frozenset(
                (r.cls, r.attr)
                for r in (base.reads if base is not None else [])
                if r.cls is not None and not r.cls.startswith("<")
            ),
            writes=tuple(base.writes) if base is not None else (),
        )
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return summary
        env = self.table.env_of(fn)
        aliases = self.aliases.get(fn.module, {})
        globals_of_module = self.module_globals.get(fn.module, set())
        declared_global: Set[str] = set()
        bound_local: Set[str] = {
            a.arg for a in (
                list(node.args.posonlyargs) + list(node.args.args)
                + list(node.args.kwonlyargs)
            )
        }
        sources: List[EffectEvent] = []
        globals_written: List[EffectEvent] = []
        io: List[EffectEvent] = []
        parents: Dict[int, ast.AST] = {}
        for sub in ast.walk(node):
            for child in ast.iter_child_nodes(sub):
                parents[id(child)] = sub

        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    for name_node in ast.walk(tgt):
                        if isinstance(name_node, ast.Name) and isinstance(
                            name_node.ctx, ast.Store
                        ):
                            bound_local.add(name_node.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign, ast.For)):
                tgt = sub.target
                if isinstance(tgt, ast.Name):
                    bound_local.add(tgt.id)

        for sub in ast.walk(node):
            line = getattr(sub, "lineno", 0)
            if isinstance(sub, ast.Call):
                self._scan_call(fn, sub, env, aliases, sources, io, parents)
                # Mutator call on a module-global binding.
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in MUTATOR_METHODS
                    and func.value.id in globals_of_module
                    and (
                        func.value.id in declared_global
                        or func.value.id not in bound_local
                    )
                ):
                    globals_written.append(EffectEvent(
                        "global-write", line,
                        f"{func.value.id}.{func.attr}(...) mutates a "
                        "module-level binding",
                    ))
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for tgt in targets:
                    sub_tgt = tgt
                    if isinstance(sub_tgt, ast.Subscript):
                        sub_tgt = sub_tgt.value
                        if (
                            isinstance(sub_tgt, ast.Name)
                            and sub_tgt.id in globals_of_module
                            and (
                                sub_tgt.id in declared_global
                                or sub_tgt.id not in bound_local
                            )
                        ):
                            globals_written.append(EffectEvent(
                                "global-write", line,
                                f"subscript store into module-level "
                                f"{sub_tgt.id!r}",
                            ))
                    elif (
                        isinstance(sub_tgt, ast.Name)
                        and sub_tgt.id in declared_global
                    ):
                        globals_written.append(EffectEvent(
                            "global-write", line,
                            f"rebinds module-level {sub_tgt.id!r} "
                            "(global statement)",
                        ))
            elif isinstance(sub, ast.Subscript) and isinstance(
                sub.ctx, ast.Load
            ):
                if dotted_name(sub.value) == "os.environ":
                    sources.append(EffectEvent(
                        "env", line, "os.environ[...] read",
                    ))

        sources.extend(self._order_dependent_sites(fn, node))
        return EffectSummary(
            fn=fn,
            reads=summary.reads,
            writes=summary.writes,
            sources=tuple(sorted(
                sources, key=lambda e: (e.line, e.kind, e.detail)
            )),
            globals_written=tuple(sorted(
                globals_written, key=lambda e: (e.line, e.detail)
            )),
            io=tuple(sorted(io, key=lambda e: (e.line, e.detail))),
        )

    def _scan_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: Dict[str, Optional[TypeRef]],
        aliases: Dict[str, str],
        sources: List[EffectEvent],
        io: List[EffectEvent],
        parents: Dict[int, ast.AST],
    ) -> None:
        func = call.func
        line = call.lineno
        dotted = dotted_name(func)
        # Unseeded global-generator draws.  ``random.Random(...)`` and
        # state plumbing are the approved idiom; a typed local named
        # ``random`` shadows the module.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and env.get("random") is None
            and func.attr not in RNG_ALLOWED
        ):
            sources.append(EffectEvent(
                "rng", line, f"random.{func.attr}() draws from the "
                "process-global generator",
            ))
        elif isinstance(func, ast.Name):
            alias_target = aliases.get(func.id)
            if (
                alias_target is not None
                and alias_target.startswith("random.")
                and alias_target.split(".", 1)[1] not in RNG_ALLOWED
            ):
                sources.append(EffectEvent(
                    "rng", line,
                    f"{func.id}() is module-level {alias_target}",
                ))
            elif alias_target is not None and (
                alias_target in WALL_CALLS
                or (
                    alias_target.startswith("time.")
                    and alias_target.split(".", 1)[1] in WALL_IMPORTS
                )
            ):
                sources.append(EffectEvent(
                    "wallclock", line,
                    f"{func.id}() reads the host clock ({alias_target})",
                ))
            elif func.id in ("id", "hash") and func.id not in env:
                if not _is_memo_key_use(call, parents):
                    sources.append(EffectEvent(
                        "idhash", line,
                        f"{func.id}() depends on allocation addresses / "
                        "PYTHONHASHSEED",
                    ))
            elif func.id == "getenv" and aliases.get("getenv") == "os.getenv":
                sources.append(EffectEvent("env", line, "os.getenv() read"))
            elif func.id in IO_NAME_CALLS:
                io.append(EffectEvent("io", line, f"{func.id}() call"))
            elif func.id == "as_completed":
                sources.append(EffectEvent(
                    "pool-order", line,
                    "as_completed() yields in completion order",
                ))
        if dotted is not None:
            if dotted in WALL_CALLS:
                sources.append(EffectEvent(
                    "wallclock", line, f"{dotted}() reads the host clock",
                ))
            elif dotted in ("os.getenv",):
                sources.append(EffectEvent("env", line, "os.getenv() read"))
            elif dotted.startswith("os.environ."):
                sources.append(EffectEvent(
                    "env", line, f"{dotted}() read",
                ))
        if isinstance(func, ast.Attribute):
            if func.attr in ("imap_unordered", "as_completed"):
                sources.append(EffectEvent(
                    "pool-order", line,
                    f".{func.attr}() yields in worker completion order",
                ))
            elif func.attr in IO_ATTR_CALLS:
                # Only count as I/O when the receiver is not a project
                # class (project ``write`` methods are plain calls whose
                # own effects are summarized separately).
                base = self.table.infer_expr(func.value, env)
                if base is None or self.table.resolve_class(base.name) is None:
                    io.append(EffectEvent(
                        "io", line, f".{func.attr}() call",
                    ))

    def _order_dependent_sites(
        self, fn: FunctionInfo, node: ast.AST
    ) -> List[EffectEvent]:
        """Iteration-order-dependent constructs over set-typed values.

        A site is exempt when its result feeds an order-free consumer
        directly (``sorted(tuple(s))``, ``sum(x for x in s)``) or when
        the construct's own output is a set again (order re-erased).
        """
        events: List[EffectEvent] = []
        parents: Dict[ast.AST, ast.AST] = {}
        for sub in ast.walk(node):
            for child in ast.iter_child_nodes(sub):
                parents[child] = sub

        def consumed_order_free(site: ast.AST) -> bool:
            consumer = parents.get(site)
            return (
                isinstance(consumer, ast.Call)
                and isinstance(consumer.func, ast.Name)
                and consumer.func.id in ORDER_FREE_CONSUMERS
                and len(consumer.args) >= 1
                and consumer.args[0] is site
            )

        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                if self.is_set_typed(fn, sub.iter):
                    events.append(EffectEvent(
                        "set-order", sub.lineno,
                        "for-loop iterates a set-typed value",
                    ))
            elif isinstance(
                sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                if consumed_order_free(sub):
                    continue
                for gen in sub.generators:
                    if self.is_set_typed(fn, gen.iter):
                        events.append(EffectEvent(
                            "set-order", sub.lineno,
                            "comprehension iterates a set-typed value",
                        ))
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ORDER_KEEPING_CALLS
                    and sub.args
                    and not consumed_order_free(sub)
                    and self.is_set_typed(fn, sub.args[0])
                ):
                    events.append(EffectEvent(
                        "set-order", sub.lineno,
                        f"{func.id}() preserves set iteration order",
                    ))
        return events

    # -- transitive queries -------------------------------------------------

    def transitive(self, qualname: str) -> TransitiveEffects:
        """Effects of ``qualname`` plus its resolvable callee closure."""
        cached = self._transitive_cache.get(qualname)
        if cached is not None:
            return cached
        merged = TransitiveEffects()
        for member in sorted(self.closure([qualname])):
            summary = self.summaries.get(member)
            if summary is None:
                continue
            merged.sources.extend((member, e) for e in summary.sources)
            merged.globals_written.extend(
                (member, e) for e in summary.globals_written
            )
            merged.io.extend((member, e) for e in summary.io)
            merged.foreign_writes.extend(
                (member, w) for w in summary.foreign_writes()
            )
            merged.self_writes.extend(
                (member, w) for w in summary.self_writes()
            )
            merged.reads.update(summary.reads)
        self._transitive_cache[qualname] = merged
        return merged

    def closure(self, roots: Iterable[str]) -> Set[str]:
        """Qualnames reachable from ``roots`` via calls and properties."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.table.functions]
        while queue:
            qual = queue.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for site in self.graph.callees(qual):
                if site.callee not in seen:
                    queue.append(site.callee)
        return seen


#: Dict-lookup methods whose first argument is a key.
_KEYED_LOOKUPS = frozenset({"get", "pop", "setdefault"})


def _is_memo_key_use(call: ast.Call, parents: Dict[int, ast.AST]) -> bool:
    """``id(x)``/``hash(x)`` consumed *directly* as a mapping key.

    The identity-keyed-memo idiom (``self._groups[id(group)]``,
    ``self._designated.get(id(group))``): the identity value selects an
    entry and never escapes the lookup, so it cannot reorder anything
    observable -- the memo's *values* are what flow onward.  Interning
    (``DomainBuilder``) keeps the key stable within a pass.  Any other
    use of ``id()``/``hash()`` (comparisons, arithmetic, storage in
    results) stays a nondeterminism source.
    """
    parent = parents.get(id(call))
    if isinstance(parent, ast.Subscript) and parent.slice is call:
        return True
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Attribute)
        and parent.func.attr in _KEYED_LOOKUPS
        and parent.args
        and parent.args[0] is call
    ):
        return True
    return False


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound by module-level statements (assignment targets)."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                for name_node in ast.walk(tgt):
                    if isinstance(name_node, ast.Name):
                        names.add(name_node.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


# ---------------------------------------------------------------------------
# Hot-path purity classification (consumed by the pure-hot-path rule and
# the vectorization-safety report).

#: The fast-path hot loops: every function reachable from these is what
#: ``SchedFeatures.with_fastpath`` memoizes/batches -- and therefore what
#: the ROADMAP's vectorized core would transform first.  Labels are
#: report keys; values locate the root as (class bare name or None, name).
HOT_ROOTS: Dict[str, Tuple[Optional[str], str]] = {
    "runqueue-load": ("RunQueue", "load"),
    "runqueue-total-weight": ("RunQueue", "total_weight"),
    "group-stats-fold": (None, "_fold_group_stats"),
    "designated-election": (None, "_elect_designated"),
    "event-pending": ("EventLoop", "pending"),
    # The fast path's mirror (repro.sched.vecstate): the sync sweep,
    # the group folds, the bulk busiest-group selection and the
    # election memo.  Everything they reach must stay effect-bounded or
    # the certificate is void (the rule fails the lint).
    "vec-sync": ("VecState", "_sync"),
    "vec-group-stats": ("VecState", "group_stats"),
    "vec-fold": ("VecState", "_fold_entry"),
    "vec-find-busiest": ("VecState", "find_busiest"),
    "vec-designated": ("VecState", "designated_for"),
    # The NOHZ balance driver's reduction over the per-CPU next-balance
    # deadline array, and the lazy fold of queued idle flips into the
    # election memo and the gates that every gate and election query
    # runs first.
    "vec-balance-due": ("VecState", "balance_due"),
    "vec-reconcile": ("VecState", "_reconcile"),
}

#: Classification lattice, weakest to strongest claim.
CATEGORIES = ("pure", "bounded", "escaping")


def root_function(
    engine: EffectEngine, cls: Optional[str], name: str
) -> Optional[FunctionInfo]:
    """Locate one hot root in the engine's symbol table."""
    if cls is not None:
        info = engine.table.resolve_class(cls)
        if info is None:
            return None
        return info.methods.get(name)
    for fn in engine.table.functions.values():
        if fn.name == name and fn.cls is None:
            return fn
    return None


def classify_function(
    engine: EffectEngine, qualname: str
) -> Tuple[str, List[str]]:
    """(category, reasons) for one function's *direct* effects.

    * ``pure`` -- reads only: no writes, no sources, no globals, no I/O.
    * ``bounded`` -- writes confined to the receiver's own state
      (``self`` fields: memo cells, counters, incremental mirrors) --
      batching must preserve them but nothing outside the object can
      observe intermediate states.
    * ``escaping`` -- anything the vectorized rewrite cannot reorder:
      foreign-object writes, module-global mutation, nondeterminism
      sources, or I/O.
    """
    summary = engine.summaries.get(qualname)
    if summary is None:
        return "pure", []
    reasons: List[str] = []
    for event in summary.sources:
        reasons.append(
            f"line {event.line}: nondeterminism source [{event.kind}]: "
            f"{event.detail}"
        )
    for event in summary.globals_written:
        reasons.append(f"line {event.line}: {event.detail}")
    for event in summary.io:
        reasons.append(f"line {event.line}: I/O: {event.detail}")
    if not summary.fn.is_init:
        for write in summary.foreign_writes():
            owner = write.cls or "<unresolved>"
            if owner.startswith("<"):
                continue  # builtin/typing receiver: not an object escape
            if write.kind == "mutate":
                ftype = engine.table.field_type(owner, write.attr)
                if (
                    ftype is not None
                    and engine.table.resolve_class(ftype.name) is not None
                ):
                    # A mutating *call* on a project-class field
                    # (``cpu.rq.load(...)``): the actual writes happen
                    # inside the callee, which the call graph already
                    # pulls into the closure and classifies on its own
                    # -- counting the call site again would double-bill
                    # the callee's self-confined memo writes as foreign.
                    continue
            reasons.append(
                f"line {write.line}: writes {owner}.{write.attr} through "
                "a foreign receiver"
            )
    if reasons:
        return "escaping", reasons
    if summary.fn.is_init or summary.self_writes():
        return "bounded", []
    if summary.foreign_writes():
        # Only builtin-receiver writes remained (e.g. a local list).
        return "bounded", []
    return "pure", []


def _memo_write_kinds(summary: EffectSummary) -> List[str]:
    """Human-readable labels for a bounded function's self-writes."""
    labels: Set[str] = set()
    for write in summary.self_writes():
        if write.attr.startswith("_cached"):
            labels.add("memo-cell")
        elif normalize_counter(write.attr) in COUNTER_NAMES:
            labels.add("dirty-counter")
        else:
            labels.add(f"self.{write.attr}")
    return sorted(labels)


def vectorization_report(
    engine: EffectEngine,
) -> Dict[str, object]:
    """The machine-readable vectorization-safety certification.

    Walks the callee closure of every :data:`HOT_ROOTS` entry, classifies
    each member function, and names exactly which functions a batched
    rewrite may transform (``safe``: pure or bounded) and which
    have escaping effects (``unsafe``, with reasons).  Functions outside
    the closure are simply not certified either way.
    """
    roots: Dict[str, str] = {}
    for label in sorted(HOT_ROOTS):
        cls, name = HOT_ROOTS[label]
        fn = root_function(engine, cls, name)
        if fn is not None:
            roots[label] = fn.qualname
    members = engine.closure(roots.values())
    functions: List[Dict[str, object]] = []
    safe: List[str] = []
    unsafe: List[str] = []
    counts = {category: 0 for category in CATEGORIES}
    for qual in sorted(members):
        summary = engine.summaries.get(qual)
        if summary is None:
            continue
        category, reasons = classify_function(engine, qual)
        counts[category] += 1
        (safe if category != "escaping" else unsafe).append(qual)
        entry: Dict[str, object] = {
            "qualname": qual,
            "path": summary.fn.display_path,
            "line": getattr(summary.fn.node, "lineno", 0),
            "category": category,
            "reads": sorted(f"{c}.{a}" for c, a in summary.reads),
        }
        if category == "bounded":
            entry["self_effects"] = _memo_write_kinds(summary)
        if reasons:
            entry["reasons"] = reasons
        functions.append(entry)
    return {
        "version": 1,
        "tool": "repro-lint/pure-hot-path",
        "roots": roots,
        "summary": counts,
        "safe": safe,
        "unsafe": unsafe,
        "functions": functions,
    }
