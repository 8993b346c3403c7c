"""Determinism sanitizer: every experiment promises bit-identical reruns.

The simulator's contract (see ``repro.sim.system``: "Everything is
deterministic for a fixed seed") is what makes the Table/Figure
reproductions trustworthy and the same-seed trace-equality regression test
possible.  Four rules guard it:

* ``det-unseeded-random`` -- module-level ``random.*`` calls draw from the
  interpreter-global generator, whose state depends on import order and on
  every other caller.  All randomness must flow from a ``random.Random(seed)``
  instance owned by the workload or the system.
* ``det-wallclock`` -- ``time.time()`` / ``datetime.now()`` and friends leak
  host wall-clock into simulated state.  Scoped to the simulation hot paths
  (``repro.sched``, ``repro.sim``, ``repro.core``); benchmarking code in
  ``repro.experiments`` legitimately measures real time.
* ``det-set-iteration`` -- iterating a ``set``/``frozenset`` has no
  guaranteed order: string hashing is salted per process (PYTHONHASHSEED)
  and object hashes depend on allocation addresses, so draining
  ``pending_dispatch``-style state unsorted reorders scheduling decisions
  between runs.  Order-insensitive reductions (``sum``, ``min``, ``max``,
  ``any``, ``all``, ``len``, ``sorted``, set construction) are allowed;
  everything else must sort first.
* ``det-float-sum`` -- a float sum depends on the order *and* the method
  of addition: the builtin ``sum`` of floats is compensated since
  Python 3.12 and ``math.fsum`` is exact, so either rounds differently
  from the sequential adds the memoized, mirrored and reference paths
  share.  Load and utilization sums in ``repro.sched``/``repro.sim``
  must go through :func:`repro.sched.load.load_sum`.

Set-typedness is static and deliberately conservative: an expression is
set-typed when it is a set display/comprehension, a ``set()``/``frozenset()``
call, a name annotated as a set in the same file, or an attribute whose
annotation -- anywhere in the analyzed project -- is a set type *and* no
other class annotates an attribute of the same name with a non-set type
(ambiguous attribute names are skipped rather than guessed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule

#: Module prefixes whose behavior feeds simulated state.
HOT_SCOPE = ("repro.sched", "repro.sim", "repro.core")

#: Annotation/inference heads that denote unordered set types.
SET_TYPE_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})

#: Callables that consume an iterable order-insensitively: feeding a set
#: into one of these erases the order dependence -- ``sorted`` by
#: re-imposing a total order, the reductions by commutativity.  (Float
#: addition is not associative; ``det-float-sum`` covers load sums.)
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

#: Calls that sum floats by a method other than sequential addition.
FSUM_CALLS = frozenset({"fsum", "math.fsum", "statistics.fsum"})

#: Identifier fragments that mark a builtin ``sum`` as a float load sum.
FLOAT_SUM_HINTS = ("load", "util")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class UnseededRandomRule(Rule):
    """Flag draws from the process-global ``random`` generator."""

    rule_id = "det-unseeded-random"
    description = (
        "module-level random.* calls are unseeded; use a "
        "random.Random(seed) instance owned by the workload/system"
    )
    scope: Optional[Tuple[str, ...]] = None  # the whole tree must reproduce

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr not in RNG_ALLOWED
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"call to unseeded random.{func.attr}(); draw from "
                        "a random.Random(seed) instance instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name not in RNG_ALLOWED
                ]
                if bad:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "importing module-level generator function(s) "
                        f"{', '.join(sorted(bad))} from random; import "
                        "random.Random and seed it explicitly",
                    )


class WallClockRule(Rule):
    """Flag host wall-clock reads inside the simulation hot paths."""

    rule_id = "det-wallclock"
    description = (
        "wall-clock calls in sched/sim/core leak host time into "
        "simulated state; use the event loop's virtual 'now'"
    )
    scope = HOT_SCOPE

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in WALL_CALLS:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"wall-clock call {dotted}() in a simulation hot "
                        "path; pass the simulated 'now' instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name in WALL_IMPORTS
                ]
                if bad:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"importing wall-clock source(s) "
                        f"{', '.join(sorted(bad))} from time in a "
                        "simulation hot path",
                    )


def _annotation_kind(annotation: Optional[ast.AST]) -> Optional[str]:
    """"set" / "other" for an annotation expression, None if unreadable."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: look at the leading identifier.
        head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return "set" if head in SET_TYPE_NAMES else "other"
    name = _dotted(node)
    if name is None:
        return None
    return "set" if name.rsplit(".", 1)[-1] in SET_TYPE_NAMES else "other"


@dataclass
class _AttrCandidate:
    """An iteration over ``x.attr`` awaiting project-wide disambiguation."""

    attr: str
    finding: Finding


class SetIterationRule(Rule):
    """Flag order-sensitive iteration over set-typed values."""

    rule_id = "det-set-iteration"
    description = (
        "iterating a set has no deterministic order; wrap in sorted() "
        "or use an ordered container"
    )
    scope = HOT_SCOPE

    def __init__(self) -> None:
        #: attr name -> kinds seen anywhere in the project ("set"/"other").
        self._attr_kinds: Dict[str, Set[str]] = {}
        self._candidates: List[_AttrCandidate] = []

    # -- annotation collection ------------------------------------------------

    def _collect_annotations(self, ctx: FileContext) -> Dict[str, str]:
        """File-local name -> kind; also feeds the project attribute map.

        Class-body annotations (dataclass fields, slots declarations) are
        *attribute* declarations and only feed the project-wide attribute
        map; module/function-level annotations and parameter annotations
        only feed the file-local name map.
        """
        local: Dict[str, Set[str]] = {}
        class_fields = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        class_fields.add(stmt)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign):
                kind = _annotation_kind(node.annotation)
                if kind is None:
                    continue
                target = node.target
                if isinstance(target, ast.Name):
                    if node in class_fields:
                        self._attr_kinds.setdefault(
                            target.id, set()
                        ).add(kind)
                    else:
                        local.setdefault(target.id, set()).add(kind)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._attr_kinds.setdefault(target.attr, set()).add(kind)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = list(node.args.args) + list(node.args.kwonlyargs)
                for arg in args:
                    kind = _annotation_kind(arg.annotation)
                    if kind is not None:
                        local.setdefault(arg.arg, set()).add(kind)
        # A name annotated inconsistently within one file is ambiguous.
        return {
            name: "set"
            for name, kinds in local.items()
            if kinds == {"set"}
        }

    # -- set-typedness --------------------------------------------------------

    def _is_set_expr(self, node: ast.AST, local: Dict[str, str]) -> bool:
        """True when ``node`` is *immediately* known to be a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in SET_METHODS:
                # x.union(y) etc. -- set algebra yields sets.  Guarded to
                # receivers that are themselves set-typed to avoid str.copy
                # style false positives.
                return self._is_set_expr(func.value, local) or (
                    func.attr != "copy"
                )
            return False
        if isinstance(node, ast.Name):
            return local.get(node.id) == "set"
        return False

    def _attr_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    # -- iteration sites ------------------------------------------------------

    def _iteration_sites(
        self, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, ast.AST, str]]:
        """(iterable-expr, anchor-node, how) for every order-sensitive use."""
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter, node, "for-loop"
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                consumer = parents.get(node)
                if (
                    isinstance(node, (ast.GeneratorExp, ast.ListComp))
                    and isinstance(consumer, ast.Call)
                    and isinstance(consumer.func, ast.Name)
                    and consumer.func.id in ORDER_FREE_CONSUMERS
                    and len(consumer.args) >= 1
                    and consumer.args[0] is node
                ):
                    # sum(x for x in s), sorted(x for x in s), ... -- the
                    # reduction erases iteration order.
                    continue
                if isinstance(node, ast.SetComp):
                    # The comprehension's own output is a set again; order
                    # only matters where *that* set is iterated.
                    continue
                for gen in node.generators:
                    yield gen.iter, node, "comprehension"
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ORDER_KEEPING_CALLS
                    and node.args
                ):
                    consumer = parents.get(node)
                    if (
                        isinstance(consumer, ast.Call)
                        and isinstance(consumer.func, ast.Name)
                        and consumer.func.id in ORDER_FREE_CONSUMERS
                        and len(consumer.args) >= 1
                        and consumer.args[0] is node
                    ):
                        # ``sorted(list(s))``, ``sum(tuple(s))`` -- the
                        # order-keeping wrapper feeds straight into an
                        # order-free consumer, so the laundered order
                        # never escapes.
                        continue
                    yield node.args[0], node, f"{func.id}()"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        local = self._collect_annotations(ctx)
        for iterable, anchor, how in self._iteration_sites(ctx):
            if self._is_set_expr(iterable, local):
                yield ctx.finding(
                    self.rule_id,
                    anchor,
                    f"{how} iterates a set-typed value; iteration order is "
                    "not deterministic -- wrap in sorted(...)",
                )
                continue
            attr = self._attr_name(iterable)
            if attr is not None and not attr.startswith("__"):
                self._candidates.append(
                    _AttrCandidate(
                        attr=attr,
                        finding=ctx.finding(
                            self.rule_id,
                            anchor,
                            f"{how} iterates '.{attr}', which is annotated "
                            "as a set; iteration order is not deterministic "
                            "-- wrap in sorted(...)",
                        ),
                    )
                )

    def finalize(self) -> Iterator[Finding]:
        for candidate in self._candidates:
            kinds = self._attr_kinds.get(candidate.attr)
            # Only report when every annotation of this attribute name in
            # the project is a set type: ambiguous names are skipped rather
            # than guessed (GroupStats.cpus is a Tuple, SchedGroup.cpus a
            # FrozenSet -- neither should be flagged by name alone).
            if kinds == {"set"}:
                yield candidate.finding


def _float_sum_hint(node: ast.AST) -> Optional[str]:
    """The first identifier under ``node`` that names a load or util."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        else:
            continue
        if any(hint in name.lower() for hint in FLOAT_SUM_HINTS):
            return name
    return None


class FloatSumRule(Rule):
    """Flag float load sums that bypass ``load_sum``'s sequential adds."""

    rule_id = "det-float-sum"
    description = (
        "float load/util sums via builtin sum() or fsum() round "
        "differently across Python versions; use "
        "repro.sched.load.load_sum"
    )
    scope = ("repro.sched", "repro.sim")

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in FSUM_CALLS:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{dotted}() rounds differently from sequential "
                    "adds; use repro.sched.load.load_sum",
                )
            elif dotted == "sum" and node.args:
                hint = _float_sum_hint(node.args[0])
                if hint is not None:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"builtin sum() over '{hint}' is compensated "
                        "since Python 3.12 and rounds differently from "
                        "sequential adds; use repro.sched.load.load_sum",
                    )
