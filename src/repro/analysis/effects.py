"""The shared nondeterminism vocabulary and the engine the taint rule runs on.

Two consumers share this module so their notions of a nondeterminism
source can never drift apart:

* the per-file determinism rules (:mod:`repro.analysis.rules.determinism`:
  ``det-unseeded-random``, ``det-wallclock``, ``det-set-iteration``)
  import the vocabulary constants;
* the whole-program ``determinism-taint`` rule
  (:mod:`repro.analysis.rules.taint`) imports the same constants plus
  :class:`EffectEngine` -- the symbol table, per-module import aliases,
  call resolution and set-typedness inference it flows taint over.

Everything is pure and deterministic: same trees in, same answers out.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.analysis.callgraph import module_aliases, resolve_call
from repro.analysis.symbols import FunctionInfo, SymbolTable, TypeRef

# ---------------------------------------------------------------------------
# Shared nondeterminism vocabulary.  The per-file determinism rules and
# the whole-program taint rule import these from here so their
# source/sanitizer lists -- and so what each treats as provably-ordered
# iteration -- can never drift apart.

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
# The engine.


def _annotation_is_set(ref: Optional[TypeRef]) -> bool:
    return ref is not None and ref.name in SET_TYPE_NAMES


class EffectEngine:
    """Symbol table, import aliases and call resolution for one file set."""

    def __init__(self, files: Sequence[Tuple[str, str, ast.Module]]):
        self.table = SymbolTable.build(files)
        self.aliases = module_aliases(files)

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
