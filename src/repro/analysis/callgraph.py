"""Type-aware project call graph.

Edges are resolved with :class:`~repro.analysis.symbols.SymbolTable`'s
annotation-driven inference, so ``cpu.rq.enqueue(...)`` in
``scheduler.py`` produces an edge to ``RunQueue.enqueue`` while
``self.pending_dispatch.add(...)`` (a ``Set[int]`` field) produces none
-- bare method names never create edges on their own.  Three call shapes
resolve:

* ``name(...)`` -- a same-module (or ``from``-imported) function, or a
  class constructor (edge to its ``__init__``);
* ``recv.m(...)`` -- a method of the receiver's inferred class, walking
  bare-name bases;
* ``alias.f(...)`` -- a function of an imported module
  (``from repro.sched import balance as lb; lb.periodic_balance(...)``).

``super().m(...)`` additionally resolves to the method of the *nearest
bare-name base* of the enclosing class that defines it -- the zero-arg
``super()`` idiom this codebase uses (two-arg ``super(X, y)`` is treated
the same way; the analyzer does not model explicit MRO restarts).

Plain attribute *reads* that resolve to a method also produce an edge:
that is how ``rq.nr_running`` (a property) connects the balancer's
dependency closure to the fields the property actually touches.

Unresolvable calls produce no edge; interprocedural consumers must treat
missing edges conservatively (the coherence pass treats an uncalled
writer as uncovered, never as safe).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.symbols import FunctionInfo, SymbolTable, TypeRef


@dataclass(frozen=True)
class CallSite:
    """One resolved call (or property access): caller -> callee."""

    caller: str
    callee: str
    line: int
    #: ``"call"`` or ``"property"`` (attribute access resolving to a
    #: method; no argument flow, but the body still executes on read).
    kind: str = "call"


class CallGraph:
    """Caller/callee indexes over resolved call sites."""

    def __init__(self) -> None:
        self.callees_of: Dict[str, List[CallSite]] = {}
        self.callers_of: Dict[str, List[CallSite]] = {}

    def _add(self, site: CallSite) -> None:
        self.callees_of.setdefault(site.caller, []).append(site)
        self.callers_of.setdefault(site.callee, []).append(site)

    def callees(self, qualname: str) -> List[CallSite]:
        return self.callees_of.get(qualname, [])

    def callers(self, qualname: str) -> List[CallSite]:
        return self.callers_of.get(qualname, [])

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        table: SymbolTable,
        files: Sequence[Tuple[str, str, ast.Module]],
    ) -> "CallGraph":
        graph = cls()
        aliases = module_aliases(files)
        for fn in table.functions.values():
            graph._scan_function(table, fn, aliases.get(fn.module, {}))
        return graph

    def _scan_function(
        self,
        table: SymbolTable,
        fn: FunctionInfo,
        aliases: Dict[str, str],
    ) -> None:
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        env = table.env_of(fn)
        call_funcs: Set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                call_funcs.add(id(sub.func))
                callee = resolve_call(table, fn, sub, env, aliases)
                if callee is not None:
                    self._add(CallSite(fn.qualname, callee, sub.lineno))
        # Second walk: attribute reads resolving to methods (properties
        # and bound-method references), excluding the call heads above.
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in call_funcs
            ):
                base = table.infer_expr(sub.value, env)
                if base is None:
                    continue
                target = table.method(base.name, sub.attr)
                if target is not None:
                    self._add(CallSite(
                        fn.qualname, target.qualname, sub.lineno,
                        kind="property",
                    ))

def _is_super_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def resolve_call(
    table: SymbolTable,
    fn: FunctionInfo,
    call: ast.Call,
    env: Dict[str, Optional[TypeRef]],
    aliases: Dict[str, str],
) -> Optional[str]:
    """The qualname one call expression resolves to, or None (the
    resolver the graph builder uses for every call site)."""
    func = call.func
    if isinstance(func, ast.Name):
        info = table.resolve_class(func.id)
        if info is not None:
            ctor = info.methods.get("__init__")
            return ctor.qualname if ctor is not None else None
        target = table.module_function(fn.module, func.id)
        if target is not None:
            return target.qualname
        # ``from mod import f`` -- the alias maps straight to a
        # function qualname.
        dotted = aliases.get(func.id)
        if dotted is not None and dotted in table.functions:
            return dotted
        return None
    if isinstance(func, ast.Attribute):
        if _is_super_call(func.value) and fn.cls is not None:
            # ``super().m(...)``: the method of the nearest declaring
            # base, starting from the enclosing class's direct bases.
            info = table.resolve_class(fn.cls)
            if info is not None:
                for base in info.bases:
                    target = table.method(base, func.attr)
                    if target is not None:
                        return target.qualname
            return None
        if isinstance(func.value, ast.Name):
            # Module-alias call (``lb.periodic_balance``) -- but only
            # when the name is not a typed local shadowing the alias.
            if func.value.id not in env or env[func.value.id] is None:
                dotted = aliases.get(func.value.id)
                if dotted is not None:
                    qual = f"{dotted}.{func.attr}"
                    if qual in table.functions:
                        return qual
        base = table.infer_expr(func.value, env)
        if base is None:
            return None
        target = table.method(base.name, func.attr)
        return target.qualname if target is not None else None
    return None


def module_aliases(
    files: Sequence[Tuple[str, str, ast.Module]],
) -> Dict[str, Dict[str, str]]:
    """Per-module map of local import names to dotted targets.

    ``import a.b as c`` binds ``c -> a.b``; ``from a.b import c [as d]``
    binds the local name to ``a.b.c`` (works for both submodules and
    functions -- the resolver checks which one exists).
    """
    out: Dict[str, Dict[str, str]] = {}
    for module, _display, tree in files:
        table = out.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    table[local] = name.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports: unused in this codebase
                for name in node.names:
                    local = name.asname or name.name
                    table[local] = f"{node.module}.{name.name}"
    return out
