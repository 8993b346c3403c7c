"""Hot-path cost & allocation analyzer.

PR 8's profile of the vectorized core says the remaining wall time is
scalar CFS pick/enqueue object churn, not balance sampling.  This module
turns that observation into a *tool*: a whole-program static model, built
on the PR 4 :class:`~repro.analysis.symbols.SymbolTable` /
:class:`~repro.analysis.callgraph.CallGraph` and the PR 7
:class:`~repro.analysis.effects.EffectEngine`, that

* infers every **allocation site** in the scheduler/sim layers -- list,
  dict, set, tuple and object construction, comprehensions and generator
  expressions, closures, string formatting -- and classifies each by a
  syntactic escape analysis into ``per-call`` (runs on the hot path's
  steady state), ``amortized`` (memo/epoch-guarded: the site runs only
  on a miss path, behind the same guard idioms the PR 4 coherence rule
  certifies), or ``init-only`` (constructors);
* infers a **symbolic loop cost** per function over the simulation's
  collection domains (``tasks``, ``cpus``, ``groups``, ``heap``...) by
  resolving loop iterables through the callgraph, composing the costs
  interprocedurally to per-:data:`~repro.analysis.effects.HOT_ROOTS`
  big-O expressions (a worst-case expression and a *steady-state* one
  that drops memo-guarded contributions);
* certifies each hot root on the ``alloc-free`` < ``amortized`` <
  ``allocating`` lattice (mirroring PR 7's pure < bounded < escaping)
  against the declarations in :mod:`repro.sched.allocdecl`; and
* ranks the **scalar residue** -- functions reachable from the
  simulation drivers but *not* from the ``vec-*`` hot roots -- by
  static cost x bench-profile weight: the work-list for the next
  vectorization change.

Escape analysis, precisely
--------------------------

A site (or call edge) is ``amortized`` when any of these hold:

* it appears *after* the function's first **guarded return** -- a
  ``return`` whose governing ``if`` tests private memo/epoch state
  (``self._cached...``, any ``self._x`` read, or ``m is (not) None`` for
  a local bound from a private-dict probe), or that directly returns a
  private incremental mirror (``return self._total_weight``).  This is
  the memo-hit idiom: everything after the hit return is the miss path;
* it sits inside a branch whose test reads private ``self._x`` state
  (epoch compares, mode flags -- the hot configuration has the caches
  on, so cache-off fallbacks are not steady-state), or inside the miss
  arm of a memo-probe test (``if m is None: ...`` body, or the ``else``
  of ``if m is not None: ...``).

Two allocation kinds are *reported but exempt from certification*,
mirroring what the runtime tracker (:mod:`repro.analysis.alloctrack`)
can observe: **boxed arithmetic** (fresh int/float objects, served from
CPython freelists and far below the tracker's byte threshold) and
**bare tuple returns** (``return a, b, c`` -- the function's calling
convention, freelist-served and not churn the vectorized rewrite could
remove without changing the interface).

Branches guarded by the coherence sanitizer's flags (``self._sanitize``)
are excluded entirely, like the coherence rule excludes
``repro.sched.sanitizer`` from dependency closures: the cross-check is
definitionally not the production path.

Everything here is a pure function of the analyzed source text: same
trees in, same report out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.effects import (
    HOT_ROOTS,
    EffectEngine,
    root_function,
)
from repro.analysis.symbols import FunctionInfo, TypeRef

#: Schema version of the ``--cost-report`` document.
COST_REPORT_VERSION = 1

#: The certification lattice, weakest to strongest allocation behavior.
ALLOC_LATTICE: Tuple[str, ...] = ("alloc-free", "amortized", "allocating")

#: Site escape classes.
ESCAPES: Tuple[str, ...] = ("init-only", "amortized", "per-call")

#: Reference sizes used to scalarize cost polynomials for the residue
#: ranking (the soak64 bench machine: 64 CPUs, ~64 runnable tasks).
DOMAIN_SIZES: Dict[str, int] = {
    "tasks": 64,
    "cpus": 64,
    "groups": 8,
    "domains": 3,
    "heap": 256,
    "log(tasks)": 6,
    "log(heap)": 8,
    "rec": 16,
    "n": 8,
}

#: Sanitizer-mode flags: an ``if`` testing one of these guards a
#: diagnostic cross-check branch, excluded from the hot-path model.
_DIAGNOSTIC_FLAGS = frozenset({"_sanitize", "sanitize_coherence"})

#: The sanitizer module itself is never part of the production path.
_SANITIZER_MODULE = "repro.sched.sanitizer"

#: Builtin constructors that allocate a container.
_CONTAINER_CTORS = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "sorted",
})

#: Builtin iterable adapters that add no domain of their own.
_ITER_PASSTHROUGH = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "reversed", "iter",
    "enumerate", "range",
})

#: Cost axioms: data-structure operations whose bounds the loop-domain
#: engine cannot derive syntactically (balanced-tree walks, heap sifts,
#: in-frame folds over unpacked member counts).  Stated once, next to
#: their structure; an axiom replaces the whole computed subtree.
_COST_AXIOMS: Dict[str, str] = {
    "RBTree.insert": "log(tasks)",
    "RBTree.remove": "log(tasks)",
    "RBTree.leftmost": "log(tasks)",
    "RBTree.pop_leftmost": "log(tasks)",
    "RBTree.get": "log(tasks)",
    "RBTree.__contains__": "log(tasks)",
    "RBTree.__len__": "1",
    "RBTree.values": "tasks",
    "RBTree.items": "tasks",
    "RBTree.keys": "tasks",
    "VecState._fold_entry": "cpus",
}

#: C-level heap primitives (unresolvable through the callgraph).
_HEAP_CALL_COSTS: Dict[str, str] = {
    "heappush": "log(heap)",
    "heappop": "log(heap)",
    "heapreplace": "log(heap)",
    "heapify": "heap",
}

#: Known iterable producers -> domain (by resolved qualname).
_ITER_DOMAIN_FUNCS: Dict[str, str] = {
    "RunQueue.all_tasks": "tasks",
    "RunQueue.queued_tasks": "tasks",
    "RBTree.values": "tasks",
    "RBTree.items": "tasks",
    "RBTree.keys": "tasks",
    "SchedGroup.sorted_cpus": "cpus",
    "SchedGroup.sorted_balance_mask": "cpus",
    "SchedGroup.balance_mask": "cpus",
    "Scheduler.online_cpus": "cpus",
    "Scheduler.idle_cpus": "cpus",
}

#: Known iterable fields -> domain, by (class bare name, attribute).
_ITER_DOMAIN_FIELDS: Dict[Tuple[str, str], str] = {
    ("Scheduler", "cpus"): "cpus",
    ("System", "cpus"): "cpus",
    ("SchedDomain", "groups"): "groups",
    ("SchedGroup", "cpus"): "cpus",
    ("SchedGroup", "balance_cpus"): "cpus",
    ("EventLoop", "_heap"): "heap",
    ("VecState", "_dirty_list"): "cpus",
    ("VecState", "_desig_by_cpu"): "cpus",
    ("VecState", "_idle_q"): "cpus",
    ("_Election", "mask"): "cpus",
    ("_DomainCache", "entries"): "groups",
    ("_DomainCache", "examined"): "cpus",
}

#: Element-type bare names -> domain (for annotated containers).
_ELEM_DOMAINS: Dict[str, str] = {
    "Task": "tasks",
    "Cpu": "cpus",
    "SchedGroup": "groups",
    "_Election": "groups",
    "SchedDomain": "domains",
    "_Event": "heap",
}

#: The scalar simulation drivers the residue ranking closes over: the
#: event dispatch loop and every scheduler entry point it fires.
SIM_ROOTS: Dict[str, Tuple[Optional[str], str]] = {
    "sim-dispatch": ("EventLoop", "run_until"),
    "sim-pick-next": ("Scheduler", "pick_next_task"),
    "sim-tick": ("Scheduler", "tick"),
    "sim-wake": ("Scheduler", "wake_task"),
    "sim-account": ("Scheduler", "account"),
    "sim-deschedule": ("Scheduler", "deschedule"),
    "sim-migrate": ("Scheduler", "migrate_task"),
}

#: A cost polynomial: sorted factor tuple -> coefficient.  The empty
#: tuple is the constant term; factor multisets are capped at degree 4.
Poly = Dict[Tuple[str, ...], int]

_MAX_DEGREE = 4
_MAX_COEFF = 999


def _poly_const(coeff: int = 1) -> Poly:
    return {(): coeff}


def _poly_add(into: Poly, other: Poly) -> None:
    for factors, coeff in other.items():
        into[factors] = min(into.get(factors, 0) + coeff, _MAX_COEFF)


def _poly_scale(poly: Poly, factors: Tuple[str, ...]) -> Poly:
    if not factors:
        return dict(poly)
    out: Poly = {}
    for key, coeff in poly.items():
        merged = tuple(sorted(key + factors))[:_MAX_DEGREE]
        out[merged] = min(out.get(merged, 0) + coeff, _MAX_COEFF)
    return out


def render_poly(poly: Poly) -> str:
    """``O(cpus*tasks + log(tasks) + 1)``-style rendering (big-O: the
    coefficients are dropped, term order is degree-major)."""
    if not poly:
        return "O(1)"
    terms = sorted(poly, key=lambda t: (-len(t), t))
    parts = ["*".join(t) if t else "1" for t in terms]
    return "O(" + " + ".join(parts) + ")"


def scalarize(poly: Poly, sizes: Optional[Dict[str, int]] = None) -> int:
    """The polynomial evaluated at the reference domain sizes."""
    table = sizes if sizes is not None else DOMAIN_SIZES
    total = 0
    for factors, coeff in poly.items():
        value = coeff
        for factor in factors:
            value *= table.get(factor, DOMAIN_SIZES["n"])
        total += value
    return total


def dominated(term: Tuple[str, ...], baseline: Sequence[Sequence[str]]) -> bool:
    """True when some baseline term covers ``term`` (multiset inclusion:
    every factor of ``term`` appears in the baseline term at least as
    often) -- i.e. the term is no worse than the committed bound."""
    need: Dict[str, int] = {}
    for factor in term:
        need[factor] = need.get(factor, 0) + 1
    for base in baseline:
        have: Dict[str, int] = {}
        for factor in base:
            have[factor] = have.get(factor, 0) + 1
        if all(have.get(f, 0) >= c for f, c in need.items()):
            return True
    return False


# -- per-function scan -------------------------------------------------------


@dataclass(frozen=True)
class AllocSite:
    """One allocation expression inside one function."""

    kind: str
    line: int
    col: int
    detail: str
    escape: str
    #: False for the box / bare-tuple-return carve-outs: reported in the
    #: cost report but never counted against a certification.
    certifiable: bool = True


@dataclass
class FunctionScan:
    """Allocation sites, guard structure, and loop skeleton of one
    function -- everything the interprocedural passes consume."""

    fn: FunctionInfo
    sites: List[AllocSite] = field(default_factory=list)
    #: Aggregate count of boxing-prone arithmetic nodes (reported only).
    boxes: int = 0
    #: Line of the first memo-hit return, or None.
    guard_line: Optional[int] = None
    #: Call-site line -> escape class ("per-call"/"amortized"), or
    #: "diagnostic" for sanitizer branches (excluded outright).
    call_class: Dict[int, str] = field(default_factory=dict)
    #: (multiplier factors, call node) for every call, for cost folding.
    calls: List[Tuple[Tuple[str, ...], ast.Call]] = field(
        default_factory=list
    )
    #: Loop terms contributed directly by this function's body.
    direct_cost: Poly = field(default_factory=dict)
    #: Loop terms on memo-guarded (non-steady) paths only.
    guarded_cost: Poly = field(default_factory=dict)


def _is_self_priv(node: ast.AST, extra: Iterable[str] = ()) -> bool:
    names = set(extra)
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (node.attr.startswith("_") or node.attr in names)
    )


def _reads_self_priv(expr: ast.AST) -> bool:
    return any(_is_self_priv(sub) for sub in ast.walk(expr))


def _is_diagnostic_test(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr in _DIAGNOSTIC_FLAGS:
            return True
        if isinstance(sub, ast.Name) and sub.id in _DIAGNOSTIC_FLAGS:
            return True
    return False


def _memo_probe_names(node: ast.AST, params: Set[str]) -> Set[str]:
    """Locals bound from a private-memo probe: ``x = self._m.get(k)``,
    ``x = self._m[k]``, ``x = m[k]`` for an alias/parameter ``m`` of a
    private container (one level of ``alias = self._m`` is chased)."""
    aliases: Set[str] = set()
    names: Set[str] = set()
    assigns: List[Tuple[ast.expr, ast.expr]] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            assigns.append((sub.targets[0], sub.value))
    for target, value in assigns:
        if isinstance(target, ast.Name) and _is_self_priv(value):
            aliases.add(target.id)
    probed = aliases | params
    for target, value in assigns:
        if not isinstance(target, ast.Name):
            continue
        base: Optional[ast.expr] = None
        if isinstance(value, ast.Subscript):
            base = value.value
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("get", "pop", "setdefault")
        ):
            base = value.func.value
        if base is None:
            continue
        if _is_self_priv(base):
            names.add(target.id)
        elif isinstance(base, ast.Name) and base.id in probed:
            names.add(target.id)
    return names


def _memo_none_test(
    expr: ast.AST, memo_names: Set[str]
) -> Optional[str]:
    """``"miss"``/``"hit"`` when the test is a memo-probe None check."""
    for sub in ast.walk(expr):
        if not isinstance(sub, ast.Compare) or len(sub.ops) != 1:
            continue
        op = sub.ops[0]
        sides = [sub.left, sub.comparators[0]]
        has_none = any(
            isinstance(s, ast.Constant) and s.value is None for s in sides
        )
        has_memo = any(
            isinstance(s, ast.Name) and s.id in memo_names for s in sides
        )
        if has_none and has_memo:
            if isinstance(op, ast.Is):
                return "miss"
            if isinstance(op, ast.IsNot):
                return "hit"
    return None


def _is_hit_shaped(expr: ast.AST, memo_names: Set[str]) -> bool:
    """A test that gates a memo/epoch/mode fast path: any private-state
    read, or a memo-probe ``is not None``."""
    if _reads_self_priv(expr):
        return True
    return _memo_none_test(expr, memo_names) == "hit"


class _FunctionWalker:
    """One function's recursive statement walk: classifies every
    allocation site and call edge, and accumulates the loop skeleton."""

    def __init__(
        self,
        scan: FunctionScan,
        memo_names: Set[str],
        domain_of: "Dict[int, str]",
        is_class: Callable[[str], bool],
    ) -> None:
        self.scan = scan
        self.memo_names = memo_names
        #: id(loop node) -> resolved iteration domain ("" = constant).
        self.domain_of = domain_of
        #: Does this bare name resolve to a known class (ctor call)?
        self.is_class = is_class
        self.is_init = scan.fn.is_init

    # -- statement walk ----------------------------------------------------

    def walk_body(
        self,
        stmts: Sequence[ast.stmt],
        mult: Tuple[str, ...],
        amortized: bool,
    ) -> None:
        guard = self.scan.guard_line
        for stmt in stmts:
            if guard is None and self.scan.guard_line is not None:
                # A guarded return appeared earlier in this body: every
                # later sibling is the miss path.
                guard = self.scan.guard_line
            here = amortized or (
                guard is not None and stmt.lineno > guard
            )
            self._walk_stmt(stmt, mult, here)

    def _walk_stmt(
        self, stmt: ast.stmt, mult: Tuple[str, ...], amortized: bool
    ) -> None:
        scan = self.scan
        if isinstance(stmt, ast.If):
            if _is_diagnostic_test(stmt.test):
                # Sanitizer cross-check branch: skip the body outright,
                # keep walking the else arm.
                self._scan_expr(stmt.test, mult, amortized)
                self.walk_body(stmt.orelse, mult, amortized)
                return
            self._scan_expr(stmt.test, mult, amortized)
            probe = _memo_none_test(stmt.test, self.memo_names)
            hit_shaped = _is_hit_shaped(stmt.test, self.memo_names)
            # Private-state tests and memo miss-arms amortize their
            # branch; the *hit* arm of a probe stays steady-state but a
            # return inside it establishes the function's guard line.
            body_amortized = amortized or probe == "miss" or (
                hit_shaped and probe != "hit"
            )
            if hit_shaped:
                self._note_guarded_returns(stmt)
            self.walk_body(stmt.body, mult, body_amortized)
            else_amortized = amortized or probe == "hit"
            self.walk_body(stmt.orelse, mult, else_amortized)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            domain = self.domain_of.get(id(stmt), "n")
            factors = mult if domain == "" else tuple(
                sorted(mult + (domain,))
            )[:_MAX_DEGREE]
            self._scan_expr(stmt.iter, mult, amortized)
            self._add_loop_term(factors, amortized)
            self.walk_body(stmt.body, factors, amortized)
            self.walk_body(stmt.orelse, mult, amortized)
            return
        if isinstance(stmt, ast.While):
            domain = self.domain_of.get(id(stmt), "n")
            factors = mult if domain == "" else tuple(
                sorted(mult + (domain,))
            )[:_MAX_DEGREE]
            self._scan_expr(stmt.test, factors, amortized)
            self._add_loop_term(factors, amortized)
            self.walk_body(stmt.body, factors, amortized)
            self.walk_body(stmt.orelse, mult, amortized)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(
                    stmt.value, mult, amortized, is_return=True
                )
                if self.scan.guard_line is None and self._returns_mirror(
                    stmt.value
                ):
                    self.scan.guard_line = stmt.lineno
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._add_site(
                "closure", stmt, f"nested def {stmt.name}", amortized
            )
            return  # inner defs are separate functions in the table
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return  # error paths are not steady-state behavior
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, mult, amortized)
            for handler in stmt.handlers:
                self.walk_body(handler.body, mult, amortized)
            self.walk_body(stmt.orelse, mult, amortized)
            self.walk_body(stmt.finalbody, mult, amortized)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_expr(item.context_expr, mult, amortized)
            self.walk_body(stmt.body, mult, amortized)
            return
        if isinstance(stmt, ast.AnnAssign):
            # The annotation is a type expression, not runtime code.
            if stmt.value is not None:
                self._scan_expr(stmt.value, mult, amortized)
            return
        if isinstance(stmt, ast.Assign):
            # ``a, b = x, y``: parallel unpack -- the RHS tuple is a
            # compiler/freelist idiom, exempt like bare tuple returns.
            unpack = isinstance(stmt.value, ast.Tuple) and any(
                isinstance(t, (ast.Tuple, ast.List)) for t in stmt.targets
            )
            for target in stmt.targets:
                self._scan_expr(target, mult, amortized)
            self._scan_expr(
                stmt.value, mult, amortized, is_unpack=unpack
            )
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, mult, amortized)

    def _note_guarded_returns(self, branch: ast.If) -> None:
        for sub in ast.walk(branch):
            if isinstance(sub, ast.Return):
                if (
                    self.scan.guard_line is None
                    or sub.lineno < self.scan.guard_line
                ):
                    self.scan.guard_line = sub.lineno
                return

    def _returns_mirror(self, value: ast.expr) -> bool:
        """``return self._x`` / ``return memo[...]``: a bare read of the
        incremental mirror is a hit return even without an if."""
        if _is_self_priv(value):
            return True
        if isinstance(value, ast.Subscript) and isinstance(
            value.value, ast.Name
        ):
            return value.value.id in self.memo_names
        return isinstance(value, ast.Name) and value.id in self.memo_names

    def _add_loop_term(
        self, factors: Tuple[str, ...], amortized: bool
    ) -> None:
        _poly_add(self.scan.direct_cost, {factors: 1})
        if amortized:
            _poly_add(self.scan.guarded_cost, {factors: 1})

    # -- expression scan ---------------------------------------------------

    def _scan_expr(
        self,
        expr: ast.expr,
        mult: Tuple[str, ...],
        amortized: bool,
        is_return: bool = False,
        is_unpack: bool = False,
    ) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self.scan.call_class.setdefault(
                    sub.lineno, "amortized" if amortized else "per-call"
                )
                self.scan.calls.append((mult, sub))
                self._classify_call(sub, amortized)
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp)):
                kind = {
                    ast.ListComp: "comprehension",
                    ast.SetComp: "comprehension",
                    ast.DictComp: "comprehension",
                    ast.GeneratorExp: "genexp",
                }[type(sub)]
                self._add_site(kind, sub, ast.unparse(sub)[:60], amortized)
            elif isinstance(sub, ast.List):
                self._add_site("list", sub, ast.unparse(sub)[:60], amortized)
            elif isinstance(sub, ast.Dict):
                self._add_site("dict", sub, ast.unparse(sub)[:60], amortized)
            elif isinstance(sub, ast.Set):
                self._add_site("set", sub, ast.unparse(sub)[:60], amortized)
            elif isinstance(sub, ast.Tuple) and isinstance(
                sub.ctx, ast.Load
            ):
                if all(isinstance(e, ast.Constant) for e in sub.elts):
                    continue  # constant-folded by the compiler
                if (is_return or is_unpack) and sub is expr:
                    self._add_site(
                        "tuple-return" if is_return else "tuple-unpack",
                        sub, ast.unparse(sub)[:60],
                        amortized, certifiable=False,
                    )
                else:
                    self._add_site(
                        "tuple", sub, ast.unparse(sub)[:60], amortized
                    )
            elif isinstance(sub, ast.JoinedStr):
                self._add_site("str-format", sub, "f-string", amortized)
            elif isinstance(sub, ast.Lambda):
                self._add_site("closure", sub, "lambda", amortized)
            elif isinstance(sub, (ast.BinOp, ast.AugAssign)):
                self.scan.boxes += 1

    def _classify_call(self, call: ast.Call, amortized: bool) -> None:
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            if func.attr == "format":
                self._add_site(
                    "str-format", call, ast.unparse(call)[:60], amortized
                )
            return
        if name is None:
            return
        if name in _CONTAINER_CTORS:
            self._add_site(name, call, ast.unparse(call)[:60], amortized)
        elif self.is_class(name):
            self._add_site(
                "object", call, ast.unparse(call)[:60], amortized
            )

    def _add_site(
        self,
        kind: str,
        node: ast.AST,
        detail: str,
        amortized: bool,
        certifiable: bool = True,
    ) -> None:
        if self.is_init:
            escape = "init-only"
        elif amortized:
            escape = "amortized"
        else:
            escape = "per-call"
        self.scan.sites.append(AllocSite(
            kind=kind,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            detail=detail,
            escape=escape,
            certifiable=certifiable,
        ))


# -- the model ---------------------------------------------------------------


@dataclass
class AllocRecord:
    """One allocation site as reached from a hot root."""

    site: AllocSite
    function: str
    path: str
    #: Site escape class in this root's context (a memo-guarded call
    #: edge amortizes the whole callee subtree).
    effective: str
    #: Call chain root -> ... -> owning function.
    chain: Tuple[str, ...]


@dataclass
class RootCertificate:
    """One hot root's inferred cost and allocation behavior."""

    label: str
    qualname: str
    path: str
    line: int
    worst: Poly
    steady: Poly
    alloc_class: str
    records: List[AllocRecord]
    boxes: int


class CostModel:
    """Interprocedural allocation + cost analysis over one file set."""

    def __init__(self, engine: EffectEngine) -> None:
        self.engine = engine
        self._scans: Dict[str, FunctionScan] = {}
        self._cost_cache: Dict[Tuple[str, bool], Poly] = {}

    # -- per-function ------------------------------------------------------

    def scan(self, qualname: str) -> Optional[FunctionScan]:
        cached = self._scans.get(qualname)
        if cached is not None:
            return cached
        fn = self.engine.table.functions.get(qualname)
        if fn is None:
            return None
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        params = {
            a.arg
            for a in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
            )
            if a.arg not in ("self", "cls")
        }
        memo_names = _memo_probe_names(node, params)
        scan = FunctionScan(fn=fn)
        domains = self._loop_domains(fn, node)
        table = self.engine.table

        def is_class(name: str) -> bool:
            return table.resolve_class(name) is not None

        walker = _FunctionWalker(scan, memo_names, domains, is_class)
        walker.walk_body(node.body, (), False)
        _poly_add(scan.direct_cost, _poly_const())
        self._scans[qualname] = scan
        return scan

    def _loop_domains(
        self, fn: FunctionInfo, node: ast.AST
    ) -> Dict[int, str]:
        out: Dict[int, str] = {}
        env = self.engine.table.env_of(fn)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                out[id(sub)] = self._domain_of_iter(fn, sub.iter, env)
            elif isinstance(sub, ast.While):
                out[id(sub)] = self._domain_of_while(fn, sub, node, env)
        return out

    def _domain_of_iter(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: Dict[str, Optional[TypeRef]],
        depth: int = 0,
    ) -> str:
        if depth > 6:
            return "n"
        if isinstance(expr, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) for e in expr.elts
        ):
            return ""  # constant trip count
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "len":
                    return "n"
                if func.id in _ITER_PASSTHROUGH:
                    if not expr.args:
                        return "n"
                    arg = expr.args[0]
                    if (
                        func.id == "range"
                        and isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Name)
                        and arg.func.id == "len"
                        and arg.args
                    ):
                        arg = arg.args[0]
                    if func.id == "range" and isinstance(
                        arg, ast.Constant
                    ):
                        return ""
                    return self._domain_of_iter(fn, arg, env, depth + 1)
                if func.id == "zip" and expr.args:
                    return self._domain_of_iter(
                        fn, expr.args[0], env, depth + 1
                    )
            resolved = self.engine.resolve(fn, expr)
            if resolved is not None:
                short = _short_qual(resolved)
                if short in _ITER_DOMAIN_FUNCS:
                    return _ITER_DOMAIN_FUNCS[short]
            inferred = self.engine.table.infer_expr(expr, env)
            return _domain_of_type(inferred)
        if isinstance(expr, ast.Attribute):
            base = self.engine.table.infer_expr(expr.value, env)
            if base is not None:
                mapped = _ITER_DOMAIN_FIELDS.get((base.name, expr.attr))
                if mapped is not None:
                    return mapped
            inferred = self.engine.table.infer_expr(expr, env)
            return _domain_of_type(inferred)
        if isinstance(expr, ast.Name):
            return _domain_of_type(env.get(expr.id))
        inferred = self.engine.table.infer_expr(expr, env)
        return _domain_of_type(inferred)

    def _domain_of_while(
        self,
        fn: FunctionInfo,
        loop: ast.While,
        fn_node: ast.AST,
        env: Dict[str, Optional[TypeRef]],
    ) -> str:
        """``while i < bound``: chase ``bound = len(X)`` to X's domain."""
        test = loop.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        ):
            return "n"
        bound = test.comparators[0]
        if isinstance(bound, ast.Name):
            for sub in ast.walk(fn_node):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and sub.targets[0].id == bound.id
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)
                    and sub.value.func.id == "len"
                    and sub.value.args
                ):
                    return self._domain_of_iter(
                        fn, sub.value.args[0], env, 1
                    )
        return "n"

    # -- interprocedural cost ----------------------------------------------

    def cost(
        self,
        qualname: str,
        steady: bool = False,
        _visiting: Optional[Set[str]] = None,
    ) -> Poly:
        """The composed cost polynomial of one function.

        ``steady=True`` drops contributions behind memo guards (the
        steady-state expression: what a hit-path invocation costs).
        """
        key = (qualname, steady)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        short = _short_qual(qualname)
        axiom = _COST_AXIOMS.get(short)
        if axiom is not None:
            poly = (
                _poly_const() if axiom == "1" else {(axiom,): 1, (): 1}
            )
            self._cost_cache[key] = poly
            return poly
        scan = self.scan(qualname)
        if scan is None:
            return _poly_const()
        visiting = _visiting if _visiting is not None else set()
        if qualname in visiting:
            return {("rec",): 1}
        visiting.add(qualname)
        total: Poly = dict(scan.direct_cost)
        if steady:
            for factors, coeff in scan.guarded_cost.items():
                remaining = total.get(factors, 0) - coeff
                if remaining > 0:
                    total[factors] = remaining
                else:
                    total.pop(factors, None)
            total[()] = max(total.get((), 0), 1)
        for mult, call in scan.calls:
            edge_class = scan.call_class.get(call.lineno, "per-call")
            guard = scan.guard_line
            if guard is not None and call.lineno > guard:
                edge_class = "amortized"
            if steady and edge_class == "amortized":
                continue
            callee = self.engine.resolve(scan.fn, call)
            if callee is None:
                func = call.func
                cname = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else ""
                )
                heap_cost = _HEAP_CALL_COSTS.get(cname)
                if heap_cost is not None:
                    _poly_add(total, _poly_scale({(heap_cost,): 1}, mult))
                continue
            callee_fn = self.engine.table.functions.get(callee)
            if callee_fn is not None and (
                callee_fn.module == _SANITIZER_MODULE
            ):
                continue
            sub_cost = self.cost(callee, steady, visiting)
            _poly_add(total, _poly_scale(sub_cost, mult))
        visiting.discard(qualname)
        self._cost_cache[key] = total
        return total

    # -- per-root certification --------------------------------------------

    def certify(
        self,
        label: str,
        qualname: str,
        ignore: Optional[Set[Tuple[str, int]]] = None,
    ) -> Optional[RootCertificate]:
        """Walk one root's closure with guard-aware edges and fold every
        reachable allocation site into a lattice class.

        ``ignore`` is a set of ``(display_path, line)`` pairs whose
        sites are excluded from the class (inline-suppressed churn); the
        records still carry them so the report shows the whole truth.
        """
        fn = self.engine.table.functions.get(qualname)
        if fn is None:
            return None
        # BFS over (function, amortized context); a per-call context
        # dominates an amortized one, so process per-call states first.
        best: Dict[str, bool] = {}
        parent: Dict[str, Tuple[str, ...]] = {qualname: (qualname,)}
        queue: List[Tuple[str, bool]] = [(qualname, False)]
        while queue:
            qual, ctx = queue.pop(0)
            seen = best.get(qual)
            if seen is not None and (seen or not ctx) and seen <= ctx:
                continue
            best[qual] = ctx if seen is None else (seen and ctx)
            scan = self.scan(qual)
            if scan is None:
                continue
            chain = parent.get(qual, (qual,))
            for _mult, call in scan.calls:
                callee = self.engine.resolve(scan.fn, call)
                if callee is None or callee == qual:
                    continue
                callee_fn = self.engine.table.functions.get(callee)
                if callee_fn is None or (
                    callee_fn.module == _SANITIZER_MODULE
                ):
                    continue
                edge = scan.call_class.get(call.lineno, "per-call")
                guard = scan.guard_line
                if guard is not None and call.lineno > guard:
                    edge = "amortized"
                next_ctx = ctx or edge == "amortized"
                if callee not in parent:
                    parent[callee] = chain + (callee,)
                queue.append((callee, next_ctx))
        records: List[AllocRecord] = []
        boxes = 0
        worst_class = "alloc-free"
        for qual in sorted(best):
            ctx = best[qual]
            scan = self.scan(qual)
            if scan is None:
                continue
            boxes += scan.boxes
            for site in scan.sites:
                if site.escape == "init-only":
                    effective = "init-only"
                elif ctx:
                    effective = "amortized"
                else:
                    effective = site.escape
                records.append(AllocRecord(
                    site=site,
                    function=qual,
                    path=scan.fn.display_path,
                    effective=effective,
                    chain=parent.get(qual, (qual,)),
                ))
                if not site.certifiable or effective == "init-only":
                    continue
                if ignore and (scan.fn.display_path, site.line) in ignore:
                    continue
                if effective == "per-call":
                    worst_class = "allocating"
                elif worst_class == "alloc-free":
                    worst_class = "amortized"
        records.sort(key=lambda r: (r.path, r.site.line, r.site.col))
        return RootCertificate(
            label=label,
            qualname=qualname,
            path=fn.display_path,
            line=getattr(fn.node, "lineno", 0),
            worst=self.cost(qualname, steady=False),
            steady=self.cost(qualname, steady=True),
            alloc_class=worst_class,
            records=records,
            boxes=boxes,
        )

    def hot_roots(self) -> Dict[str, str]:
        """label -> qualname for every hot root present in the file set."""
        out: Dict[str, str] = {}
        for label in sorted(HOT_ROOTS):
            cls, name = HOT_ROOTS[label]
            fn = root_function(self.engine, cls, name)
            if fn is not None:
                out[label] = fn.qualname
        return out

    # -- scalar residue ----------------------------------------------------

    def residue(
        self, profile_weights: Optional[Dict[str, float]] = None
    ) -> List[Dict[str, object]]:
        """The ranked scalar residue: functions reachable from the sim
        drivers but not from the ``vec-*`` hot roots, by static cost x
        bench-profile weight."""
        weights = profile_weights or {}
        sim_quals: List[str] = []
        for label in sorted(SIM_ROOTS):
            cls, name = SIM_ROOTS[label]
            fn = root_function(self.engine, cls, name)
            if fn is not None:
                sim_quals.append(fn.qualname)
        vec_quals = [
            qual for label, qual in self.hot_roots().items()
            if label.startswith("vec-")
        ]
        sim_closure = self.engine.closure(sim_quals)
        vec_closure = self.engine.closure(vec_quals)
        rows: List[Dict[str, object]] = []
        for qual in sorted(sim_closure - vec_closure):
            fn = self.engine.table.functions.get(qual)
            if fn is None or fn.module == _SANITIZER_MODULE or fn.is_init:
                continue
            scan = self.scan(qual)
            if scan is None:
                continue
            poly = self.cost(qual)
            static_cost = scalarize(poly)
            weight = float(weights.get(qual, 1.0))
            per_call = sum(
                1 for s in scan.sites
                if s.certifiable and s.escape == "per-call"
            )
            rows.append({
                "function": qual,
                "path": fn.display_path,
                "line": getattr(fn.node, "lineno", 0),
                "cost": render_poly(poly),
                "static_cost": static_cost,
                "profile_weight": weight,
                "score": round(static_cost * weight, 3),
                "per_call_sites": per_call,
            })
        rows.sort(
            key=lambda r: (-float(str(r["score"])), str(r["function"]))
        )
        for rank, row in enumerate(rows, 1):
            row["rank"] = rank
        return rows


def _short_qual(qualname: str) -> str:
    """``module.Class.method`` -> ``Class.method`` (``module.fn`` ->
    ``fn``): the key space of the axiom/domain tables."""
    parts = qualname.split(".")
    for index, part in enumerate(parts):
        if part[:1].isupper() or part.startswith("_") and part[1:2].isupper():
            return ".".join(parts[index:])
    return parts[-1]


def _domain_of_type(ref: Optional[TypeRef]) -> str:
    if ref is None:
        return "n"
    if ref.elem is not None and ref.elem.name in _ELEM_DOMAINS:
        return _ELEM_DOMAINS[ref.elem.name]
    if ref.name in _ELEM_DOMAINS:
        return _ELEM_DOMAINS[ref.name]
    return "n"


def _poly_terms(poly: Poly) -> List[List[str]]:
    return [list(t) for t in sorted(poly, key=lambda t: (-len(t), t))]


def cost_report(
    engine: EffectEngine,
    baseline: Optional[Dict[str, object]] = None,
    declared: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """The machine-readable ``repro lint --cost-report`` document.

    Pure function of the analyzed trees (plus the committed baseline's
    profile weights): identical under every shard count.
    """
    model = CostModel(engine)
    if declared is None:
        from repro.sched.allocdecl import DECLARED_ALLOC

        declared = dict(DECLARED_ALLOC)
    weights: Dict[str, float] = {}
    if baseline is not None:
        raw = baseline.get("profile_weights")
        if isinstance(raw, dict):
            weights = {str(k): float(v) for k, v in raw.items()}
    roots: Dict[str, object] = {}
    per_call_total = 0
    for label, qual in sorted(model.hot_roots().items()):
        cert = model.certify(label, qual)
        if cert is None:
            continue
        sites = []
        for record in cert.records:
            if record.site.escape == "init-only":
                continue
            sites.append({
                "kind": record.site.kind,
                "path": record.path,
                "line": record.site.line,
                "function": record.function,
                "escape": record.effective,
                "certifiable": record.site.certifiable,
                "detail": record.site.detail,
                "chain": list(record.chain),
            })
            if record.site.certifiable and record.effective == "per-call":
                per_call_total += 1
        roots[label] = {
            "function": cert.qualname,
            "path": cert.path,
            "line": cert.line,
            "declared": declared.get(label),
            "inferred": cert.alloc_class,
            "cost": {
                "worst": render_poly(cert.worst),
                "steady": render_poly(cert.steady),
                "worst_terms": _poly_terms(cert.worst),
                "steady_terms": _poly_terms(cert.steady),
            },
            "boxes": cert.boxes,
            "allocation_sites": sites,
        }
    residue = model.residue(weights)
    return {
        "version": COST_REPORT_VERSION,
        "tool": "repro-lint/cost-model",
        "domain_sizes": dict(sorted(DOMAIN_SIZES.items())),
        "roots": roots,
        "scalar_residue": residue,
        "summary": {
            "roots": len(roots),
            "per_call_sites": per_call_total,
            "residue_functions": len(residue),
        },
    }
