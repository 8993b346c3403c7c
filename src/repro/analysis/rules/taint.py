"""Whole-program nondeterminism taint: sources must never reach digests.

The repository's reproducibility story rests on a handful of *witness*
values: schedule digests (the serial-vs-parallel equivalence proof),
trace event streams (the replay differ), metric counters (the SLO
verdicts), and ``TrialSpec`` fingerprints (the result cache key).  The
legacy determinism rules (:mod:`repro.analysis.rules.determinism`) flag
nondeterminism *sources* syntactically, one file at a time; this rule
flags the flows that actually corrupt a witness -- a wall-clock read in
``experiments`` is fine until the value it produced reaches a digest
three calls later in another module.

``determinism-taint`` (severity: error)
    Interprocedural taint from nondeterminism sources to
    digest/trace-affecting sinks, over the
    :class:`~repro.analysis.effects.EffectEngine` symbol table and call
    resolution.

    Sources (kinds in brackets):
      * unseeded ``random.*`` draws [rng];
      * ``time.time``/``perf_counter``/``datetime.now`` & co [wallclock];
      * ``os.environ`` / ``os.getenv`` reads [env];
      * ``id()`` / ``hash()`` values [idhash];
      * pool completion order -- ``imap_unordered``, ``as_completed``
        [pool-order];
      * iterating a set-typed value [set-order].

    Sinks (type-aware: receivers are resolved through the symbol table):
      * ``Tracepoint.emit(...)`` arguments;
      * ``Counter.inc`` / ``Gauge.set`` / ``Histogram.observe``;
      * any project function or method whose bare name contains
        ``digest`` (``schedule_digest``, ``hexdigest``, ...) -- via its
        arguments or its receiver chain;
      * the ``TrialSpec`` constructor (its fields feed the cache
        fingerprint).

    Sanitizers (how a tainted value becomes clean):
      * an order-free consumer (``sorted``, ``sum``, ``min``, ``max``,
        ``any``, ``all``, ``len``, ``set``, ``frozenset``) erases the
        order kinds [set-order, pool-order] -- value kinds survive, a
        sorted list of wall-clock stamps is still wall-clock data;
      * a seeded generator is never a source: only module-level
        ``random.*`` draws taint, ``random.Random(seed)`` instances are
        the approved idiom and stay clean;
      * :data:`~repro.analysis.effects.SPEC_ORDER_MERGERS` (``run_pool``)
        strip [pool-order] from their return value -- the parent merges
        worker results back into spec order by index, and the CI
        j1-vs-jN byte-equality gate is the standing proof;
      * the ``TrialSpec`` constructor itself *records* [env] taint
        rather than hiding it: an env-derived field (``REPRO_SCALE`` ->
        ``scale``) is hashed into the fingerprint, so the cache stays
        correct and reruns with the recorded spec reproduce -- env taint
        is therefore reported at the opaque sinks (emit/metrics/digest)
        but not at spec capture.

Taint propagates through locals (flow-insensitively, like the symbol
table's own environments), through resolvable project calls (return
values and parameters, to a fixpoint), and through arithmetic/formatting
expressions.  It deliberately does NOT flow through object fields or
container lookups by key: a value stored in an attribute and re-read
elsewhere is outside this rule's reach.  The dynamic backstop on that
boundary is the schedule-digest gates, which compare two runs of the
same seed directly (serial vs ``-jN``, traced vs untraced, committed
digests vs fresh).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.effects import (
    EffectEngine,
    ORDER_FREE_CONSUMERS,
    ORDER_KEEPING_CALLS,
    ORDER_KINDS,
    RNG_ALLOWED,
    SOURCE_KINDS,
    SPEC_ORDER_MERGERS,
    WALL_CALLS,
    WALL_IMPORTS,
    dotted_name,
)
from repro.analysis.symbols import FunctionInfo, TypeRef

#: A taint element: a concrete source kind (str) or a symbolic parameter
#: marker ``("param", name)`` standing for "whatever the caller passes".
TaintItem = object
Taint = FrozenSet[TaintItem]

_EMPTY: Taint = frozenset()

#: Metric mutators and the receiver class each belongs to.
METRIC_SINKS = {"inc": "Counter", "set": "Gauge", "observe": "Histogram"}

#: Receiver class of the tracepoint sink.
TRACEPOINT_CLASS = "Tracepoint"

#: Constructor sink whose fields feed cache fingerprints.
SPEC_CLASS = "TrialSpec"

#: Kinds each sink cares about.  ``TrialSpec`` capture *records* env
#: taint into the fingerprint (see module docstring) so env is exempt
#: there and only there.
_ALL_KINDS: FrozenSet[str] = frozenset(SOURCE_KINDS)
_SPEC_KINDS: FrozenSet[str] = _ALL_KINDS - {"env"}


def _concrete(taint: Taint) -> FrozenSet[str]:
    return frozenset(t for t in taint if isinstance(t, str))


def _symbolic(taint: Taint) -> FrozenSet[Tuple[str, str]]:
    return frozenset(
        t for t in taint  # type: ignore[misc]
        if isinstance(t, tuple) and t and t[0] == "param"
    )


def _strip_order(taint: Taint) -> Taint:
    return frozenset(t for t in taint if t not in ORDER_KINDS)


def _param_names(fn: FunctionInfo) -> List[str]:
    """Positional parameter names, ``self``/``cls`` excluded for methods."""
    node = fn.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    names = [
        a.arg
        for a in list(node.args.posonlyargs) + list(node.args.args)
    ]
    if fn.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


class TaintAnalysis:
    """Return-taint and param-sink fixpoints over one effect engine."""

    #: Bound on global fixpoint sweeps (monotone lattices converge long
    #: before this; the cap guards pathological inputs).
    MAX_SWEEPS = 12

    def __init__(self, engine: EffectEngine):
        self.engine = engine
        self.table = engine.table
        #: qualname -> taint carried by the function's return value.
        self.returns: Dict[str, Taint] = {}
        #: qualname -> {param name -> sink-relevant kinds}.
        self.param_sinks: Dict[str, Dict[str, FrozenSet[str]]] = {}
        self._findings: List[Tuple[FunctionInfo, int, FrozenSet[str], str]] = []
        self._sorted_quals = sorted(self.table.functions)
        self._solve_returns()
        self._solve_sinks()

    # -- results -----------------------------------------------------------

    def flows(self) -> List[Tuple[FunctionInfo, int, FrozenSet[str], str]]:
        """(function, line, concrete kinds, sink label) per tainted flow."""
        return list(self._findings)

    # -- fixpoints ---------------------------------------------------------

    def _solve_returns(self) -> None:
        for _sweep in range(self.MAX_SWEEPS):
            changed = False
            for qual in self._sorted_quals:
                fn = self.table.functions[qual]
                computed = self._return_taint(fn)
                if computed != self.returns.get(qual, _EMPTY):
                    self.returns[qual] = computed
                    changed = True
            if not changed:
                break

    def _solve_sinks(self) -> None:
        for _sweep in range(self.MAX_SWEEPS):
            changed = False
            for qual in self._sorted_quals:
                fn = self.table.functions[qual]
                sinking = self._collect_sinks(fn, record=False)
                if sinking != self.param_sinks.get(qual, {}):
                    self.param_sinks[qual] = sinking
                    changed = True
            if not changed:
                break
        # Final reporting pass with the stable summaries.
        self._findings = []
        for qual in self._sorted_quals:
            self._collect_sinks(self.table.functions[qual], record=True)

    # -- per-function local taint ------------------------------------------

    def _locals_of(self, fn: FunctionInfo) -> Dict[str, Taint]:
        node = fn.node
        taints: Dict[str, Taint] = {}
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return taints
        params = set(_param_names(fn))
        for _round in range(3):  # flow-insensitive: 3 rounds saturate chains
            changed = False

            def absorb(name: str, taint: Taint) -> None:
                nonlocal changed
                merged = taints.get(name, _EMPTY) | taint
                if merged != taints.get(name, _EMPTY):
                    taints[name] = merged
                    changed = True

            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    value = self._expr(sub.value, fn, taints, params)
                    for tgt in sub.targets:
                        self._absorb_target(tgt, value, absorb)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    if sub.value is None:
                        continue
                    value = self._expr(sub.value, fn, taints, params)
                    self._absorb_target(sub.target, value, absorb)
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    value = self._expr(sub.iter, fn, taints, params)
                    if self.engine.is_set_typed(fn, sub.iter):
                        value = value | {"set-order"}
                    self._absorb_target(sub.target, value, absorb)
                elif isinstance(sub, ast.withitem):
                    if sub.optional_vars is not None:
                        value = self._expr(
                            sub.context_expr, fn, taints, params
                        )
                        self._absorb_target(sub.optional_vars, value, absorb)
            if not changed:
                break
        return taints

    @staticmethod
    def _absorb_target(target: ast.AST, value: Taint, absorb) -> None:
        if isinstance(target, ast.Name):
            absorb(target.id, value)
        elif isinstance(target, ast.Starred):
            TaintAnalysis._absorb_target(target.value, value, absorb)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                TaintAnalysis._absorb_target(elt, value, absorb)
        elif isinstance(target, ast.Subscript):
            # ``results[i] = record`` taints the container binding.
            TaintAnalysis._absorb_target(target.value, value, absorb)
        # Attribute targets: field stores are outside this rule's flow
        # model (see the module docstring).

    def _return_taint(self, fn: FunctionInfo) -> Taint:
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return _EMPTY
        taints = self._locals_of(fn)
        params = set(_param_names(fn))
        out: Set[TaintItem] = set()
        for sub in ast.walk(node):
            value: Optional[ast.AST] = None
            if isinstance(sub, ast.Return):
                value = sub.value
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                value = sub.value
            if value is not None:
                out |= self._expr(value, fn, taints, params)
        return frozenset(out)

    # -- expression taint --------------------------------------------------

    def _expr(
        self,
        node: Optional[ast.AST],
        fn: FunctionInfo,
        taints: Dict[str, Taint],
        params: Set[str],
    ) -> Taint:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            out = taints.get(node.id, _EMPTY)
            if node.id in params:
                out = out | {("param", node.id)}
            return out
        if isinstance(node, ast.Call):
            return self._call_taint(node, fn, taints, params)
        if isinstance(node, ast.Attribute):
            # Receiver taint rides along (``record.worker`` of a tainted
            # record); fields of clean objects stay clean (no field map).
            return self._expr(node.value, fn, taints, params)
        if isinstance(node, ast.Subscript):
            if dotted_name(node.value) == "os.environ":
                return frozenset({"env"})
            # The key selects; it does not flow into the value.
            return self._expr(node.value, fn, taints, params)
        if isinstance(node, (ast.SetComp,)):
            return _strip_order(self._comp_taint(node, fn, taints, params))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comp_taint(node, fn, taints, params)
        if isinstance(node, ast.Set):
            out: Set[TaintItem] = set()
            for elt in node.elts:
                out |= self._expr(elt, fn, taints, params)
            return _strip_order(frozenset(out))
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, (ast.Constant,)):
            return _EMPTY
        # Generic containers/operators: the union of child expressions
        # (BinOp, BoolOp, Compare, IfExp, Tuple, List, Dict, JoinedStr,
        # FormattedValue, Starred, Await, keyword values, slices...).
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                target = child.value if isinstance(child, ast.keyword) else child
                out |= self._expr(target, fn, taints, params)
        return frozenset(out)

    def _comp_taint(
        self,
        node: ast.AST,
        fn: FunctionInfo,
        taints: Dict[str, Taint],
        params: Set[str],
    ) -> Taint:
        """Comprehension taint: iterated sources plus the element body,
        with the generator targets bound to their iterables' taint."""
        assert isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        )
        overlay = dict(taints)
        out: Set[TaintItem] = set()
        for gen in node.generators:
            iter_taint = self._expr(gen.iter, fn, overlay, params)
            if self.engine.is_set_typed(fn, gen.iter):
                iter_taint = iter_taint | {"set-order"}
            out |= iter_taint

            def bind(target: ast.AST) -> None:
                if isinstance(target, ast.Name):
                    overlay[target.id] = (
                        overlay.get(target.id, _EMPTY) | iter_taint
                    )
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        bind(elt)

            bind(gen.target)
        if isinstance(node, ast.DictComp):
            out |= self._expr(node.key, fn, overlay, params)
            out |= self._expr(node.value, fn, overlay, params)
        else:
            out |= self._expr(node.elt, fn, overlay, params)
        return frozenset(out)

    def _call_taint(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        taints: Dict[str, Taint],
        params: Set[str],
    ) -> Taint:
        func = call.func
        env = self.table.env_of(fn)
        aliases = self.engine.aliases.get(fn.module, {})

        def args_taint() -> Taint:
            out: Set[TaintItem] = set()
            for arg in call.args:
                out |= self._expr(arg, fn, taints, params)
            for kw in call.keywords:
                out |= self._expr(kw.value, fn, taints, params)
            return frozenset(out)

        # Order-free consumer: erases order kinds from whatever it eats.
        if (
            isinstance(func, ast.Name)
            and func.id in ORDER_FREE_CONSUMERS
            and func.id not in env
        ):
            return _strip_order(args_taint())

        out: Set[TaintItem] = set()
        # -- sources ---------------------------------------------------
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and env.get("random") is None
            and func.attr not in RNG_ALLOWED
        ):
            out.add("rng")
        dotted = dotted_name(func)
        if dotted is not None:
            if dotted in WALL_CALLS:
                out.add("wallclock")
            elif dotted in ("os.getenv",) or dotted.startswith("os.environ."):
                out.add("env")
        if isinstance(func, ast.Name):
            alias_target = aliases.get(func.id)
            if alias_target is not None:
                if (
                    alias_target.startswith("random.")
                    and alias_target.split(".", 1)[1] not in RNG_ALLOWED
                ):
                    out.add("rng")
                elif alias_target in WALL_CALLS or (
                    alias_target.startswith("time.")
                    and alias_target.split(".", 1)[1] in WALL_IMPORTS
                ):
                    out.add("wallclock")
                elif alias_target == "os.getenv":
                    out.add("env")
            if func.id in ("id", "hash") and func.id not in env:
                out.add("idhash")
            if func.id == "as_completed":
                out.add("pool-order")
            if (
                func.id in ORDER_KEEPING_CALLS
                and call.args
                and self.engine.is_set_typed(fn, call.args[0])
            ):
                out.add("set-order")
        if isinstance(func, ast.Attribute) and func.attr in (
            "imap_unordered", "as_completed",
        ):
            out.add("pool-order")

        # -- project calls: substitute callee return taint -------------
        callee = self.engine.resolve(fn, call)
        if callee is not None:
            callee_fn = self.table.functions.get(callee)
            rt = self.returns.get(callee, _EMPTY)
            out |= _concrete(rt)
            if callee_fn is not None:
                for _tag, pname in sorted(_symbolic(rt)):
                    arg = self._arg_for(call, callee_fn, pname)
                    if arg is not None:
                        out |= self._expr(arg, fn, taints, params)
            if callee.rsplit(".", 1)[-1] in SPEC_ORDER_MERGERS or (
                callee_fn is not None
                and callee_fn.name in SPEC_ORDER_MERGERS
            ):
                out.discard("pool-order")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop", "setdefault")
            and call.args
        ):
            # Keyed lookup: the key selects an entry, it does not flow
            # into the value (the identity-keyed-memo idiom --
            # ``memo.get(id(group))`` returns the memoized value, not
            # anything id-derived).  Defaults and receiver still flow.
            out |= self._expr(func.value, fn, taints, params)
            for arg in call.args[1:]:
                out |= self._expr(arg, fn, taints, params)
            for kw in call.keywords:
                out |= self._expr(kw.value, fn, taints, params)
        else:
            # Unknown callable: value taint flows through (str(),
            # sha256(), formatting helpers...); receiver taint too.
            out |= args_taint()
            if isinstance(func, ast.Attribute):
                out |= self._expr(func.value, fn, taints, params)
        return frozenset(out)

    @staticmethod
    def _arg_for(
        call: ast.Call, callee: FunctionInfo, pname: str
    ) -> Optional[ast.AST]:
        """The argument expression bound to ``pname`` at this call."""
        for kw in call.keywords:
            if kw.arg == pname:
                return kw.value
        names = _param_names(callee)
        if pname in names:
            index = names.index(pname)
            if index < len(call.args):
                arg = call.args[index]
                if not isinstance(arg, ast.Starred):
                    return arg
        return None

    # -- sinks -------------------------------------------------------------

    def _receiver_class(
        self, fn: FunctionInfo, expr: ast.AST
    ) -> Optional[str]:
        inferred: Optional[TypeRef] = self.table.infer_expr(
            expr, self.table.env_of(fn)
        )
        return inferred.name if inferred is not None else None

    def _sink_of(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[Tuple[str, FrozenSet[str], bool]]:
        """(label, relevant kinds, include-receiver) when ``call`` is a
        sink, else None."""
        func = call.func
        if isinstance(func, ast.Attribute):
            recv_cls = self._receiver_class(fn, func.value)
            if func.attr == "emit" and recv_cls == TRACEPOINT_CLASS:
                return "tracepoint emit", _ALL_KINDS, False
            expected = METRIC_SINKS.get(func.attr)
            if expected is not None and recv_cls == expected:
                return f"metrics {recv_cls}.{func.attr}", _ALL_KINDS, False
            if "digest" in func.attr:
                return f"digest ({func.attr})", _ALL_KINDS, True
        callee = self.engine.resolve(fn, call)
        if callee is not None:
            bare = callee.rsplit(".", 1)[-1]
            callee_fn = self.table.functions.get(callee)
            if bare == "__init__" and callee_fn is not None:
                if callee_fn.cls == SPEC_CLASS:
                    return "TrialSpec fingerprint capture", _SPEC_KINDS, False
            elif "digest" in bare:
                return f"digest ({bare})", _ALL_KINDS, True
        elif isinstance(func, ast.Name) and "digest" in func.id:
            return f"digest ({func.id})", _ALL_KINDS, True
        return None

    def _collect_sinks(
        self, fn: FunctionInfo, record: bool
    ) -> Dict[str, FrozenSet[str]]:
        """One pass over ``fn``'s calls: parameter-sink summary, plus
        findings (when ``record``) for concrete tainted flows."""
        node = fn.node
        sinking: Dict[str, FrozenSet[str]] = {}
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return sinking
        taints = self._locals_of(fn)
        params = set(_param_names(fn))

        def register(taint: Taint, kinds: FrozenSet[str], label: str,
                     line: int) -> None:
            hit = _concrete(taint) & kinds
            if hit and record:
                self._findings.append((fn, line, frozenset(hit), label))
            for _tag, pname in _symbolic(taint):
                sinking[pname] = sinking.get(pname, frozenset()) | kinds

        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            sink = self._sink_of(fn, sub)
            if sink is not None:
                label, kinds, with_receiver = sink
                taint: Set[TaintItem] = set()
                for arg in sub.args:
                    taint |= self._expr(arg, fn, taints, params)
                for kw in sub.keywords:
                    taint |= self._expr(kw.value, fn, taints, params)
                if with_receiver and isinstance(sub.func, ast.Attribute):
                    taint |= self._expr(
                        sub.func.value, fn, taints, params
                    )
                register(frozenset(taint), kinds, label, sub.lineno)
                continue
            # Calls into functions whose parameters reach a sink.
            callee = self.engine.resolve(fn, sub)
            if callee is None:
                continue
            callee_fn = self.table.functions.get(callee)
            callee_sinks = self.param_sinks.get(callee, {})
            if callee_fn is None or not callee_sinks:
                continue
            for pname, kinds in sorted(callee_sinks.items()):
                arg = self._arg_for(sub, callee_fn, pname)
                if arg is None:
                    continue
                taint_arg = self._expr(arg, fn, taints, params)
                register(
                    taint_arg, kinds,
                    f"sink-reaching parameter '{pname}' of "
                    f"{callee_fn.qualname}",
                    sub.lineno,
                )
        return sinking


class TaintRule(Rule):
    """Whole-program nondeterminism-source -> witness-sink taint."""

    rule_id = "determinism-taint"
    description = (
        "nondeterminism sources (unseeded random, wall clock, env, "
        "id()/hash(), pool completion order, set iteration order) must "
        "not flow into schedule digests, tracepoint emits, metrics, or "
        "TrialSpec fingerprints"
    )
    scope = None  # witnesses live in obs/perf/slo; sources anywhere
    cross_file = True

    def __init__(self) -> None:
        self._files: List[Tuple[str, str, ast.Module]] = []
        self._lines: Dict[str, List[str]] = {}
        self._display: Dict[str, str] = {}

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        self._files.append((ctx.module, ctx.display_path, ctx.tree))
        self._lines[ctx.display_path] = ctx.lines
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        if not self._files:
            return
        engine = EffectEngine(self._files)
        analysis = TaintAnalysis(engine)
        emitted: Set[Tuple[str, int, FrozenSet[str], str]] = set()
        for fn, line, kinds, label in analysis.flows():
            key = (fn.display_path, line, kinds, label)
            if key in emitted:
                continue
            emitted.add(key)
            lines = self._lines.get(fn.display_path, [])
            snippet = (
                lines[line - 1].strip() if 1 <= line <= len(lines) else ""
            )
            kind_list = ", ".join(sorted(kinds))
            yield Finding(
                rule_id=self.rule_id,
                path=fn.display_path,
                line=line,
                col=0,
                message=(
                    f"value tainted by nondeterminism source(s) "
                    f"[{kind_list}] reaches {label}; two identical runs "
                    "can disagree on this witness -- sanitize the flow "
                    "(sorted() for order taint, a seeded random.Random, "
                    "the spec-order pool merge) or suppress with "
                    "'# repro: noqa[determinism-taint]' and a comment "
                    "explaining why the value is reproducible"
                ),
                snippet=snippet,
                severity="error",
            )
