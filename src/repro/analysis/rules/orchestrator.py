"""Fork-safety rule: no shared mutable module state under the orchestrator.

``repro.perf.orchestrator`` executes trials in a ``multiprocessing`` pool.
Under the ``fork`` start method every worker inherits a copy-on-write
snapshot of the parent's module globals; under ``spawn`` each worker
re-imports the module tree from scratch.  Either way, module-level mutable
state silently breaks the orchestrator's determinism contract:

* a module-level ``random.Random`` instance is *identical* in every forked
  worker, so "independent" trials draw correlated samples -- and under
  ``spawn`` its state diverges from the serial run entirely.  Trials must
  rebuild their generator from the spec (seed or fingerprint) inside the
  worker.
* a module-level obs registry/session (``MetricsRegistry``,
  ``ObsSession``, ...) created at import time is bumped inside the worker
  process and dies with it; the parent never sees the counts.
  Registries must be constructed inside the trial function so results ride
  back through the :class:`~repro.perf.orchestrator.TrialResult`.
* a module-level dict/list/set that trial code *mutates* (a memo table, an
  accumulator) forks into per-worker copies: ``-j1`` and ``-j4`` runs see
  different cache histories and the merged output stops being
  byte-identical.

The rule is scoped to the packages whose functions the orchestrator
actually imports into workers (``repro.experiments``, ``repro.perf``).
Read-only module constants -- spec tables, paper numbers, ``__all__`` --
are fine and not reported: a container only counts when some function in
the module mutates it (method call, subscript store/delete, augmented
assignment, or an explicit ``global`` rebinding).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule

#: Packages whose module globals end up inside pool workers.
WORKER_SCOPE = ("repro.experiments", "repro.perf", "repro.slo")

#: RNG constructors that must not run at import time in worker modules.
_RNG_CLASSES = {"Random", "SystemRandom"}

#: Obs/orchestrator classes holding per-process mutable state; instances
#: created at import time are invisibly per-worker under fork/spawn.
_REGISTRY_CLASSES = {
    "MetricsRegistry",
    "MetricsRecorder",
    "ObsSession",
    "TraceBuffer",
    "ResultCache",
}

#: Constructors of mutable containers (besides display literals).
_CONTAINER_CALLS = {
    "dict",
    "list",
    "set",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _tail(node: ast.AST) -> Optional[str]:
    """Last identifier of a ``Name``/``Attribute`` chain (``a.b.C`` -> C)."""
    while isinstance(node, ast.Attribute):
        if not isinstance(node.value, (ast.Attribute, ast.Name)):
            return None
        if isinstance(node.value, ast.Name):
            return node.attr
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _own_statements(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _binding_names(target: ast.AST) -> Iterator[str]:
    """Plain names *bound* by an assignment target.

    ``x = ...`` and ``x, y = ...`` bind names; ``x[k] = ...`` and
    ``x.attr = ...`` mutate an existing object and bind nothing.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _binding_names(element)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _local_names(func: ast.AST) -> Set[str]:
    """Names bound locally in ``func`` (and so shadowing module globals)."""
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            local.add(arg.arg)
    for node in _own_statements(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                local.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            local.update(_binding_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    local.update(_binding_names(item.optional_vars))
    return local - declared_global


def _mutations(func: ast.AST) -> Iterator[str]:
    """Module-global names ``func`` mutates in place (shadows excluded)."""
    local = _local_names(func)
    for node in _own_statements(func):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield name
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.attr in _MUTATOR_METHODS
                and fn.value.id not in local
            ):
                yield fn.value.id
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id not in local
                ):
                    yield target.value.id
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id not in local
                ):
                    yield target.value.id


class OrchestratorForkSafetyRule(Rule):
    """Flag module-level mutable state reachable from pool workers."""

    rule_id = "orchestrator-fork-safety"
    description = (
        "module-level RNGs, registries, and mutated containers fork into "
        "divergent per-worker copies; build them inside the trial function"
    )
    scope: Optional[Tuple[str, ...]] = WORKER_SCOPE

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        mutated: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mutated.update(_mutations(node))

        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            label = ", ".join(names)

            if isinstance(value, ast.Call):
                tail = _tail(value.func)
                if tail in _RNG_CLASSES:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"module-level RNG '{label}' is shared by every "
                        "forked pool worker; build a Random seeded from "
                        "the TrialSpec inside the trial function",
                    )
                    continue
                if tail in _REGISTRY_CLASSES:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"module-level {tail} instance '{label}' lives "
                        "per worker process; construct it inside the "
                        "trial function and return data via TrialResult",
                    )
                    continue

            is_container = isinstance(
                value,
                (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp),
            ) or (
                isinstance(value, ast.Call)
                and _tail(value.func) in _CONTAINER_CALLS
            )
            if is_container and any(name in mutated for name in names):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"module-level container '{label}' is mutated from "
                    "function code; per-worker copies diverge under the "
                    "pool -- keep trial state inside the trial function",
                )
