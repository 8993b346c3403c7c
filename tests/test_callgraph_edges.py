"""Receiver-resolution edge cases of the call graph.

The coherence rule's caller-side bump coverage is only as sound as the
call graph underneath it, so the shapes that historically lose edges get
pinned here: calls inside lambdas (no FunctionInfo of their own -- they
must attribute to the enclosing def), ``super()`` dispatch (nearest
bare-name base, not the leaf override), property chains (each hop chased
through return annotations), and -- on the real tree -- the interned
``SchedGroup`` receivers the balance-pass memos key by ``id()``.
"""

import ast
from pathlib import Path

from repro.analysis.callgraph import CallGraph
from repro.analysis.core import iter_python_files, module_for_path
from repro.analysis.symbols import SymbolTable

REPO = Path(__file__).resolve().parents[1]

TOY = '''
class Base:
    def setup(self):
        self.ready = True

    def ping(self):
        return "base"


class Child(Base):
    def setup(self):
        super().setup()
        self.extra = 1

    def ping(self):
        return "child"


class Inner:
    def __init__(self):
        self.value = 0

    def read(self):
        return self.value

    @property
    def half(self) -> int:
        return self.value // 2


class Outer:
    def __init__(self):
        self._inner = Inner()

    @property
    def inner(self) -> "Inner":
        return self._inner

    @property
    def mirrored(self) -> int:
        return self.inner.half


def apply(fn, items):
    return [fn(i) for i in items]


def tally(outer: "Outer"):
    probe = lambda item: outer.inner.read()
    return apply(probe, [1, 2])
'''

MOD = "repro.sched.toy"


def toy_graph():
    files = [(MOD, "<toy>", ast.parse(TOY))]
    table = SymbolTable.build(files)
    return table, CallGraph.build(table, files)


def q(name):
    return f"{MOD}.{name}"


def callee_names(graph, qualname):
    return {s.callee for s in graph.callees(qualname)}


def test_super_resolves_to_nearest_base():
    _, graph = toy_graph()
    callees = callee_names(graph, q("Child.setup"))
    # super().setup() dispatches to Base.setup, NOT back to the override
    # (a self-edge here would turn every cooperative chain into a cycle).
    assert q("Base.setup") in callees
    assert q("Child.setup") not in callees


def test_super_does_not_leak_sibling_overrides():
    _, graph = toy_graph()
    # Child.setup never touches ping; the super() machinery must not
    # invent edges to other methods of the base.
    assert q("Base.ping") not in callee_names(graph, q("Child.setup"))


def test_chained_property_hops():
    _, graph = toy_graph()
    callees = callee_names(graph, q("Outer.mirrored"))
    # self.inner resolves as a property edge; the *chained* hop .half is
    # typed by inner's return annotation and resolves to Inner.half.
    assert q("Outer.inner") in callees
    assert q("Inner.half") in callees
    kinds = {
        (s.callee, s.kind) for s in graph.callees(q("Outer.mirrored"))
    }
    assert (q("Inner.half"), "property") in kinds


def test_lambda_body_attributes_to_enclosing_function():
    _, graph = toy_graph()
    callees = callee_names(graph, q("tally"))
    # The call inside the lambda has no FunctionInfo of its own; its
    # edges (the inner property hop and the typed method call) belong to
    # the enclosing def so effect closures do not lose them.
    assert q("Outer.inner") in callees
    assert q("Inner.read") in callees
    assert q("apply") in callees


def real_tree():
    root = REPO / "src" / "repro"
    files = []
    for path in iter_python_files([root]):
        files.append((
            module_for_path(path), str(path),
            ast.parse(path.read_text(encoding="utf-8")),
        ))
    table = SymbolTable.build(files)
    return table, CallGraph.build(table, files)


def test_interned_sched_group_receivers_resolve():
    table, graph = real_tree()
    # The balance mirror's memos key interned SchedGroup objects by id()
    # and call through the group parameter; those receiver-typed edges
    # are what lets the coherence rule's dependency closure walk from
    # the memo accessors into SchedGroup's sorted-view helpers.
    designated = callee_names(graph, "repro.sched.vecstate.VecState.designated_for")
    assert "repro.sched.domains.SchedGroup.sorted_balance_mask" in designated
    fold = callee_names(graph, "repro.sched.balance._fold_group_stats")
    assert "repro.sched.domains.SchedGroup.sorted_cpus" in fold
