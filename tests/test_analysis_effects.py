"""The engine the taint rule runs on: call resolution and set inference.

A toy project pins the two queries ``determinism-taint`` asks of
:class:`~repro.analysis.effects.EffectEngine`: which project function a
call expression resolves to, and whether an expression is an unordered
set.
"""

import ast

from repro.analysis.effects import EffectEngine, dotted_name

TOY = '''
from typing import Set


class RunQueue:
    def __init__(self):
        self._tasks = []
        self.ready: Set[int] = set()

    def load(self):
        return plain_sum(self._tasks)

    def order(self):
        return list(self.ready), list(self._tasks), self.ready.copy()


def plain_sum(items):
    total = 0
    for item in items:
        total += item
    return total
'''

MOD = "repro.core.toy"


def toy_engine():
    return EffectEngine([(MOD, "<toy>", ast.parse(TOY))])


def q(name):
    return f"{MOD}.{name}"


def _calls(engine, qualname):
    fn = engine.table.functions[qualname]
    return [c for c in ast.walk(fn.node) if isinstance(c, ast.Call)]


def test_engine_resolves_calls_to_helpers():
    engine = toy_engine()
    fn = engine.table.functions[q("RunQueue.load")]
    resolved = {engine.resolve(fn, c) for c in _calls(engine, fn.qualname)}
    assert resolved == {q("plain_sum")}


def test_is_set_typed_follows_annotations_and_copies():
    engine = toy_engine()
    fn = engine.table.functions[q("RunQueue.order")]
    ready, tasks, copied = (
        c.args[0] if c.args else c
        for c in _calls(engine, fn.qualname)
        if dotted_name(c.func) in ("list", "self.ready.copy")
    )
    assert engine.is_set_typed(fn, ready)
    assert not engine.is_set_typed(fn, tasks)
    assert engine.is_set_typed(fn, copied)
    assert engine.is_set_typed(fn, ast.parse("{1, 2}").body[0].value)
