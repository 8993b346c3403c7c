"""Fixture: the sanitized twins -- seeded, ordered, constant flows."""

import random


class Tracepoint:
    def __init__(self, name):
        self.name = name

    def emit(self, **fields):
        return fields


def seeded_sample(seed):
    # OK: a seeded generator is reproducible, not a taint source.
    rng = random.Random(seed)
    return rng.random()


def emit_seeded(seed):
    trace = Tracepoint("fixture.latency")
    trace.emit(value=seeded_sample(seed))


def emit_sorted_members(members):
    # OK: sorted() is an order sanitizer -- set iteration order taint
    # is stripped before the emit sees the batch.
    trace = Tracepoint("fixture.members")
    trace.emit(batch=sorted(set(members)))


def record_digest(value):
    return value


def publish_constant():
    # OK: an untainted constant into a digest-named function.
    return record_digest(42)


def emit_memoized(memo, group):
    # OK: id() used directly as a memo key selects an entry; the
    # memoized value, not the identity, reaches the emit.
    trace = Tracepoint("fixture.memo")
    trace.emit(value=memo.get(id(group)))
