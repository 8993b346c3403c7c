"""Named tracepoints: the unifying event bus of the obs subsystem.

The paper's tools share one design rule: instrumentation must cost nothing
while nobody is listening ("systemtap costs ~7%, so profiling is never left
on").  A :class:`Tracepoint` follows the kernel's static-tracepoint idiom:
the instrumented module materializes its tracepoints once at import time
and guards every emission with a single attribute check::

    _TP_CALLBACK = TRACEPOINTS.tracepoint("engine.callback")
    ...
    if _TP_CALLBACK.enabled:
        _TP_CALLBACK.emit(now, label=event.full_label())

``enabled`` is simply "someone subscribed", so the disabled path is one
attribute load and one branch -- measured against a benchmark run in
``tests/test_obs_overhead.py``.

Producers are the simulator (:mod:`repro.sim.engine`), the scheduler (via
:class:`repro.obs.bridge.ProbeTracepointBridge`, which forwards every
:class:`~repro.viz.events.Probe` hook), the sanity checker, and the
idle-overload sampler.  Consumers are the metrics recorder and the Chrome
trace builder; anything else can subscribe by name or prefix pattern.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: A tracepoint consumer: ``fn(name, now_us, fields)``.
Subscriber = Callable[[str, int, Mapping[str, object]], None]

#: Every event name the bus carries, with a one-line description.  This is
#: the authoritative registry: ``repro lint`` cross-checks it against every
#: ``tracepoint("...")`` / ``span("...")`` call site in the tree, so an
#: undeclared emission ("orphan emit") or an unemitted declaration ("dead
#: declaration") fails CI.  Add the name here in the same change that adds
#: the producer.
TRACEPOINT_NAMES: Dict[str, str] = {
    "engine.callback": "one executed event-loop callback, with its label",
    "sched.nr_running": "a runqueue's nr_running changed",
    "sched.rq_load": "a runqueue's load changed",
    "sched.considered": "CPUs a placement/balancing decision examined",
    "sched.migration": "a queued task moved between runqueues",
    "sched.wakeup": "wakeup placement chose a CPU",
    "sched.lifecycle": "task fork/exit",
    "sched.balance": "one balancing attempt and its outcome",
    "sched.switch": "context switch on a CPU",
    "checker.check": "one sanity-checker invariant sweep",
    "checker.violation_detected": "invariant violation first observed",
    "checker.transient": "violation cleared before the threshold",
    "checker.bug_confirmed": "violation persisted past the threshold",
    "checker.profile_done": "the checker's profiling window closed",
    "stats.violation_tick": "idle-while-overloaded sampler hit",
}


class Tracepoint:
    """One named event source; no-op until somebody subscribes."""

    __slots__ = ("name", "enabled", "_subscribers")

    def __init__(self, name: str):
        self.name = name
        #: True exactly when at least one subscriber is attached.  Call
        #: sites check this before building the fields dict, so a disabled
        #: tracepoint never allocates.
        self.enabled = False
        self._subscribers: List[Subscriber] = []

    def emit(self, now: int, **fields: object) -> None:
        """Deliver one event to every subscriber (caller checks ``enabled``)."""
        for subscriber in self._subscribers:
            subscriber(self.name, now, fields)

    def subscribe(self, fn: Subscriber) -> None:
        self._subscribers.append(fn)
        self.enabled = True

    def unsubscribe(self, fn: Subscriber) -> None:
        self._subscribers.remove(fn)
        self.enabled = bool(self._subscribers)

    def __repr__(self) -> str:
        state = f"{len(self._subscribers)} subscriber(s)" if self.enabled \
            else "disabled"
        return f"Tracepoint({self.name!r}, {state})"


class TracepointRegistry:
    """All tracepoints by name, with prefix-pattern subscription.

    Patterns are either exact names (``"sched.migration"``) or a prefix
    followed by ``*`` (``"sched.*"``, or ``"*"`` for everything).  Every
    subscription also covers tracepoints created *after* it, so consumers
    need not know the full producer set (or its import order) up front.
    """

    def __init__(self) -> None:
        self._points: Dict[str, Tracepoint] = {}
        #: Live (pattern, fn) pairs, applied to late-created tracepoints.
        self._subscriptions: List[Tuple[str, Subscriber]] = []

    def tracepoint(self, name: str) -> Tracepoint:
        """Create-or-get the tracepoint with this name."""
        point = self._points.get(name)
        if point is None:
            point = Tracepoint(name)
            self._points[name] = point
            for pattern, fn in self._subscriptions:
                if _matches(pattern, name):
                    point.subscribe(fn)
        return point

    def names(self) -> List[str]:
        return sorted(self._points)

    def subscribe(self, pattern: str, fn: Subscriber) -> None:
        """Attach ``fn`` to every tracepoint matching ``pattern``."""
        self._subscriptions.append((pattern, fn))
        for name, point in self._points.items():
            if _matches(pattern, name):
                point.subscribe(fn)

    def unsubscribe(self, pattern: str, fn: Subscriber) -> None:
        """Reverse a :meth:`subscribe` with the same arguments."""
        self._subscriptions.remove((pattern, fn))
        for name, point in self._points.items():
            if _matches(pattern, name) and fn in point._subscribers:
                point.unsubscribe(fn)

    def __repr__(self) -> str:
        live = sum(1 for p in self._points.values() if p.enabled)
        return f"TracepointRegistry({len(self._points)} points, {live} live)"


def _matches(pattern: str, name: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return pattern == name


#: The process-wide registry every instrumented module reports through,
#: mirroring the kernel's single static tracepoint table.  Tests and tools
#: may build private registries, but producers compiled into the simulator
#: (engine, checker, sampler, probe bridge) use this one.
TRACEPOINTS = TracepointRegistry()


class Span:
    """A named interval emitted as paired begin/end tracepoint events.

    Spans ride the same bus as point events (``ph`` field ``"B"``/``"E"``),
    so the Chrome exporter can render them as slices on the obs track::

        span = Span(tp, system.now, bug="group_imbalance")
        ...   # run the experiment
        span.end(system.now)
    """

    __slots__ = ("tracepoint", "fields", "start_us", "_open")

    def __init__(self, tracepoint: Tracepoint, now: int, **fields: object):
        self.tracepoint = tracepoint
        self.fields = fields
        self.start_us = now
        self._open = True
        if tracepoint.enabled:
            tracepoint.emit(now, ph="B", **fields)

    def end(self, now: int) -> None:
        """Close the span; idempotent."""
        if not self._open:
            return
        self._open = False
        if self.tracepoint.enabled:
            self.tracepoint.emit(now, ph="E", **self.fields)


def span(
    name: str,
    now: int,
    registry: Optional[TracepointRegistry] = None,
    **fields: object,
) -> Span:
    """Open a :class:`Span` on ``name`` (in ``TRACEPOINTS`` by default)."""
    reg = registry if registry is not None else TRACEPOINTS
    return Span(reg.tracepoint(name), now, **fields)
