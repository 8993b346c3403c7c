"""Per-layer spans for the traced run, patched in from outside.

:class:`Tracer` wraps the public entry point of each simulator layer (a
class or module attribute) with a span that counts calls and measures
time.  Self time is computed with a span stack: a span's duration minus
the time its child spans cover, so the self times of all layers plus the
benchmark's own ``bench`` root partition each traced operation's wall
time.  Spans are folded into per-layer totals in memory as they close
and read out when the run ends.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original attribute, so untraced operations of the same
process run the unmodified code.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import reportgen
from repro.perf.orchestrator import ResultCache
from repro.perf.orchestrator import pool as orchestrator_pool
from repro.sched import balance
from repro.sched.scheduler import Scheduler
from repro.sim.engine import EventLoop
from repro.sim.system import System

#: Layer name -> the (owner, attribute) pairs its span wraps.  A layer is
#: named after the module it measures; README.md maps each to its code.
LAYERS: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "sim": ((EventLoop, "run_until"), (EventLoop, "run_while")),
    "tick": ((Scheduler, "tick"),),
    "account": ((Scheduler, "account"),),
    "pick": ((Scheduler, "pick_next_task"), (Scheduler, "deschedule")),
    "wakeup": ((Scheduler, "wake_task"), (Scheduler, "place_new_task")),
    "balance.periodic": ((balance, "periodic_balance"),),
    "balance.nohz": ((balance, "nohz_idle_balance"),),
    "balance.newidle": ((balance, "newidle_balance"),),
    "orch": ((reportgen, "run_trials"),),
    "cache.get": ((ResultCache, "get"),),
    "cache.put": ((ResultCache, "put"),),
    "report": ((reportgen, "generate_report"),),
}

#: Layers without a single attribute to wrap: every ``System.tick_hooks``
#: entry, and every trial function the orchestrator resolves.
HOOK_LAYERS = ("hooks", "trial")

#: The benchmark's own code inside a traced operation (the root span).
ROOT = "bench"

class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Span stack plus per-layer call counts and self/total seconds."""

    def __init__(self) -> None:
        names = [ROOT, *LAYERS, *HOOK_LAYERS]
        #: layer -> [calls, self seconds, total seconds]
        self.totals: Dict[str, List[float]] = {n: [0, 0.0, 0.0] for n in names}
        #: Counts taken at span boundaries, for the ratio metrics.
        self.counters: Counter = Counter()
        self.stack: List[_Frame] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a ``layer`` span.

        ``before(*args)`` runs before the call and its value is handed to
        ``after(token, result, *args)`` once the span has closed.
        """
        stats = self.totals[layer]
        stack = self.stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(*args) if before is not None else None
            frame = _Frame(layer)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame.child
                stats[2] += duration
                if stack:
                    stack[-1].child += duration
            if after is not None:
                after(token, result, *args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as the root span."""
        return self.wrap(ROOT, fn)()

    # -- counters ------------------------------------------------------------

    def _observers(self) -> Dict[str, Tuple[Any, Any]]:
        """attribute name -> (before, after) hooks of its span."""
        counters = self.counters
        stack = self.stack

        def count(name: str, value: int = 1) -> None:
            counters[name] += value

        events = (
            lambda loop, *a: loop.events_fired,
            lambda token, r, loop, *a: count("sim.events", loop.events_fired - token),
        )

        def balance_after(token: Any, moved: int, *args: Any) -> None:
            # nohz_idle_balance sums the periodic walks it makes; count
            # each migration once, at the outermost balance span.
            if not (stack and stack[-1].layer.startswith("balance.")):
                count("balance.moved", moved)

        def pick_after(token: Any, task: Any, *args: Any) -> None:
            count("pick.picks")
            if task is None:
                count("pick.idle")

        def wake_after(token: Any, target: int, sched: Any, task: Any, *a: Any) -> None:
            count("wakeup.wakes")
            count("wakeup.busy", task.stats.wakeups_on_busy_core - token)

        def get_after(token: Any, hit: Any, *args: Any) -> None:
            count("cache.lookups")
            if hit is not None:
                count("cache.hits")

        return {
            "run_until": events,
            "run_while": events,
            "pick_next_task": (None, pick_after),
            "wake_task": (lambda sched, task, *a: task.stats.wakeups_on_busy_core,
                          wake_after),
            "periodic_balance": (None, balance_after),
            "nohz_idle_balance": (None, balance_after),
            "newidle_balance": (None, balance_after),
            "run_trials": (None, lambda t, run, *a: count("orch.executed", run.stats.executed)),
            "get": (None, get_after),
        }

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's entry points; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                before, after = observers.get(attr, (None, None))
                self._patch(
                    owner, attr,
                    self.wrap(layer, getattr(owner, attr), before, after),
                )

        resolve_kind = orchestrator_pool.resolve_kind
        self._patch(
            orchestrator_pool, "resolve_kind",
            lambda kind: self.wrap("trial", resolve_kind(kind)),
        )

        init = System.__init__
        tracer = self

        def traced_init(system: System, *args: Any, **kwargs: Any) -> None:
            init(system, *args, **kwargs)
            system.tick_hooks = _TracedHooks(tracer)

        self._patch(System, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_seconds(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self and total seconds (absolute, all ops)."""
        return {
            name: {"calls": int(c), "self_s": s, "total_s": t}
            for name, (c, s, t) in self.totals.items()
        }

    def metrics(self, ops: int) -> Dict[str, float]:
        """The per-layer metric values, per traced operation.

        ``ops`` traced operations ran, all with the same inputs, so every
        ``.calls`` value is an exact per-operation count.
        """
        root = self.totals[ROOT][2]
        out: Dict[str, float] = {}
        for name, (calls, self_s, _) in self.totals.items():
            if name != ROOT:
                out[f"{name}.calls"] = calls / ops
            out[f"{name}.self_pct"] = 100.0 * self_s / root if root else 0.0
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        balance_calls = sum(
            self.totals[f"balance.{kind}"][0]
            for kind in ("periodic", "nohz", "newidle")
        )
        out["sim.events"] = c["sim.events"] / ops
        out["pick.idle_frac"] = ratio(c["pick.idle"], c["pick.picks"])
        out["wakeup.busy_frac"] = ratio(c["wakeup.busy"], c["wakeup.wakes"])
        out["balance.moved_per_call"] = ratio(c["balance.moved"], balance_calls)
        out["orch.executed"] = c["orch.executed"] / ops
        out["cache.hit_ratio"] = ratio(c["cache.hits"], c["cache.lookups"])
        return out


class _TracedHooks(list):  # type: ignore[type-arg]
    """A ``System.tick_hooks`` list whose entries run in ``hooks`` spans.

    ``remove`` accepts the original hook, so detaching a checker or
    sampler works exactly as on a plain list.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def append(self, hook: Callable[[int], None]) -> None:
        super().append(self._tracer.wrap("hooks", hook))

    def remove(self, hook: Callable[[int], None]) -> None:
        for entry in self:
            if entry.__wrapped__ == hook:
                super().remove(entry)
                return
        raise ValueError("hook not registered")
