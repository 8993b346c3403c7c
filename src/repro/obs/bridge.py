"""Probe-to-tracepoint bridge: the scheduler's hooks on the obs bus.

The scheduler already reports every decision through the
:class:`~repro.viz.events.Probe` protocol.  :class:`ProbeTracepointBridge`
is a probe that forwards each hook to a named tracepoint
(``sched.nr_running``, ``sched.migration``, ...), which is what lets the
metrics recorder and the trace exporter consume scheduler, engine, checker
and sampler events through one uniform interface.

Attach it to a system's probe fanout (``system.attach_probe(bridge)``) --
usually via :class:`repro.obs.session.ObsSession`, which does the wiring.
Each forward is guarded by the tracepoint's ``enabled`` flag, so a bridge
whose consumers detached costs one branch per hook.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.tracepoints import TRACEPOINTS, TracepointRegistry
from repro.viz.events import Probe

#: Tracepoint names the bridge produces, in Probe-hook order.
SCHED_TRACEPOINTS = (
    "sched.nr_running",
    "sched.rq_load",
    "sched.considered",
    "sched.migration",
    "sched.wakeup",
    "sched.lifecycle",
    "sched.balance",
    "sched.switch",
)


class ProbeTracepointBridge(Probe):
    """Forwards every Probe hook onto the tracepoint bus."""

    def __init__(self, registry: Optional[TracepointRegistry] = None):
        reg = registry if registry is not None else TRACEPOINTS
        self.registry = reg
        self._tp_nr_running = reg.tracepoint("sched.nr_running")
        self._tp_rq_load = reg.tracepoint("sched.rq_load")
        self._tp_considered = reg.tracepoint("sched.considered")
        self._tp_migration = reg.tracepoint("sched.migration")
        self._tp_wakeup = reg.tracepoint("sched.wakeup")
        self._tp_lifecycle = reg.tracepoint("sched.lifecycle")
        self._tp_balance = reg.tracepoint("sched.balance")
        self._tp_switch = reg.tracepoint("sched.switch")

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        tp = self._tp_nr_running
        if tp.enabled:
            tp.emit(now, cpu=cpu, nr_running=nr_running)

    def on_rq_load(self, now: int, cpu: int, load: float) -> None:
        tp = self._tp_rq_load
        if tp.enabled:
            tp.emit(now, cpu=cpu, load=load)

    def wants_rq_load(self) -> bool:
        # The runqueue skips the load summation when the tracepoint has no
        # subscriber -- the compiled-in-but-not-traced path must stay free.
        return self._tp_rq_load.enabled

    def wants_balance(self) -> bool:
        """True while the considered-cores or balance tracepoint has a
        subscriber: balance walks that cannot move a task are skipped
        unless their records reach one.

        A subscriber also turns off ``wakeup._fast_idle_sibling`` and the
        nothing-to-pull gate (``balance.nothing_to_pull``); a check that
        compares the fast path with the reference path must leave both
        tracepoints unsubscribed, or it never reaches those shortcuts.
        """
        return self._tp_considered.enabled or self._tp_balance.enabled

    def on_considered(
        self, now: int, cpu: int, op: str, considered: Iterable[int]
    ) -> None:
        tp = self._tp_considered
        if tp.enabled:
            tp.emit(now, cpu=cpu, op=op, considered=frozenset(considered))

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        tp = self._tp_migration
        if tp.enabled:
            tp.emit(
                now, tid=tid, src_cpu=src_cpu, dst_cpu=dst_cpu, reason=reason
            )

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        tp = self._tp_wakeup
        if tp.enabled:
            tp.emit(
                now, tid=tid, cpu=cpu, waker_cpu=waker_cpu, was_idle=was_idle
            )

    def on_lifecycle(
        self, now: int, tid: int, kind: str, cpu: Optional[int]
    ) -> None:
        tp = self._tp_lifecycle
        if tp.enabled:
            tp.emit(now, tid=tid, kind=kind, cpu=cpu)

    def on_balance(
        self,
        now: int,
        cpu: int,
        domain: str,
        local_metric: float,
        busiest_metric: Optional[float],
        outcome: str,
    ) -> None:
        tp = self._tp_balance
        if tp.enabled:
            tp.emit(
                now,
                cpu=cpu,
                domain=domain,
                local_metric=local_metric,
                busiest_metric=busiest_metric,
                outcome=outcome,
            )

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        tp = self._tp_switch
        if tp.enabled:
            tp.emit(
                now,
                cpu=cpu,
                prev_tid=prev_tid,
                next_tid=next_tid,
                next_name=next_name,
            )
