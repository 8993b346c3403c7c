"""Probe that folds a system's event stream into metrics.

The recorder is attached to one system's probe fanout and maintains
exactly the numbers the paper says standard tools throw away:

* ``sched_wakeup_to_run_latency_us`` -- histogram of the gap between a
  task's wakeup and its next switch-in, labeled by the CPU it ran on.
  Overload-on-Wakeup is *this* distribution growing a tail while idle
  cores exist.
* ``sched_idle_gap_us`` -- histogram of per-CPU idle-period lengths, the
  short gaps ``htop``-style sampling averages away.
* ``sched_slice_interarrival_us`` -- histogram of per-task gaps between
  consecutive switch-ins.  Its exact standard deviation (the histogram
  keeps a running sum of squares) is the *scheduling jitter* the SLO
  layer reports: a task that runs on a metronomic cadence has near-zero
  jitter; one starved behind an overloaded runqueue while cores idle
  shows a fat, erratic inter-arrival spread.
* ``sched_migrations_total`` by reason, ``sched_balance_total`` by
  (domain, outcome), ``sched_wakeups_total`` by idle/busy landing.
* ``checker_*_total`` -- the sanity checker's detection funnel (checks,
  violations seen, transients, confirmed bugs).
* ``engine_callbacks_total`` by event-loop label, attributing heap
  callbacks (``tick``, ``phase-end``, ``wake``) in one counter.

It consumes no load samples, so attaching it never makes the runqueues
sum their loads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.viz.events import Probe


class MetricsRecorder(Probe):
    """A probe that updates a metrics registry."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: Pending wakeups by tid: wakeup time, waiting for switch-in.
        self._wakeup_pending: Dict[int, int] = {}
        #: Per-CPU timestamp the runqueue last went empty; None while busy.
        self._idle_since: Dict[int, int] = {}
        #: Per-task timestamp of the previous switch-in (jitter tracking).
        self._last_switch_in: Dict[int, int] = {}

        m = self.metrics
        self._wakeup_latency = m.histogram(
            "sched_wakeup_to_run_latency_us",
            "gap between a task's wakeup and its next switch-in",
        )
        self._idle_gap = m.histogram(
            "sched_idle_gap_us", "per-CPU idle-period lengths"
        )
        self._slice_interarrival = m.histogram(
            "sched_slice_interarrival_us",
            "per-task gaps between consecutive switch-ins (jitter source)",
        )
        self._migrations = m.counter(
            "sched_migrations_total", "task migrations by reason"
        )
        self._wakeups = m.counter(
            "sched_wakeups_total", "wakeups by idle/busy landing core"
        )
        self._switches = m.counter(
            "sched_switches_total", "switch-ins per CPU"
        )
        self._balance = m.counter(
            "sched_balance_total", "balancing attempts by domain and outcome"
        )
        self._considered = m.counter(
            "sched_considered_total", "considered-core reports by operation"
        )
        self._forks = m.counter("sched_forks_total", "task forks")
        self._exits = m.counter("sched_exits_total", "task exits")
        self._checker = m.counter(
            "checker_events_total", "sanity-checker state transitions"
        )
        self._engine = m.counter(
            "engine_callbacks_total", "event-loop callbacks by label class"
        )
        self._sampler = m.counter(
            "stats_violation_ticks_total",
            "ticks the idle-overload sampler saw a violation",
        )

    # -- probe hooks ---------------------------------------------------------

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        self._wakeup_pending[tid] = now
        self._wakeups.inc(landing="idle_core" if was_idle else "busy_core")

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        if next_tid is not None:
            self._switches.inc(cpu=cpu)
            woken_at = self._wakeup_pending.pop(next_tid, None)
            if woken_at is not None:
                self._wakeup_latency.observe(now - woken_at, cpu=cpu)
            prev_run = self._last_switch_in.get(next_tid)
            if prev_run is not None and now > prev_run:
                self._slice_interarrival.observe(now - prev_run)
            self._last_switch_in[next_tid] = now

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        if nr_running == 0:
            self._idle_since.setdefault(cpu, now)
        else:
            since = self._idle_since.pop(cpu, None)
            if since is not None and now > since:
                self._idle_gap.observe(now - since, cpu=cpu)

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        self._migrations.inc(reason=reason)

    def on_balance(
        self,
        now: int,
        cpu: int,
        domain: str,
        local_metric: float,
        busiest_metric: Optional[float],
        outcome: str,
    ) -> None:
        self._balance.inc(domain=domain, outcome=outcome.split(":", 1)[0])

    def on_considered(
        self, now: int, cpu: int, op: str, considered: Iterable[int]
    ) -> None:
        self._considered.inc(op=op)

    def on_lifecycle(
        self, now: int, tid: int, kind: str, cpu: Optional[int]
    ) -> None:
        if kind == "fork":
            self._forks.inc()
            # A fork is also a placement: its first switch-in closes a
            # wakeup-to-run sample, like the kernel's sched_wakeup_new.
            self._wakeup_pending[tid] = now
        elif kind == "exit":
            self._exits.inc()
            self._wakeup_pending.pop(tid, None)
            self._last_switch_in.pop(tid, None)

    def on_callback(self, now: int, label: str, tag: Optional[int]) -> None:
        self._engine.inc(label=label or "unlabeled")

    def on_checker(
        self, now: int, event: str, fields: Mapping[str, object]
    ) -> None:
        self._checker.inc(event=event)

    def on_violation_tick(self, now: int) -> None:
        self._sampler.inc()

    # -- conveniences --------------------------------------------------------

    @property
    def wakeup_latency(self) -> Histogram:
        """The wakeup-to-run latency histogram (acceptance metric)."""
        return self._wakeup_latency

    @property
    def slice_interarrival(self) -> Histogram:
        """Per-task switch-in inter-arrival histogram (jitter source)."""
        return self._slice_interarrival

    def jitter_us(self) -> float:
        """Scheduling jitter: exact stddev of switch-in inter-arrivals."""
        return self._slice_interarrival.stddev()

    def latency_line(self) -> str:
        """One-line percentile summary for experiment tables."""
        h = self._wakeup_latency
        if h.count() == 0:
            return "wakeup-to-run latency: no samples"
        return (
            f"wakeup-to-run latency: n={h.count()} "
            f"p50={h.percentile(50):.0f}us p95={h.percentile(95):.0f}us "
            f"p99={h.percentile(99):.0f}us"
        )
