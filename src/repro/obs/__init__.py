"""Unified observability: metrics and trace export.

The paper's diagnosis chapter is an argument that the bugs stayed
invisible for years because the standard tools (``htop``, ``sar``,
``perf``) aggregate away short-lived invariant violations.  This package
is the repo's answer.  Its consumers are probes
(:class:`repro.viz.events.Probe`): each attaches to one system's probe
fanout, which carries the scheduler's hooks and that system's event-loop
callbacks, sanity-checker events and idle-overload sampler ticks.

* :mod:`repro.obs.metrics` -- counters, gauges, and log-bucketed
  histograms (wakeup-to-run latency, idle-gap lengths, migrations by
  reason, balance outcomes by domain);
* :mod:`repro.obs.recorder` -- :class:`MetricsRecorder`, the probe that
  folds the event stream into those metrics;
* :mod:`repro.obs.trace_export` -- Chrome trace-event / Perfetto JSON
  with per-CPU tracks, migration flow arrows, and sanity-checker
  violation instants;
* :mod:`repro.obs.session` -- :class:`ObsSession`, the one-call wiring
  of the recorder and the trace builder onto a simulated system.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSnapshot",
    ),
    "repro.obs.recorder": ("MetricsRecorder",),
    "repro.obs.session": ("ObsSession",),
    "repro.obs.trace_export": ("ChromeTraceBuilder",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
