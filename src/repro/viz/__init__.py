"""Scheduler visualization: trace recording and plot rendering.

The paper's visual tool instruments the kernel to record, without sampling,
(1) every runqueue-size change, (2) every runqueue-load change, and (3) the
set of cores considered by each load-balancing or wakeup decision, into a
fixed-size in-memory array.  This package is the equivalent:

* :mod:`~repro.viz.events` -- event records, the probe interface the
  scheduler reports into, and the fixed-capacity trace buffer;
* :mod:`~repro.viz.heatmap` -- Figure 2/3-style heatmaps (cores x time,
  colored by runqueue size or load), rendered as ASCII or standalone SVG;
* :mod:`~repro.viz.considered` -- Figure 5-style considered-cores plots;
* :mod:`~repro.viz.timeline` -- per-core execution timelines.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "repro.viz.events": (
        "ConsideredEvent",
        "FanoutProbe",
        "LoadEvent",
        "MigrationEvent",
        "NrRunningEvent",
        "Probe",
        "TraceBuffer",
        "TraceProbe",
        "WakeupEvent",
    ),
    "repro.viz.gaps": (
        "ActivityGap",
        "GapReport",
        "analyze_gaps",
        "find_gaps",
    ),
    "repro.viz.heatmap": (
        "HeatmapBuilder",
        "render_ascii_heatmap",
        "render_svg_heatmap",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
