"""repro: a reproduction of "The Linux Scheduler: a Decade of Wasted Cores"
(Lozi et al., EuroSys 2016).

The package simulates a multicore NUMA machine running a faithful model of
Linux's CFS scheduler -- per-core runqueues on a red-black tree, the
weight x utilization / autogroup load metric, hierarchical scheduling
domains, the paper's Algorithm 1 load balancer, cache-affine wakeup
placement, NOHZ idle balancing and CPU hotplug -- with the paper's four
performance bugs implemented *as behaviors* and their fixes as feature
flags:

>>> from repro import System, SchedFeatures, amd_bulldozer_64
>>> system = System(amd_bulldozer_64(), SchedFeatures())            # buggy
>>> system = System(amd_bulldozer_64(),
...                 SchedFeatures().with_fixes("all"))              # fixed

On top of the simulator sit the paper's two contributed tools -- the
online sanity checker (Algorithm 2) and the scheduling visualizer -- plus
the workload models (NAS, kernel make, R, a TPC-H database) and one
experiment driver per table/figure in ``repro.experiments``.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.bugs": ("BUGS", "Bug"),
    "repro.core.invariant": ("Violation", "find_violations"),
    "repro.core.offline": (
        "find_trace_violations",
        "load_trace",
        "save_trace",
    ),
    "repro.core.sanity_checker": ("BugReport", "SanityChecker"),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.session": ("ObsSession",),
    "repro.sched.features": ("ALL_FIXED", "MAINLINE", "SchedFeatures"),
    "repro.sched.task": ("Task", "TaskState"),
    "repro.sim.system": ("System",),
    "repro.sim.timebase": ("MS", "SEC", "TICK_US", "US"),
    "repro.stats.metrics": ("IdleOverloadSampler", "summarize_tasks"),
    "repro.topology.interconnect": ("Interconnect",),
    "repro.topology.machine": ("MachineTopology",),
    "repro.topology.presets": ("amd_bulldozer_64", "single_node", "two_nodes"),
    "repro.viz.events": ("TraceBuffer", "TraceProbe"),
    "repro.viz.heatmap": ("HeatmapBuilder", "render_ascii_heatmap"),
    "repro.workloads.base": ("TaskSpec",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ += ["__version__"]
