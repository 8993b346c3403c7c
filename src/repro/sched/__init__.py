"""The CFS model: everything the paper's Section 2 describes.

Per-CPU runqueues ordered by vruntime (a bisect-sorted list), the
weight-and-utilization load metric with cgroup/autogroup division, the
scheduling-domain hierarchy with per-level scheduling groups, the hierarchical
load-balancing algorithm (the paper's Algorithm 1), wakeup placement, NOHZ
idle balancing, and CPU hotplug with domain regeneration.

Each of the paper's four bugs lives at a specific decision point in this
package and is toggled by :class:`~repro.sched.features.SchedFeatures`.
"""

from repro.sched.cgroup import Autogroup, CGroup, CGroupManager
from repro.sched.domains import DomainBuilder, SchedDomain, SchedGroup
from repro.sched.features import SchedFeatures
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState
from repro.sched.weights import (
    NICE_0_WEIGHT,
    weight_for_nice,
)

__all__ = [
    "Autogroup",
    "CGroup",
    "CGroupManager",
    "DomainBuilder",
    "NICE_0_WEIGHT",
    "RunQueue",
    "SchedDomain",
    "SchedFeatures",
    "SchedGroup",
    "Task",
    "TaskState",
    "weight_for_nice",
]
