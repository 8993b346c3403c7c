"""Fixture: scheduler module reaching into sim and obs (3 findings).

Analyzed as ``repro.sched.layering_bad``.
"""

import repro.sim.engine  # noqa: F401  (layer-sched-sim)
from repro.obs.metrics import MetricsRegistry  # noqa: F401  (layer-sched-obs)
from repro.sim.timebase import TICK_US  # noqa: F401  (layer-sched-sim)
