"""Time units and scheduler timing constants.

All simulation timestamps and durations are integers in microseconds.

This module lives in :mod:`repro.sched` (not :mod:`repro.sim`) because the
scheduler's tunables -- target latency, granularities, balance periods --
are *scheduler* policy, and the scheduler is layered below the simulator:
``repro.sched`` must never import ``repro.sim`` (the ``Scheduler``
docstring's "simulation-agnostic" contract, enforced by the
``layer-sched-sim`` rule of :mod:`repro.analysis`).  :mod:`repro.sim.timebase`
re-exports every name for backward compatibility.
"""

from __future__ import annotations

#: One microsecond (the base unit).
US = 1
#: One millisecond in microseconds.
MS = 1000
#: One second in microseconds.
SEC = 1_000_000

#: Scheduler tick period: 1 ms, i.e. a 1000 Hz kernel.
TICK_US = 1 * MS

#: Base period of the periodic load balancer at the lowest domain level
#: ("The load balancer runs every 4ms" -- paper, section 4.1).
BALANCE_BASE_US = 4 * MS

#: Target scheduling latency: every runnable thread should run at least once
#: within this interval (Linux ``sched_latency_ns`` is 6 ms scaled by CPU
#: count; we keep the base value and scale in the CFS module).
SCHED_LATENCY_US = 6 * MS

#: Minimum timeslice granted to a task before it can be preempted
#: (Linux ``sched_min_granularity_ns``).
MIN_GRANULARITY_US = 750

#: Wakeup preemption granularity (Linux ``sched_wakeup_granularity_ns``).
WAKEUP_GRANULARITY_US = 1 * MS

#: Each domain level's balance interval is this many times the interval
#: of the level below it.
BALANCE_INTERVAL_GROWTH = 2


def format_time(us: int) -> str:
    """Render a microsecond timestamp in the most readable unit."""
    if us < 0:
        return f"-{format_time(-us)}"
    if us >= SEC:
        return f"{us / SEC:.3f}s"
    if us >= MS:
        return f"{us / MS:.3f}ms"
    return f"{us}us"
