"""Per-CPU scheduler state: runqueue, idle tracking, hotplug, NOHZ.

A :class:`Cpu` is the scheduler-side view of one core: its runqueue, whether
it is online (hotplug), when it last became idle (the fixed wakeup path picks
the *longest*-idle core), and whether it is in the tickless (NOHZ) idle state
the paper's Section 2.2.2 describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sched.load import LoadEpoch
from repro.sched.runqueue import OverloadCount, RunQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.viz.events import Probe


class Cpu:
    """One logical CPU as the scheduler manages it."""

    def __init__(
        self,
        cpu_id: int,
        probe: Optional["Probe"] = None,
        load_epoch: Optional[LoadEpoch] = None,
        load_cache: bool = True,
        idle_epoch: Optional[LoadEpoch] = None,
        divisor_epoch: Optional[LoadEpoch] = None,
        sanitize: bool = False,
        overload: Optional[OverloadCount] = None,
    ):
        self.cpu_id = cpu_id
        self.rq = RunQueue(
            cpu_id, probe, load_epoch=load_epoch, load_cache=load_cache,
            idle_epoch=idle_epoch, divisor_epoch=divisor_epoch,
            sanitize=sanitize, overload=overload,
        )
        #: Hotplug state; offline CPUs host no tasks and join no domain.
        self.online = True
        #: Timestamp the CPU last became idle; None while busy.  CPUs boot
        #: idle and tickless, so they are NOHZ-balanceable from time zero.
        self.idle_since_us: Optional[int] = 0
        #: True when the CPU stopped its periodic tick (tickless idle).
        self.tickless = True
        #: Set when this idle CPU was kicked to act as the NOHZ balancer.
        self.nohz_balancer = False
        #: EWMA of recent idle-period lengths (the kernel's ``avg_idle``):
        #: newidle balancing is skipped when expected idleness is shorter
        #: than the cost of balancing.  Boot value is large: a never-used
        #: CPU is long-term idle.
        self.avg_idle_us = 1_000_000
        #: Timestamp of the last accounting update for the running task.
        self.last_account_us = 0
        #: Accumulated busy/idle time, for utilization reports.
        self.busy_time_us = 0
        self.idle_time_us = 0
        #: Per-domain-level next periodic balance timestamps.
        self.next_balance_us: list = []
        #: Per-domain-level [idle_epoch, winner] designated-CPU memo used
        #: by the fast balancing path; valid while the idle epoch matches.
        self.designated_memo: list = []
        #: Vectorized-path balance plan: (domain, local group, solo
        #: winner) per level, cached until the domain generation moves
        #: (see ``periodic_balance``).
        self.balance_plan: Optional[list] = None
        self.balance_plan_gen = -1

    @property
    def is_idle(self) -> bool:
        """True when nothing runs here and nothing waits in the queue."""
        return self.online and self.rq.is_idle()

    def mark_idle(self, now: int) -> None:
        """Record the busy -> idle transition (enters tickless state)."""
        if self.idle_since_us is None:
            self.idle_since_us = now
            self.tickless = True

    def mark_busy(self, now: int) -> None:
        """Record the idle -> busy transition (leaves tickless state)."""
        if self.idle_since_us is not None:
            idle_period = now - self.idle_since_us
            self.idle_time_us += idle_period
            # Kernel ``update_avg``: avg += (sample - avg) / 8.
            self.avg_idle_us += (idle_period - self.avg_idle_us) // 8
            self.idle_since_us = None
        self.tickless = False
        self.nohz_balancer = False

    def idle_duration(self, now: int) -> int:
        """Microseconds spent idle so far, 0 when busy."""
        if self.idle_since_us is None:
            return 0
        return now - self.idle_since_us

    def __repr__(self) -> str:
        state = "offline" if not self.online else (
            "idle" if self.is_idle else "busy"
        )
        return f"Cpu({self.cpu_id}, {state}, nr_running={self.rq.nr_running})"
