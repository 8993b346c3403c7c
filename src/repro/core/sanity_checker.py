"""The online sanity checker (paper Section 4.1).

The checker wakes every ``check_interval_us`` (the paper's S, default 1 s)
and evaluates the work-conserving invariant.  A hit opens a *monitoring
window* of ``monitor_window_us`` (the paper's M, 100 ms -- the balancer
runs every 4 ms, but hierarchical recovery can take several rounds): during
the window the checker watches, at every tick, whether the scheduler
recovers on its own, while counting the thread migrations, creations and
destructions that could constitute recovery.  Only a violation that
survives the whole window is flagged as a bug; a :class:`BugReport` is
filed and the balance profiler records decisions for
``profile_duration_us`` (20 ms, like the paper's systemtap capture).

Attach with :meth:`SanityChecker.attach`; reports accumulate in
``checker.reports``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.invariant import Violation, find_violations, has_violation
from repro.core.profiler import BalanceProfiler
from repro.sim.timebase import MS, SEC
from repro.viz.events import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System


@dataclass
class MonitorSummary:
    """Scheduler activity observed during one monitoring window."""

    migrations: int = 0
    forks: int = 0
    exits: int = 0
    wakeups: int = 0

    def total(self) -> int:
        return self.migrations + self.forks + self.exits + self.wakeups


@dataclass
class BugReport:
    """A confirmed long-term invariant violation."""

    detected_at_us: int
    confirmed_at_us: int
    violations: List[Violation]
    monitor: MonitorSummary
    #: Filled in once the post-detection profile window closes.
    profile_summary: str = ""
    profile_failed_fraction: float = 0.0

    def describe(self) -> str:
        pairs = sorted({(v.idle_cpu, v.busy_cpu) for v in self.violations})
        lines = [
            f"invariant violated from {self.detected_at_us}us, confirmed at "
            f"{self.confirmed_at_us}us ({len(self.violations)} pair(s))",
            f"  idle/overloaded pairs: {pairs[:8]}"
            + ("..." if len(pairs) > 8 else ""),
            f"  during monitoring: {self.monitor.migrations} migrations, "
            f"{self.monitor.forks} forks, {self.monitor.exits} exits, "
            f"{self.monitor.wakeups} wakeups",
        ]
        if self.profile_summary:
            lines.append(self.profile_summary)
        return "\n".join(lines)


class _MonitorProbe(Probe):
    """Counts recovery-relevant scheduler events during a window."""

    def __init__(self) -> None:
        self.summary = MonitorSummary()

    def on_migration(self, now, tid, src_cpu, dst_cpu, reason) -> None:
        self.summary.migrations += 1

    def on_wakeup(self, now, tid, cpu, waker_cpu, was_idle) -> None:
        self.summary.wakeups += 1

    def on_lifecycle(self, now, tid, kind, cpu) -> None:
        if kind == "fork":
            self.summary.forks += 1
        elif kind == "exit":
            self.summary.exits += 1


class SanityChecker:
    """Online invariant checker attached to a simulated system."""

    IDLE = "idle"
    MONITORING = "monitoring"
    PROFILING = "profiling"

    def __init__(
        self,
        check_interval_us: int = 1 * SEC,
        monitor_window_us: int = 100 * MS,
        profile_duration_us: int = 20 * MS,
    ):
        if check_interval_us <= 0 or monitor_window_us <= 0:
            raise ValueError("intervals must be positive")
        self.check_interval_us = check_interval_us
        self.monitor_window_us = monitor_window_us
        self.profile_duration_us = profile_duration_us
        self.reports: List[BugReport] = []
        self.checks_performed = 0
        self.violations_seen = 0
        self.transient_violations = 0
        self._state = self.IDLE
        self._system: Optional["System"] = None
        self._next_check_us = 0
        self._window_end_us = 0
        self._detected_at_us = 0
        self._cleared_during_window = False
        self._monitor_probe: Optional[_MonitorProbe] = None
        self._profiler: Optional[BalanceProfiler] = None
        self._profile_end_us = 0
        self._pending_report: Optional[BugReport] = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, system: "System") -> None:
        """Start checking on a system (registers a tick hook)."""
        if self._system is not None:
            raise RuntimeError("checker is already attached")
        self._system = system
        self._next_check_us = system.now + self.check_interval_us
        system.tick_hooks.append(self._on_tick)

    def detach(self) -> None:
        if self._system is None:
            return
        self._system.tick_hooks.remove(self._on_tick)
        self._teardown_window()
        self._stop_profile()
        self._system = None
        self._state = self.IDLE

    # -- state machine ------------------------------------------------------------

    def _on_tick(self, now: int) -> None:
        assert self._system is not None
        if self._state == self.IDLE:
            if now >= self._next_check_us:
                self._next_check_us = now + self.check_interval_us
                self._run_check(now)
        elif self._state == self.MONITORING:
            self._monitor_tick(now)
        elif self._state == self.PROFILING:
            if now >= self._profile_end_us:
                self._stop_profile()
                self._state = self.IDLE

    def _run_check(self, now: int) -> None:
        assert self._system is not None
        self.checks_performed += 1
        violations = find_violations(self._system.scheduler, now)
        probe = self._system.probe
        if probe.active:
            probe.on_checker(now, "check", {"violations": len(violations)})
        if not violations:
            return
        self.violations_seen += 1
        if probe.active:
            pairs = sorted({(v.idle_cpu, v.busy_cpu) for v in violations})
            probe.on_checker(now, "violation_detected", {
                "violations": len(violations),
                "pairs": tuple(pairs[:8]),
                "window_us": self.monitor_window_us,
            })
        # Open the monitoring window: is this a legal transient state?
        self._state = self.MONITORING
        self._detected_at_us = now
        self._window_end_us = now + self.monitor_window_us
        self._cleared_during_window = False
        self._monitor_probe = _MonitorProbe()
        self._system.attach_probe(self._monitor_probe)

    def _monitor_tick(self, now: int) -> None:
        assert self._system is not None and self._monitor_probe is not None
        if now < self._window_end_us:
            # Mid-window ticks only need "did the scheduler recover at
            # least once?" -- the early-exit check suffices, and once the
            # sticky cleared flag is set there is nothing left to learn.
            if not self._cleared_during_window and not has_violation(
                self._system.scheduler, now
            ):
                self._cleared_during_window = True
            return
        violations = find_violations(self._system.scheduler, now)
        if not violations:
            self._cleared_during_window = True
        # Window over: decide.
        monitor = self._monitor_probe.summary
        self._teardown_window()
        probe = self._system.probe
        if self._cleared_during_window:
            # The scheduler recovered at least once: a legal short-term
            # violation, not a bug.
            self.transient_violations += 1
            self._state = self.IDLE
            if probe.active:
                probe.on_checker(
                    now, "transient", {"detected_at_us": self._detected_at_us}
                )
            return
        report = BugReport(
            detected_at_us=self._detected_at_us,
            confirmed_at_us=now,
            violations=violations,
            monitor=monitor,
        )
        if probe.active:
            probe.on_checker(now, "bug_confirmed", {
                "detected_at_us": self._detected_at_us,
                "violations": len(violations),
                "migrations": monitor.migrations,
                "forks": monitor.forks,
                "exits": monitor.exits,
                "wakeups": monitor.wakeups,
            })
        self.reports.append(report)
        self._pending_report = report
        self._start_profile(now)

    def _start_profile(self, now: int) -> None:
        assert self._system is not None
        self._profiler = BalanceProfiler()
        self._profiler.start()
        self._system.attach_probe(self._profiler)
        self._profile_end_us = now + self.profile_duration_us
        self._state = self.PROFILING

    def _stop_profile(self) -> None:
        if self._profiler is None:
            return
        self._profiler.stop()
        if self._system is not None:
            self._system.detach_probe(self._profiler)
        if self._pending_report is not None:
            self._pending_report.profile_summary = self._profiler.summarize()
            self._pending_report.profile_failed_fraction = (
                self._profiler.failed_fraction()
            )
            if self._system is not None and self._system.probe.active:
                self._system.probe.on_checker(
                    self._system.now, "profile_done", {
                        "failed_fraction":
                            self._pending_report.profile_failed_fraction,
                    },
                )
            self._pending_report = None
        self._profiler = None

    def _teardown_window(self) -> None:
        if self._monitor_probe is not None and self._system is not None:
            self._system.detach_probe(self._monitor_probe)
        self._monitor_probe = None

    # -- reporting ---------------------------------------------------------------

    @property
    def bug_detected(self) -> bool:
        return bool(self.reports)

    def save_reports(self, path: str) -> int:
        """Persist bug reports as JSON lines (for offline triage).

        Returns the number of reports written.  The format is stable:
        one object per report with detection times, violation pairs, the
        monitoring summary, and the profiling verdict.
        """
        import json

        with open(path, "w", encoding="utf-8") as f:
            for report in self.reports:
                obj = {
                    "detected_at_us": report.detected_at_us,
                    "confirmed_at_us": report.confirmed_at_us,
                    "violations": [
                        {
                            "time_us": v.time_us,
                            "idle_cpu": v.idle_cpu,
                            "busy_cpu": v.busy_cpu,
                            "busy_nr_running": v.busy_nr_running,
                            "stealable_tids": list(v.stealable_tids),
                        }
                        for v in report.violations
                    ],
                    "monitor": {
                        "migrations": report.monitor.migrations,
                        "forks": report.monitor.forks,
                        "exits": report.monitor.exits,
                        "wakeups": report.monitor.wakeups,
                    },
                    "profile_failed_fraction":
                        report.profile_failed_fraction,
                    "profile_summary": report.profile_summary,
                }
                f.write(json.dumps(obj) + "\n")
        return len(self.reports)

    def summary(self) -> str:
        return (
            f"sanity checker: {self.checks_performed} checks, "
            f"{self.violations_seen} violations seen, "
            f"{self.transient_violations} transient, "
            f"{len(self.reports)} confirmed bug(s)"
        )
