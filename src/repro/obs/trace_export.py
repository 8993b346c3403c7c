"""Chrome trace-event / Perfetto JSON export of one simulated run.

The paper's second tool is a scheduling visualizer because "the tools we
used without success include htop, sar and perf" -- only a timeline makes
short idle periods and misplaced wakeups visible.  This module renders a
run in the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
loadable in ``chrome://tracing`` or https://ui.perfetto.dev:

* one **process track per CPU** ("cpu 0" ... "cpu N-1") carrying the
  running-task slices reconstructed from ``on_sched_switch`` calls and a
  ``nr_running`` counter track (the runqueue depth over time);
* **migrations as flow arrows** (``s``/``f`` pairs) from source to
  destination CPU, named by reason;
* **wakeups** as thread-scoped instant events on the landing CPU;
* **sanity-checker detections/confirmations** and the idle-overload
  sampler's violating ticks as instant events on a dedicated
  "sanity-checker" track -- the violation markers to read against the
  runqueue tracks;
* **event-loop callbacks** as instants on an "engine" track, labeled with
  each heap callback's ``label`` so simulator activity is attributable.

Timestamps are simulator microseconds, which is exactly the unit the
trace-event format expects.  The builder is a probe: attach it to one
system's probe fanout (usually through :class:`repro.obs.ObsSession`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple

from repro.viz.events import Probe

#: Synthetic pids for the non-CPU tracks (CPU n uses pid n).
ENGINE_PID = 100_000
CHECKER_PID = 100_001

#: Instant-event name and scope (global or track) per checker event.
_CHECKER_INSTANTS = {
    "violation_detected": ("invariant violation detected", "g"),
    "bug_confirmed": ("BUG CONFIRMED (survived monitoring window)", "g"),
    "transient": ("transient violation (recovered in window)", "t"),
    "profile_done": ("post-detection profile complete", "t"),
}


class ChromeTraceBuilder(Probe):
    """A probe that collects a run's events and renders trace-event JSON."""

    def __init__(self, num_cpus: int, max_events: int = 2_000_000):
        self.num_cpus = num_cpus
        self.max_events = max_events
        self.dropped = 0
        self._events: List[Dict[str, object]] = []
        #: Open running-task slice per CPU: (start_us, tid, name).
        self._open_slices: Dict[int, Tuple[int, object, str]] = {}
        self._flow_id = 0
        self._emit_metadata()

    # -- event intake --------------------------------------------------------

    def _add(self, event: Dict[str, object]) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    def _emit_metadata(self) -> None:
        for cpu in range(self.num_cpus):
            self._add(
                {
                    "ph": "M", "pid": cpu, "name": "process_name",
                    "args": {"name": f"cpu {cpu}"},
                }
            )
            self._add(
                {
                    "ph": "M", "pid": cpu, "name": "process_sort_index",
                    "args": {"sort_index": cpu},
                }
            )
        for pid, name in (
            (CHECKER_PID, "sanity-checker"),
            (ENGINE_PID, "engine"),
        ):
            self._add(
                {
                    "ph": "M", "pid": pid, "name": "process_name",
                    "args": {"name": name},
                }
            )
            self._add(
                {
                    "ph": "M", "pid": pid, "name": "process_sort_index",
                    "args": {"sort_index": pid},
                }
            )

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        self._close_slice(cpu, now)
        if next_tid is not None:
            name = next_name or f"tid {next_tid}"
            self._open_slices[cpu] = (now, next_tid, name)

    def _close_slice(self, cpu: int, now: int) -> None:
        opened = self._open_slices.pop(cpu, None)
        if opened is None:
            return
        start, tid, name = opened
        self._add(
            {
                "ph": "X", "pid": cpu, "tid": 0, "ts": start,
                "dur": max(now - start, 1), "name": name, "cat": "task",
                "args": {"tid": tid},
            }
        )

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        self._add(
            {
                "ph": "C", "pid": cpu, "tid": 0, "ts": now,
                "name": "nr_running", "args": {"nr": nr_running},
            }
        )

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        self._flow_id += 1
        common = {
            "name": f"migrate:{reason}", "cat": "migration",
            "id": self._flow_id, "tid": 0,
            "args": {"tid": tid, "reason": reason},
        }
        self._add({"ph": "s", "pid": src_cpu, "ts": now, **common})
        self._add(
            {"ph": "f", "bp": "e", "pid": dst_cpu, "ts": now + 1, **common}
        )

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        landing = "idle" if was_idle else "busy"
        self._add(
            {
                "ph": "i", "s": "t", "pid": cpu, "tid": 0,
                "ts": now, "name": f"wakeup tid {tid} ({landing})",
                "cat": "wakeup",
            }
        )

    def on_violation_tick(self, now: int) -> None:
        self._add(
            {
                "ph": "i", "s": "t", "pid": CHECKER_PID, "tid": 0,
                "ts": now, "name": "idle-while-overloaded tick",
                "cat": "sampler",
            }
        )

    def on_checker(
        self, now: int, event: str, fields: Mapping[str, object]
    ) -> None:
        if event == "check":
            return  # one instant per second adds noise, metrics count them
        text, scope = _CHECKER_INSTANTS.get(event, (event, "t"))
        record: Dict[str, object] = {
            "ph": "i", "s": scope, "pid": CHECKER_PID, "tid": 0,
            "ts": now, "name": text, "cat": "checker",
        }
        args = {
            k: v for k, v in fields.items()
            if isinstance(v, (int, float, str, bool)) or v is None
        }
        if "pairs" in fields:
            args["pairs"] = str(fields["pairs"])
        if args:
            record["args"] = args
        self._add(record)

    def on_callback(self, now: int, label: str) -> None:
        self._add(
            {
                "ph": "i", "s": "t", "pid": ENGINE_PID, "tid": 0,
                "ts": now, "name": label or "callback", "cat": "engine",
            }
        )

    # -- output --------------------------------------------------------------

    def finish(self, end_us: int) -> None:
        """Close still-open slices at the end of the observed run."""
        for cpu in list(self._open_slices):
            self._close_slice(cpu, end_us)

    def to_json(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event object."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str, end_us: Optional[int] = None) -> int:
        """Finish and write the trace; returns the number of events."""
        if end_us is not None:
            self.finish(end_us)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f)
        return len(self._events)
