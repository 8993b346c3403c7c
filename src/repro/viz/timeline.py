"""Per-core execution timelines from migration/wakeup events.

A compact textual rendering of "which task ran where", useful when reading
traces of the Overload-on-Wakeup bug: straggler threads hop between busy
cores while an idle core sits untouched (the paper's Figure 3 narrative).
The trace must record migrations (``TraceProbe(record_migrations=True)``):
the Figure 3 experiment's own trace holds only runqueue-size and wakeup
events, so its migration counts here read zero.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.viz.events import MigrationEvent, TraceBuffer, WakeupEvent


def task_placements(trace: TraceBuffer) -> Dict[int, List[Tuple[int, int]]]:
    """Per-task ordered (time_us, cpu) placement history."""
    history: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for event in trace:
        if isinstance(event, WakeupEvent):
            history[event.tid].append((event.time_us, event.cpu))
        elif isinstance(event, MigrationEvent):
            history[event.tid].append((event.time_us, event.dst_cpu))
    for tid in history:
        history[tid].sort()
    return history


def migration_counts(trace: TraceBuffer) -> Dict[int, int]:
    """Number of migrations per task."""
    counts: Dict[int, int] = defaultdict(int)
    for event in trace.of_type(MigrationEvent):
        counts[event.tid] += 1
    return dict(counts)


def wakeup_busy_fraction(trace: TraceBuffer) -> float:
    """Fraction of wakeups landing on already-busy cores.

    The Overload-on-Wakeup signature: high under the bug while idle cores
    exist, low after the fix.
    """
    wakeups = trace.of_type(WakeupEvent)
    if not wakeups:
        return 0.0
    busy = sum(1 for w in wakeups if not w.was_idle)
    return busy / len(wakeups)


def render_task_timeline(
    trace: TraceBuffer, tid: int, width: int = 72
) -> str:
    """One text line showing a task's core over time (digits = core id).

    Cores are rendered modulo 10 with a caret row marking migrations.
    """
    placements = task_placements(trace).get(tid, [])
    if not placements:
        return f"tid {tid}: no placement events"
    t0 = placements[0][0]
    t1 = max(placements[-1][0], t0 + 1)
    cells = ["."] * width
    marks = [" "] * width
    prev_cpu = None
    for time_us, cpu in placements:
        pos = min(int((time_us - t0) / (t1 - t0) * (width - 1)), width - 1)
        cells[pos] = str(cpu % 10)
        if prev_cpu is not None and cpu != prev_cpu:
            marks[pos] = "^"
        prev_cpu = cpu
    return (
        f"tid {tid:5d} |{''.join(cells)}|\n"
        f"          |{''.join(marks)}| (^ = migration, digits = core%10)"
    )
