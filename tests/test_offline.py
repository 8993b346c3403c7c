"""Tests for offline trace analysis and trace serialization."""

import pytest

from repro.core.offline import (
    find_trace_violations,
    load_trace,
    save_trace,
    violation_time_fraction,
)
from repro.viz.events import (
    BalanceEvent,
    ConsideredEvent,
    LifecycleEvent,
    LoadEvent,
    MigrationEvent,
    NrRunningEvent,
    TraceBuffer,
    WakeupEvent,
)


def trace_of(*events):
    buffer = TraceBuffer(1000)
    for e in events:
        buffer.append(e)
    return buffer


def test_no_events_no_violations():
    assert find_trace_violations(TraceBuffer(10), 4) == []


def test_simple_violation_interval():
    # cpu0 holds 2 threads from t=0 to t=500k while cpu1 stays at 0.
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(0, 1, 0),
        NrRunningEvent(500_000, 0, 1),
    )
    violations = find_trace_violations(trace, 2, min_duration_us=100_000)
    assert len(violations) == 1
    v = violations[0]
    assert v.start_us == 0
    assert v.end_us == 500_000
    assert v.duration_us == 500_000
    assert v.idle_cpus == (1,)
    assert v.overloaded_cpus == (0,)
    assert "overloaded" in v.describe()


def test_short_violation_filtered():
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(50_000, 0, 1),
    )
    assert find_trace_violations(trace, 2, min_duration_us=100_000) == []
    assert len(find_trace_violations(trace, 2, min_duration_us=10_000)) == 1


def test_violation_requires_both_conditions():
    # Overloaded but no idle core.
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(0, 1, 1),
        NrRunningEvent(900_000, 0, 2),
    )
    assert find_trace_violations(trace, 2, min_duration_us=1000) == []


def test_interrupted_violation_splits_intervals():
    trace = trace_of(
        NrRunningEvent(0, 0, 2),        # violation starts (cpu1 idle)
        NrRunningEvent(200_000, 1, 1),  # cpu1 gets work: violation ends
        NrRunningEvent(300_000, 1, 0),  # violation resumes
        NrRunningEvent(600_000, 0, 0),  # ends
    )
    violations = find_trace_violations(trace, 2, min_duration_us=50_000)
    assert [(v.start_us, v.end_us) for v in violations] == [
        (0, 200_000),
        (300_000, 600_000),
    ]


def test_open_violation_closed_at_horizon():
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(0, 1, 0),
    )
    violations = find_trace_violations(
        trace, 2, min_duration_us=100_000, end_us=1_000_000
    )
    assert violations[0].end_us == 1_000_000


def test_equal_timestamps_keep_each_cpus_largest_value():
    # Two values of cpu0 at t=0: the sort puts 2 last, so cpu0 is
    # overloaded (not idle) from the start.
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(0, 0, 0),
        NrRunningEvent(0, 1, 0),
        NrRunningEvent(10, 0, 1),
    )
    violations = find_trace_violations(trace, 2, min_duration_us=1)
    assert [(v.start_us, v.end_us, v.idle_cpus, v.overloaded_cpus)
            for v in violations] == [(0, 10, (1,), (0,))]


def test_violation_time_fraction():
    trace = trace_of(
        NrRunningEvent(0, 0, 2),
        NrRunningEvent(500_000, 0, 1),
        NrRunningEvent(999_999, 0, 1),
    )
    frac = violation_time_fraction(trace, 2, span_us=1_000_000)
    assert frac == pytest.approx(0.5, abs=0.01)
    assert violation_time_fraction(trace, 2, span_us=0) == 0.0


def test_json_roundtrip(tmp_path):
    events = [
        NrRunningEvent(1, 0, 2),
        LoadEvent(2, 1, 512.5),
        ConsideredEvent(3, 0, "load_balance", frozenset({0, 1, 2})),
        MigrationEvent(4, 42, 0, 1, "balance:MC"),
        WakeupEvent(5, 42, 1, 0, True),
        LifecycleEvent(6, 42, "exit", 1),
        BalanceEvent(7, 0, "MC", 1.5, 3.5, "moved:1"),
        BalanceEvent(8, 0, "MC", 1.5, None, "balanced"),
    ]
    trace = trace_of(*events)
    path = str(tmp_path / "trace.jsonl")
    assert save_trace(trace, path) == len(events)
    loaded = load_trace(path)
    assert list(loaded) == events


def test_load_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(trace_of(NrRunningEvent(1, 0, 1)), str(path))
    path.write_text(path.read_text() + "\n\n")
    assert len(load_trace(str(path))) == 1


def test_roundtrip_then_analyze(tmp_path):
    trace = trace_of(
        NrRunningEvent(0, 0, 3),
        NrRunningEvent(400_000, 0, 1),
    )
    path = str(tmp_path / "t.jsonl")
    save_trace(trace, path)
    violations = find_trace_violations(load_trace(path), 2,
                                       min_duration_us=100_000)
    assert len(violations) == 1
