"""Trace recording and replay regression-diffing.

``record`` runs one compiled trial spec with the scheduler event stream
captured and writes it to a versioned JSONL file; ``replay`` re-drives
the *same spec* through the engine (rebuilt from the recording's header,
exactly as a pool worker would) and diffs the fresh run against the
recording on three levels:

1. the schedule digest (the orchestrator's equivalence witness),
2. the SLO metrics row (percentiles, jitter, miss rate, density),
3. the event stream itself, event by event, to name the **first
   divergent event** -- the thing a digest mismatch alone cannot do.

File format (version 1): line 1 is a header object carrying the format
version, the spec's canonical identity, the schedule digest, the SLO
row, and the event count; every following line is one serialized
scheduler event.  Events are canonicalized: float-valued fields are
dropped (they are derived load numbers, not schedule facts) and
frozensets become sorted lists, so a recording compares bytewise across
hosts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.perf.orchestrator import TrialResult, TrialSpec, resolve_kind
from repro.slo.registry import record_spec
from repro.viz.events import TraceBuffer

PathLike = Union[str, Path]

FORMAT_NAME = "repro-slo-trace"
FORMAT_VERSION = 1

#: Keys of the SLO row compared between a recording and its replay.
_METRIC_KEYS = (
    "wakeup_p50_us",
    "wakeup_p99_us",
    "wakeup_p999_us",
    "jitter_us",
    "deadline_miss_rate",
    "idle_overload_fraction",
    "samples",
)


def serialize_event(event: object) -> Dict[str, object]:
    """One trace record as a canonical JSON-able mapping.

    Float fields are dropped and frozensets become sorted lists, so the
    serialized stream is stable across float formatting and libm
    differences between hosts.
    """
    out: Dict[str, object] = {"type": type(event).__name__}
    for name, value in sorted(vars(event).items()):
        if isinstance(value, float):
            continue
        if isinstance(value, frozenset):
            value = sorted(value)
        out[name] = value
    return out


def serialize_buffer(buffer: TraceBuffer) -> List[Dict[str, object]]:
    return [serialize_event(event) for event in buffer]


def spec_from_canonical(data: Dict[str, Any]) -> TrialSpec:
    """Rebuild a :class:`TrialSpec` from its ``canonical()`` mapping."""
    return TrialSpec(
        kind=str(data["kind"]),
        scenario=str(data["scenario"]),
        seed=int(data["seed"]),
        features=tuple(data.get("features", ())),
        scale=float(data["scale"]),
        deadline_us=int(data.get("deadline_us", 0)),
        params=tuple(sorted(
            (str(k), str(v)) for k, v in data.get("params", {}).items()
        )),
        cache=False,
    )


def run_recording(spec: TrialSpec) -> Tuple[TrialResult, List[Dict[str, object]]]:
    """Execute one spec with recording forced on; returns (result, events)."""
    recording = record_spec(spec)
    result = resolve_kind(recording.kind)(recording)
    buffer = result.artifact
    if not isinstance(buffer, TraceBuffer):
        raise ValueError(
            f"trial kind {recording.kind!r} returned no trace buffer "
            "artifact; it does not support recording"
        )
    if buffer.dropped:
        raise ValueError(
            f"trace buffer overflowed ({buffer.dropped} events dropped); "
            "shrink the scenario before recording"
        )
    return result, serialize_buffer(buffer)


def write_trace(
    path: PathLike,
    spec: TrialSpec,
    result: TrialResult,
    events: List[Dict[str, object]],
) -> None:
    """Write one recording as versioned JSONL."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": spec.canonical(),
        "schedule_digest": result.schedule_digest,
        "slo": {k: result.row[k] for k in _METRIC_KEYS},
        "events": len(events),
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def record_trace(spec: TrialSpec, path: PathLike) -> TrialResult:
    """Record one trial spec's run to ``path``; returns the trial result."""
    result, events = run_recording(spec)
    write_trace(path, spec, result, events)
    return result


@dataclass
class RecordedTrace:
    """One parsed recording."""

    header: Dict[str, Any]
    events: List[Dict[str, object]]

    @property
    def spec(self) -> TrialSpec:
        return spec_from_canonical(self.header["spec"])

    @property
    def schedule_digest(self) -> str:
        return str(self.header["schedule_digest"])


def read_trace(path: PathLike) -> RecordedTrace:
    """Parse a recording, validating format name and version.

    Raises ``OSError`` when the file cannot be read, and ``ValueError``
    naming the file when it is not a recording this build reads.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {header.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    if header.get("events") != len(events):
        raise ValueError(
            f"{path}: header promises {header.get('events')} events, "
            f"file has {len(events)} (truncated recording?)"
        )
    return RecordedTrace(header=header, events=events)


@dataclass
class ReplayDiff:
    """The three-level diff of one recording against a fresh replay."""

    path: str
    scenario: str
    digest_match: bool
    #: ``metric -> (recorded, replayed)`` for every differing SLO field.
    metric_deltas: Dict[str, Tuple[object, object]] = field(
        default_factory=dict
    )
    #: Index of the first differing event (None when streams agree).
    first_divergence: Optional[int] = None
    recorded_event: Optional[Dict[str, object]] = None
    replayed_event: Optional[Dict[str, object]] = None
    recorded_events: int = 0
    replayed_events: int = 0

    @property
    def divergent(self) -> bool:
        return (
            not self.digest_match
            or bool(self.metric_deltas)
            or self.first_divergence is not None
        )

    def format(self) -> str:
        lines = [
            f"{self.path} [{self.scenario}]: "
            + ("DIVERGED" if self.divergent else "identical")
        ]
        if not self.digest_match:
            lines.append("  schedule digest mismatch")
        for name, (recorded, replayed) in sorted(self.metric_deltas.items()):
            lines.append(
                f"  slo.{name}: recorded {recorded!r} != replayed "
                f"{replayed!r}"
            )
        if self.first_divergence is not None:
            lines.append(
                f"  first divergent event: #{self.first_divergence} "
                f"(recorded {self.recorded_events} events, replayed "
                f"{self.replayed_events})"
            )
            if self.recorded_event is not None:
                lines.append(f"    recorded: {self.recorded_event}")
            if self.replayed_event is not None:
                lines.append(f"    replayed: {self.replayed_event}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "scenario": self.scenario,
            "divergent": self.divergent,
            "digest_match": self.digest_match,
            "metric_deltas": {
                k: {"recorded": a, "replayed": b}
                for k, (a, b) in self.metric_deltas.items()
            },
            "first_divergence": self.first_divergence,
            "recorded_events": self.recorded_events,
            "replayed_events": self.replayed_events,
        }


def diff_events(
    recorded: List[Dict[str, object]],
    replayed: List[Dict[str, object]],
) -> Optional[int]:
    """Index of the first differing event; None when identical."""
    for i, (a, b) in enumerate(zip(recorded, replayed)):
        if a != b:
            return i
    if len(recorded) != len(replayed):
        return min(len(recorded), len(replayed))
    return None


def replay_trace(path: PathLike) -> ReplayDiff:
    """Re-drive one recording through the engine and diff the two runs."""
    trace = read_trace(path)
    spec = trace.spec
    result, events = run_recording(spec)

    metric_deltas: Dict[str, Tuple[object, object]] = {}
    recorded_slo = trace.header.get("slo", {})
    for key in _METRIC_KEYS:
        recorded = recorded_slo.get(key)
        replayed = result.row.get(key)
        if recorded != replayed:
            metric_deltas[key] = (recorded, replayed)

    divergence = diff_events(trace.events, events)
    recorded_event: Optional[Dict[str, object]] = None
    replayed_event: Optional[Dict[str, object]] = None
    if divergence is not None:
        if divergence < len(trace.events):
            recorded_event = trace.events[divergence]
        if divergence < len(events):
            replayed_event = events[divergence]
    return ReplayDiff(
        path=str(path),
        scenario=spec.scenario,
        digest_match=result.schedule_digest == trace.schedule_digest,
        metric_deltas=metric_deltas,
        first_divergence=divergence,
        recorded_event=recorded_event,
        replayed_event=replayed_event,
        recorded_events=len(trace.events),
        replayed_events=len(events),
    )


def trace_filename(spec: TrialSpec) -> str:
    """The conventional recording filename for one compiled trial spec."""
    variant = spec.param("variant", "base")
    return f"{spec.scenario}__{variant}__s{spec.seed}.trace.jsonl"
