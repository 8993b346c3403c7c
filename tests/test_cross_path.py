"""Whole-workload cross-path gate: the reference path against the fast path.

The simulator has two execution paths: the reference path
(``SchedFeatures().with_fastpath(False)``: per-call folds and scans, no
``VecState`` mirror, no skip gates) and the default fast path.  Every
fast-path shortcut must leave the schedule exactly as the reference path
builds it, so the reference path is this file's oracle.  Four parts:

1. soak64 and the eight bug scenarios run on both paths; their traced
   event streams and their untraced end states must be identical, and a
   failure names the first divergent event; the eight scenarios are
   traced once more with considered-cores records on, which covers the
   records each path emits;
2. every trial of ``repro report`` runs as is and with the
   ``fastpath_off`` feature token, and each pair of schedule digests
   must be equal;
3. exact call counts of ``periodic_balance`` and ``_fast_idle_sibling``
   on both paths, so a fast path that silently stops engaging (or starts
   doing extra work) fails deterministically, with no wall-clock read,
   and a probe that records considered cores must leave the fast
   wakeup's count as it is untraced;
4. a vacuity guard: a change planted in reference-only code must make
   part 1's helper report a divergence.

The features alone pick the path; a probe picks only what is recorded.
Part 1's main comparison still records no considered-cores records: a
probe that consumes considered or balance records
(``Probe.wants_balance``) keeps every attempt the nothing-to-pull gate
(``balance.nothing_to_pull``) would skip, so only an untraced or
considered-off run reaches that gate.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.experiments import reportgen
from repro.experiments.harness import schedule_digest
from repro.experiments.scenarios import BUG_NAMES, build_bug_scenario
from repro.perf.orchestrator import run_trials
from repro.sched import balance, wakeup
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.slo.replay import diff_events, serialize_buffer
from repro.viz.events import ConsideredEvent, TraceBuffer, TraceProbe
from tests.conftest import build_soak64

HORIZON_US = 250 * MS
SOAK64 = "soak64"
SOAK_SEED = 7
BUG_SEED = 1234
SCENARIOS = [f"{bug}:{variant}" for bug in BUG_NAMES
             for variant in ("buggy", "fixed")]
WORKLOADS = [SOAK64, *SCENARIOS]

#: The functions part 3 counts, as (module, attribute).
COUNTED = ((balance, "periodic_balance"), (wakeup, "_fast_idle_sibling"))

#: Exact untraced call counts, by (workloads, fastpath): soak64 alone,
#: and the eight scenarios summed.
COUNTS: Dict[Tuple[str, bool], Dict[str, int]] = {
    (SOAK64, True): {"periodic_balance": 6526, "_fast_idle_sibling": 2656},
    (SOAK64, False): {"periodic_balance": 14688, "_fast_idle_sibling": 0},
    ("scenarios", True): {"periodic_balance": 7965, "_fast_idle_sibling": 124},
    ("scenarios", False): {"periodic_balance": 30304,
                           "_fast_idle_sibling": 0},
}


def _run(workload: str, fastpath: bool,
         probe: Optional[TraceProbe] = None) -> System:
    """One finished ``HORIZON_US`` run of ``workload`` on one path."""
    if workload == SOAK64:
        system = build_soak64(
            SchedFeatures().with_fastpath(fastpath), seed=SOAK_SEED
        )
        if probe is not None:
            system.attach_probe(probe)
        system.run_for(HORIZON_US)
        return system
    bug, variant = workload.split(":")
    scenario = build_bug_scenario(
        bug, variant, seed=BUG_SEED,
        instrument=None if probe is None else (lambda s: s.attach_probe(probe)),
        features_transform=lambda f: f.with_fastpath(fastpath),
    )
    scenario.run(HORIZON_US)
    return scenario.system


def _stream(workload: str, fastpath: bool,
            considered: bool = False) -> List[Dict[str, object]]:
    buffer = TraceBuffer()
    probe = TraceProbe(buffer=buffer, record_load=False,
                       record_considered=considered)
    # Without considered records the nothing-to-pull gate stays on.
    assert probe.wants_balance is considered
    _run(workload, fastpath, probe)
    assert not buffer.dropped, f"{workload}: trace buffer overflowed"
    return serialize_buffer(buffer)


def stream_divergence(workload: str,
                      considered: bool = False) -> Optional[str]:
    """None when both paths trace ``workload`` identically; otherwise the
    first divergent event of each path."""
    reference = _stream(workload, False, considered)
    fast = _stream(workload, True, considered)
    at = diff_events(reference, fast)
    if at is None:
        return None

    def event(stream: List[Dict[str, object]]) -> object:
        return stream[at] if at < len(stream) else "<end of stream>"

    return (f"{workload}: first divergent event #{at} of "
            f"{len(reference)}: reference={event(reference)!r} "
            f"fast={event(fast)!r}")


def _end_state(system: System) -> Tuple[str, List[Tuple[int, ...]]]:
    return schedule_digest(system), [
        (task.tid, task.vruntime, task.stats.total_runtime_us,
         task.stats.migrations, task.stats.wakeups)
        for task in system.spawned
    ]


def _counted(counts: Counter, name: str, fn: Any) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def untraced() -> Dict[Tuple[str, bool], Tuple[Any, Counter]]:
    """(workload, fastpath) -> (end state, ``COUNTED`` call counts) of a
    probe-free run."""
    runs = {}
    for workload in WORKLOADS:
        for fastpath in (False, True):
            counts: Counter = Counter()
            with pytest.MonkeyPatch.context() as mp:
                for owner, name in COUNTED:
                    mp.setattr(owner, name,
                               _counted(counts, name, getattr(owner, name)))
                system = _run(workload, fastpath)
            runs[workload, fastpath] = (_end_state(system), counts)
    return runs


# -- part 1: whole workloads, reference against fast ------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_streams_agree(workload):
    divergence = stream_divergence(workload)
    assert divergence is None, divergence


def test_considered_streams_agree():
    divergences = [d for d in (stream_divergence(w, considered=True)
                               for w in SCENARIOS) if d is not None]
    assert not divergences, "\n".join(divergences)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_end_states_agree(untraced, workload):
    reference, _ = untraced[workload, False]
    fast, _ = untraced[workload, True]
    assert fast[0] == reference[0], f"{workload}: schedule digests differ"
    assert len(fast[1]) == len(reference[1]), f"{workload}: task counts differ"
    for want, got in zip(reference[1], fast[1]):
        assert got == want, (
            f"{workload}: task {want[0]} (tid, vruntime, runtime, "
            f"migrations, wakeups): reference={want} fast={got}"
        )


# -- part 2: every report trial on both paths -------------------------------


def test_report_trials_agree_with_fastpath_off():
    specs = [spec for _, section in reportgen.report_sections(0.02)
             for spec in section]
    assert len(specs) == 50
    reference = [
        dataclasses.replace(spec, features=spec.features + ("fastpath_off",))
        for spec in specs
    ]
    fast_run = run_trials(specs, jobs=1, cache=None)
    reference_run = run_trials(reference, jobs=1, cache=None)
    differing = [
        f"#{i} {fast.spec.label}"
        for i, (fast, ref) in enumerate(
            zip(fast_run.outcomes, reference_run.outcomes)
        )
        if fast.result.schedule_digest != ref.result.schedule_digest
    ]
    assert not differing, f"fast and reference paths differ on: {differing}"


# -- part 3: exact call counts ----------------------------------------------


def test_call_counts(untraced):
    measured: Dict[Tuple[str, bool], Counter] = {}
    for fastpath in (True, False):
        measured[SOAK64, fastpath] = untraced[SOAK64, fastpath][1]
        measured["scenarios", fastpath] = sum(
            (untraced[w, fastpath][1] for w in SCENARIOS), Counter()
        )
    for key, want in COUNTS.items():
        got = measured[key]
        assert {name: got[name] for name in want} == want, key
    for workloads in (SOAK64, "scenarios"):
        assert (measured[workloads, True]["periodic_balance"]
                < measured[workloads, False]["periodic_balance"])


def test_considered_records_leave_the_fast_wakeup_on():
    counts: Counter = Counter()
    name = "_fast_idle_sibling"
    probe = TraceProbe(record_load=False, record_considered=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wakeup, name,
                   _counted(counts, name, getattr(wakeup, name)))
        _run(SOAK64, True, probe)
    assert probe.buffer.of_type(ConsideredEvent)
    assert counts[name] == COUNTS[SOAK64, True][name]


# -- part 4: the gate can fail ----------------------------------------------


def test_reference_only_change_is_caught(monkeypatch):
    # Elect the last idle candidate instead of the first, on the
    # reference path only: part 1 must see the schedules part.
    def last_idle_cpu(sched, domain, cpu_id):
        try:
            group = domain.local_group(cpu_id)
        except ValueError:
            return -1
        online = sorted(
            c for c in group.balance_mask() if sched.cpus[c].online
        )
        idle = [c for c in online if sched.cpus[c].is_idle]
        return idle[-1] if idle else (online[0] if online else -1)

    # designated_cpu is the reference walk's election; the fast path
    # elects through VecState's memo and never calls it.
    monkeypatch.setattr(balance, "designated_cpu", last_idle_cpu)
    for workload in SCENARIOS:
        divergence = stream_divergence(workload)
        if divergence is not None:
            assert "first divergent event #" in divergence
            return
    pytest.fail("a reference-only change left every scenario identical")
