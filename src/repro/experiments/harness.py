"""Shared experiment plumbing: configuration, scaling, repetition."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Sequence

from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import SEC
from repro.topology import amd_bulldozer_64
from repro.topology.machine import MachineTopology

#: Seed stride between repetitions of the same experiment (a prime, so
#: repetition seeds never collide across nearby base seeds).
SEED_STRIDE = 1009


def positive_scale(value: object, name: str) -> float:
    """``value`` as a scale factor, or ``ValueError`` naming ``name``.

    The one rule for ``REPRO_SCALE`` and every ``--scale``: a positive
    finite number.  The message echoes the input as given.
    """
    try:
        scale = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a number such as 0.25, got {value!r}"
        ) from None
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(
            f"{name} must be a positive finite number, got {value!r}"
        )
    return scale


def quick_scale(default: float = 1.0) -> float:
    """Experiment scale factor; ``REPRO_SCALE`` overrides (e.g. 0.25)."""
    value = os.environ.get("REPRO_SCALE")
    if value is None or value.strip() == "":
        return default
    return positive_scale(value, "REPRO_SCALE")


@dataclass(frozen=True)
class ExperimentConfig:
    """Machine + scheduler configuration for one experiment run."""

    features: SchedFeatures
    seed: int = 42
    scale: float = 1.0
    deadline_us: int = 600 * SEC
    topology_factory: Callable[[], MachineTopology] = amd_bulldozer_64
    #: Attach an observability session to every built system, so tables
    #: can report wakeup-to-run latency percentiles (``system.obs``).
    obs: bool = False

    def with_features(self, features: SchedFeatures) -> "ExperimentConfig":
        """A copy with a different scheduler configuration."""
        return replace(self, features=features)

    def with_obs(self, obs: bool = True) -> "ExperimentConfig":
        """A copy with observability on (or off)."""
        return replace(self, obs=obs)

    def build_system(self) -> System:
        """A fresh simulated machine for this configuration."""
        system = System(
            self.topology_factory(), self.features, seed=self.seed
        )
        if self.obs:
            from repro.obs import ObsSession

            system.obs = ObsSession.attach_to(system)
        return system


def node_cpuset(
    topology: MachineTopology, nodes: Sequence[int]
) -> FrozenSet[int]:
    """``numactl --cpunodebind`` analog: the CPU set of the given nodes."""
    return topology.cpus_of_nodes(list(nodes))


def repetition_seeds(base_seed: int, repetitions: int) -> List[int]:
    """The seed sequence one averaged experiment cell repeats over.

    This is *the* seed schedule of the repetition loop -- both the serial
    :func:`averaged` helper and the orchestrator's sharded trial specs
    derive their seeds from it, which is what keeps a ``--jobs 4`` run's
    numbers byte-identical to the historical serial ones.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    return [base_seed + SEED_STRIDE * i for i in range(repetitions)]


def averaged(
    run: Callable[[int], float],
    repetitions: int = 1,
    base_seed: int = 42,
) -> float:
    """Mean of ``run(seed)`` over varied seeds (the paper averages 5 runs)."""
    values: List[float] = [
        run(seed) for seed in repetition_seeds(base_seed, repetitions)
    ]
    return statistics.mean(values)


def schedule_digest(system: System) -> str:
    """SHA-256 fingerprint of a finished run's schedule.

    Folds in the counters any scheduling difference must perturb --
    virtual completion time, events fired, migrations, balancing calls,
    and every CPU's accumulated busy time -- all integers, so the digest
    is stable across platforms and float formatting.  Two runs of the
    same trial spec must produce the same digest no matter how many
    worker processes the orchestrator used; this is the equivalence
    witness behind the ``-jN`` guarantees.
    """
    payload = {
        "now_us": system.now,
        "events_fired": system.loop.events_fired,
        "migrations": system.scheduler.total_migrations,
        "balance_calls": system.scheduler.balance_calls,
        "busy_time_us": [cpu.busy_time_us for cpu in system.scheduler.cpus],
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def system_stats(system: System) -> Dict[str, int]:
    """A finished run's integer counters (for trial-result accounting)."""
    return {
        "sim_us": system.now,
        "events_fired": system.loop.events_fired,
        "migrations": system.scheduler.total_migrations,
        "balance_calls": system.scheduler.balance_calls,
    }


def speedup(time_with_bug: float, time_without_bug: float) -> float:
    """Table 1/3's speedup factor: buggy time over fixed time."""
    if time_without_bug <= 0:
        raise ValueError("fixed time must be positive")
    return time_with_bug / time_without_bug


def improvement_pct(baseline: float, improved: float) -> float:
    """Table 2's improvement: negative percentage = faster than baseline."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (improved - baseline) / baseline * 100.0
