"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import amd_bulldozer_64, single_node, two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec
from repro.workloads.cpubound import periodic_task


@pytest.fixture
def small_system():
    """A 2-node, 8-core machine with the buggy scheduler, autogroups off."""
    return System(
        two_nodes(cores_per_node=4),
        SchedFeatures().without_autogroup(),
        seed=1,
    )


@pytest.fixture
def uma_system():
    """A single-node 4-core machine (no NUMA effects)."""
    return System(single_node(4), SchedFeatures().without_autogroup(), seed=1)


@pytest.fixture
def bulldozer():
    """The paper's 64-core machine topology."""
    return amd_bulldozer_64()


def hog_spec(name: str = "hog", total_us=None, **kwargs) -> TaskSpec:
    """An endless (or bounded) CPU burner."""

    def factory():
        def program():
            if total_us is None:
                while True:
                    yield Run(5 * MS)
            else:
                remaining = total_us
                while remaining > 0:
                    chunk = min(5 * MS, remaining)
                    remaining -= chunk
                    yield Run(chunk)

        return program()

    return TaskSpec(name=name, program=factory, **kwargs)


def sleeper_spec(
    name: str = "sleeper",
    run_us: int = 1 * MS,
    sleep_us: int = 1 * MS,
    cycles: int = 10,
    **kwargs,
) -> TaskSpec:
    """A run/sleep cycler."""

    def factory():
        def program():
            for _ in range(cycles):
                yield Run(run_us)
                yield Sleep(sleep_us)

        return program()

    return TaskSpec(name=name, program=factory, **kwargs)


def build_soak64(
    features: SchedFeatures = SchedFeatures(), seed: int = 7
) -> System:
    """The 64-CPU soak: 48 hogs forked from scattered parents plus 32
    endless 1 ms run / 2 ms sleep cyclers, so balancing never settles and
    the sleepers keep the event heap full of cancellable wakeups."""
    system = System(amd_bulldozer_64(), features, seed=seed)
    for i in range(48):
        system.spawn(hog_spec(f"hog{i}"), parent_cpu=(i * 7) % 64)
    for i in range(32):
        system.spawn(
            periodic_task(f"sleep{i}", 1 * MS, 2 * MS),
            parent_cpu=(i * 5) % 64,
        )
    return system
