"""Tests for the Section-5 modular-scheduler prototype."""

from dataclasses import replace

import pytest

from repro.modular import (
    CacheAffinityModule,
    InvariantGuardedScheduler,
    LeastLoadedModule,
    ModularSystem,
    OptimizationModule,
    Suggestion,
)
from repro.sched.features import SchedFeatures
from repro.sched.task import Task, TaskState
from repro.sim.timebase import MS, SEC
from repro.topology import two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec

from tests.conftest import hog_spec

FEATURES = SchedFeatures().without_autogroup()


def sleepy_spec(cycles=100):
    def factory():
        def program():
            for _ in range(cycles):
                yield Run(1 * MS)
                yield Sleep(1 * MS)
        return program()

    return TaskSpec("sleepy", factory)


def make_guarded(modules, topo=None):
    return InvariantGuardedScheduler(
        topo or two_nodes(cores_per_node=2), FEATURES, modules=modules
    )


def occupy(sched, cpu_id):
    task = Task(f"occ{cpu_id}")
    sched.register_task(task)
    sched.enqueue_task_on(task, cpu_id, 0)
    sched.pick_next_task(cpu_id, 0)
    return task


def sleeper(sched, prev_cpu):
    task = Task("sleeper")
    sched.register_task(task)
    task.prev_cpu = prev_cpu
    task.state = TaskState.SLEEPING
    return task


class TestModules:
    def test_cache_affinity_prefers_idle_prev(self):
        sched = make_guarded([])
        task = sleeper(sched, prev_cpu=1)
        suggestion = CacheAffinityModule().suggest_wakeup(sched, task, 0, 0)
        assert suggestion.cpu == 1
        assert suggestion.confidence > 0.8

    def test_cache_affinity_llc_fallback(self):
        sched = make_guarded([])
        occupy(sched, 1)
        task = sleeper(sched, prev_cpu=1)
        suggestion = CacheAffinityModule().suggest_wakeup(sched, task, 0, 0)
        assert suggestion.cpu == 0  # idle core of the same node

    def test_cache_affinity_buggy_insists_on_busy_prev(self):
        sched = make_guarded([])
        occupy(sched, 0)
        occupy(sched, 1)
        task = sleeper(sched, prev_cpu=1)
        buggy = CacheAffinityModule(node_restricted=True)
        polite = CacheAffinityModule(node_restricted=False)
        assert buggy.suggest_wakeup(sched, task, 0, 0).cpu == 1
        assert polite.suggest_wakeup(sched, task, 0, 0) is None

    def test_cache_affinity_abstains_without_prev(self):
        sched = make_guarded([])
        task = Task("new")
        sched.register_task(task)
        assert CacheAffinityModule().suggest_wakeup(sched, task, 0, 0) is None

    def test_least_loaded_picks_global_minimum(self):
        sched = make_guarded([])
        occupy(sched, 0)
        occupy(sched, 1)
        task = sleeper(sched, prev_cpu=0)
        suggestion = LeastLoadedModule().suggest_wakeup(sched, task, 0, 0)
        assert suggestion.cpu in (2, 3)

    def test_least_loaded_respects_affinity(self):
        sched = make_guarded([])
        task = sleeper(sched, prev_cpu=0)
        task.set_affinity(frozenset({3}))
        assert LeastLoadedModule().suggest_wakeup(sched, task, 0, 0).cpu == 3

    def test_base_module_abstains(self):
        sched = make_guarded([])
        task = sleeper(sched, prev_cpu=0)
        assert OptimizationModule().suggest_wakeup(sched, task, 0, 0) is None


class TestInvariantGuard:
    @pytest.mark.parametrize("state", ["queued", "running"])
    def test_waking_a_task_on_a_runqueue_raises(self, state):
        """The guarded wakeup keeps the base scheduler's state check: a
        task already on a runqueue is never queued on a second one."""
        sched = make_guarded([LeastLoadedModule()])
        task = Task("twice")
        sched.register_task(task)
        sched.enqueue_task_on(task, 0, 0)
        if state == "running":
            assert sched.pick_next_task(0, 0) is task
        with pytest.raises(ValueError, match="cannot wake"):
            sched.wake_task(task, 0, 0)
        holders = [c.cpu_id for c in sched.cpus if task in c.rq.all_tasks()]
        assert holders == [0]
        assert not sched.decisions
        assert task.stats.wakeups == 0

    def test_feasible_suggestion_accepted(self):
        sched = make_guarded([CacheAffinityModule()])
        task = sleeper(sched, prev_cpu=1)
        target = sched.wake_task(task, 0, 0)
        assert target == 1
        assert sched.decisions[-1].source == "cache-affinity"
        assert sched.module_placements == 1

    def test_guard_overrides_busy_suggestion(self):
        """The buggy module insists on a busy core; the guard refuses and
        places on the longest-idle core instead."""
        sched = make_guarded([CacheAffinityModule(node_restricted=True)])
        occupy(sched, 0)
        occupy(sched, 1)
        task = sleeper(sched, prev_cpu=1)
        target = sched.wake_task(task, 0, 0)
        assert target in (2, 3)  # the other node's idle cores
        assert sched.decisions[-1].source == "guard-override"
        assert sched.guard_overrides == 1

    def test_busy_suggestion_ok_when_no_idle_core(self):
        sched = make_guarded([CacheAffinityModule(node_restricted=True)])
        for cpu in range(4):
            occupy(sched, cpu)
        task = sleeper(sched, prev_cpu=1)
        target = sched.wake_task(task, 0, 0)
        assert target == 1
        assert sched.decisions[-1].source == "cache-affinity"

    def test_fallback_without_modules(self):
        sched = make_guarded([])
        task = sleeper(sched, prev_cpu=1)
        sched.wake_task(task, 0, 0)
        assert sched.decisions[-1].source == "fallback"

    def test_higher_confidence_module_wins(self):
        class Fixed(OptimizationModule):
            def __init__(self, name, cpu, confidence):
                self.name = name
                self._s = Suggestion(cpu, "fixed", confidence)

            def suggest_wakeup(self, sched, task, waker_cpu, now):
                return self._s

        sched = make_guarded([Fixed("low", 2, 0.2), Fixed("high", 3, 0.9)])
        task = sleeper(sched, prev_cpu=0)
        assert sched.wake_task(task, 0, 0) == 3
        assert sched.decisions[-1].source == "high"

    def test_decision_summary(self):
        sched = make_guarded([])
        assert "no wakeup decisions" in sched.decision_summary()
        task = sleeper(sched, prev_cpu=0)
        sched.wake_task(task, 0, 0)
        assert "1 wakeups" in sched.decision_summary()


class TestModularSystemEndToEnd:
    def _run(self, modules, seed=6):
        features = replace(FEATURES, balance_base_us=10 * SEC)
        system = ModularSystem(
            two_nodes(cores_per_node=4), features, modules=modules,
            seed=seed,
        )
        for i in range(4):
            system.spawn(
                hog_spec(f"hog{i}", allowed_cpus=frozenset({i})), on_cpu=i
            )
        system.run_for(10 * MS)
        sleepy = system.spawn(sleepy_spec(300), on_cpu=0)
        system.run_for(1 * SEC)
        return system, sleepy

    def test_guard_neutralizes_buggy_module(self):
        """Even with only the buggy cache module, the guarded core keeps
        the machine work-conserving (the Section 5 punchline).  A single
        override re-homes the thread to the idle node; from then on the
        module's own suggestion (idle previous core) is feasible."""
        system, sleepy = self._run(
            [CacheAffinityModule(node_restricted=True)]
        )
        busy_fraction = (
            sleepy.stats.wakeups_on_busy_core / max(sleepy.stats.wakeups, 1)
        )
        assert busy_fraction < 0.1
        assert system.guarded.module_placements >= 250

    def test_module_pair_needs_no_overrides(self):
        """With a contention module available, its feasible suggestion is
        taken and the guard never fires."""
        system, sleepy = self._run(
            [CacheAffinityModule(node_restricted=True), LeastLoadedModule()]
        )
        busy_fraction = (
            sleepy.stats.wakeups_on_busy_core / max(sleepy.stats.wakeups, 1)
        )
        assert busy_fraction < 0.1
        assert system.guarded.guard_overrides == 0
        assert system.guarded.module_placements > 100

    def test_guarded_accessor(self):
        system, _ = self._run([])
        assert isinstance(system.guarded, InvariantGuardedScheduler)
