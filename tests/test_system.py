"""Tests for the simulator executor (System)."""

from dataclasses import dataclass

import pytest

from repro.sched.task import TaskState
from repro.sim.engine import SimulationError
from repro.sim.system import System
from repro.sim.timebase import MS, SEC
from repro.topology import single_node, two_nodes
from repro.sched.features import SchedFeatures
from repro.workloads.base import Exit, Phase, Run, Spawn, TaskSpec

from tests.conftest import hog_spec, sleeper_spec


def test_single_task_runs_to_completion(uma_system):
    task = uma_system.spawn(hog_spec(total_us=10 * MS))
    assert uma_system.run_until_done([task], 1 * SEC)
    assert task.state is TaskState.EXITED
    assert task.stats.total_runtime_us == 10 * MS


def test_work_conservation_near_exact(uma_system):
    """N x W of work on C cores takes ~N*W/C wall time (tail stragglers
    may idle a core for a tick or two, like real CFS)."""
    tasks = [
        uma_system.spawn(hog_spec(f"h{i}", total_us=50 * MS))
        for i in range(8)
    ]
    assert uma_system.run_until_done(tasks, 10 * SEC)
    ideal = 8 * 50 * MS // 4  # 100 ms on 4 cores
    assert ideal <= uma_system.now <= ideal * 1.03
    assert all(t.stats.total_runtime_us == 50 * MS for t in tasks)


def test_sleep_wake_cycle(uma_system):
    task = uma_system.spawn(sleeper_spec(cycles=5))
    assert uma_system.run_until_done([task], 1 * SEC)
    assert task.stats.wakeups == 5
    assert task.stats.total_runtime_us == 5 * MS


def test_preemption_splits_runtime(uma_system):
    """Two pinned hogs on one core share it via tick preemption."""
    pin = frozenset({0})
    a = uma_system.spawn(
        hog_spec("a", total_us=20 * MS, allowed_cpus=pin), on_cpu=0
    )
    b = uma_system.spawn(
        hog_spec("b", total_us=20 * MS, allowed_cpus=pin), on_cpu=0
    )
    assert uma_system.run_until_done([a, b], 1 * SEC)
    assert uma_system.now == 40 * MS
    assert a.stats.preemptions > 0 or b.stats.preemptions > 0


def test_phase_progress_preserved_across_preemption(uma_system):
    """A Run phase interrupted mid-way completes with exact total time."""
    pin = frozenset({0})

    def one_long_phase():
        def program():
            yield Run(15 * MS)
        return program()

    long_task = uma_system.spawn(
        TaskSpec("long", one_long_phase, allowed_cpus=pin), on_cpu=0
    )
    # A competitor forces preemptions.
    uma_system.spawn(hog_spec("comp", total_us=15 * MS, allowed_cpus=pin),
                     on_cpu=0)
    assert uma_system.run_until_done([long_task], 1 * SEC)
    assert long_task.stats.total_runtime_us == 15 * MS


def test_explicit_exit_phase(uma_system):
    def program_factory():
        def program():
            yield Run(1 * MS)
            yield Exit()
            yield Run(100 * MS)  # unreachable
        return program()

    task = uma_system.spawn(TaskSpec("quit", program_factory))
    assert uma_system.run_until_done([task], 1 * SEC)
    assert task.stats.total_runtime_us == 1 * MS


def test_spawn_phase_creates_child(uma_system):
    children_spec = hog_spec("child", total_us=2 * MS)

    def parent_factory():
        def program():
            yield Run(1 * MS)
            yield Spawn(children_spec)
            yield Run(1 * MS)
        return program()

    parent = uma_system.spawn(TaskSpec("parent", parent_factory))
    uma_system.run_for(100 * MS)
    names = [t.name for t in uma_system.spawned]
    assert names.count("child") == 1
    child = [t for t in uma_system.spawned if t.name == "child"][0]
    assert child.state is TaskState.EXITED
    assert parent.state is TaskState.EXITED


def test_spawn_on_cpu_forces_placement(small_system):
    task = small_system.spawn(hog_spec(), on_cpu=5)
    assert task.cpu == 5


def test_spawn_tty_creates_autogroup():
    system = System(single_node(2), SchedFeatures(), seed=1)
    task = system.spawn(hog_spec(tty="ttyX"))
    assert task.cgroup.name == "autogroup:ttyX"


def test_spawn_cgroup_by_name(uma_system):
    spec = hog_spec()
    spec.cgroup = "mygroup"
    a = uma_system.spawn(spec)
    b = uma_system.spawn(spec)
    assert a.cgroup is b.cgroup
    assert a.cgroup.nr_threads == 2


def test_zero_duration_run_phases_skipped(uma_system):
    def factory():
        def program():
            for _ in range(10):
                yield Run(0)
            yield Run(1 * MS)
        return program()

    task = uma_system.spawn(TaskSpec("zeros", factory))
    assert uma_system.run_until_done([task], 1 * SEC)
    assert task.stats.total_runtime_us == 1 * MS


def test_runaway_zero_phase_program_detected(uma_system):
    def factory():
        def program():
            while True:
                yield Run(0)
        return program()

    with pytest.raises(SimulationError):
        # The dispatch happens during spawn's drain.
        uma_system.spawn(TaskSpec("runaway", factory))


@dataclass(frozen=True)
class _TimedRun(Run):
    """A phase type the interpreter has no entry for: a Run subclass."""

    label: str = "timed"


def test_phase_subclass_runs_as_its_base(uma_system):
    def factory():
        def program():
            yield _TimedRun(2 * MS)
            yield Run(1 * MS)
        return program()

    task = uma_system.spawn(TaskSpec("subclassed", factory))
    assert uma_system.run_until_done([task], 1 * SEC)
    assert task.stats.total_runtime_us == 3 * MS


def test_unknown_phase_raises(uma_system):
    class Nap(Phase):
        pass

    def factory():
        def program():
            yield Run(1 * MS)
            yield Nap()
        return program()

    uma_system.spawn(TaskSpec("napper", factory))
    with pytest.raises(SimulationError, match="unknown phase"):
        uma_system.run_for(10 * MS)


def test_run_until_absolute(uma_system):
    uma_system.run_until(5 * MS)
    assert uma_system.now == 5 * MS
    uma_system.run_for(5 * MS)
    assert uma_system.now == 10 * MS


def test_hotplug_offline_displaces_running_task(small_system):
    task = small_system.spawn(hog_spec(), on_cpu=2)
    small_system.run_for(2 * MS)
    small_system.hotplug_cpu(2, False)
    assert not small_system.cpu(2).online
    assert task.alive
    assert task.cpu != 2
    small_system.run_for(5 * MS)
    assert task.stats.total_runtime_us > 0


def test_hotplug_reenable(small_system):
    small_system.hotplug_cpu(2, False)
    small_system.hotplug_cpu(2, True)
    assert small_system.cpu(2).online
    # The re-enabled core can host work again.
    task = small_system.spawn(hog_spec(), on_cpu=2)
    small_system.run_for(2 * MS)
    assert task.stats.total_runtime_us > 0


def test_hotplug_without_state_change_is_noop():
    """Onlining an online (busy) core, or offlining an offline one,
    changes nothing: no tickless/idle stamp on a busy CPU, no rebuild."""
    system = System(two_nodes(), SchedFeatures(), seed=1)
    builder = system.scheduler.domain_builder
    system.spawn(hog_spec(), on_cpu=1)
    system.run_for(3 * MS)
    cpu = system.cpu(1)
    assert cpu.rq.curr is not None
    idle_since, tickless = cpu.idle_since_us, cpu.tickless
    generation = builder.generation
    system.hotplug_cpu(1, True)
    assert cpu.rq.curr is not None
    assert (cpu.idle_since_us, cpu.tickless) == (idle_since, tickless)
    assert not cpu.tickless
    assert builder.generation == generation
    assert not builder.hotplug_happened

    system.hotplug_cpu(2, False)
    generation = builder.generation
    system.hotplug_cpu(2, False)
    assert builder.generation == generation
    assert system.scheduler.set_cpu_online(2, False, system.now) == []
    builder.set_cpu_online(2, False)
    assert builder.generation == generation


def test_attach_detach_probe(small_system):
    from repro.viz.events import TraceProbe

    probe = TraceProbe()
    small_system.attach_probe(probe)
    small_system.spawn(hog_spec(total_us=2 * MS))
    small_system.run_for(5 * MS)
    assert len(probe.buffer) > 0
    small_system.detach_probe(probe)
    size = len(probe.buffer)
    small_system.spawn(hog_spec(total_us=2 * MS))
    small_system.run_for(5 * MS)
    assert len(probe.buffer) == size


def test_attach_probe_requires_fanout():
    from repro.viz.events import Probe

    system = System(single_node(2), probe=Probe(), seed=1)
    with pytest.raises(TypeError):
        system.attach_probe(Probe())


def test_determinism_same_seed():
    def run_once():
        system = System(
            two_nodes(cores_per_node=2),
            SchedFeatures().without_autogroup(),
            seed=7,
        )
        tasks = [
            system.spawn(sleeper_spec(f"s{i}", cycles=20))
            for i in range(6)
        ]
        system.run_until_done(tasks, 5 * SEC)
        return (
            system.now,
            system.scheduler.total_migrations,
            [t.stats.total_runtime_us for t in tasks],
        )

    assert run_once() == run_once()


def test_tick_hooks_called(uma_system):
    seen = []
    uma_system.tick_hooks.append(seen.append)
    uma_system.run_for(5 * MS)
    assert seen == [1 * MS, 2 * MS, 3 * MS, 4 * MS, 5 * MS]


def test_repr(uma_system):
    assert "System(" in repr(uma_system)
