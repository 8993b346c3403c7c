"""Observability must be free when off and invisible when on.

Mirrors ``repro.experiments.overhead``: paired runs of one benchmark
workload, comparing (a) nothing attached, (b) a metrics-only session, and
(c) a full metrics+trace session.  No configuration may perturb the
schedule, and a session must not make the runqueues sum loads that no
consumer reads.  Wall-clock overhead is never asserted: on a shared host
its noise exceeds any bound worth setting.
"""

from repro.obs import ObsSession
from repro.sim.system import System
from repro.sim.timebase import MS, SEC
from repro.topology.presets import two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec

_THREADS = 48
_HORIZON_US = SEC // 2


def _spawn_benchmark(system):
    # Everything forks on CPU 0 so load balancing has real work to do;
    # a run with zero migrations would make the transparency assertions
    # vacuous.
    for i in range(_THREADS):
        if i % 3 == 0:
            def factory(i=i):
                def program():
                    while True:
                        yield Run(2 * MS)
                        yield Sleep(1 * MS)
                return program()
        else:
            def factory(i=i):
                def program():
                    while True:
                        yield Run(5 * MS)
                return program()
        system.spawn(TaskSpec(f"bench-{i}", factory), parent_cpu=0)


def _run(mode):
    """One benchmark run.

    Returns (migrations, virtual_now, load_summations); the last is every
    runqueue's load-memo miss count, i.e. how many times a queue's load
    was actually summed.
    """
    system = System(two_nodes(cores_per_node=4))
    obs = None
    if mode == "metrics":
        obs = ObsSession.attach_to(system)
    elif mode == "session":
        obs = ObsSession.attach_to(system, trace=True)
    _spawn_benchmark(system)
    system.run_for(_HORIZON_US)
    if obs is not None:
        obs.close()
    summations = sum(cpu.rq.load_cache_misses for cpu in system.scheduler.cpus)
    return system.scheduler.total_migrations, system.now, summations


def test_observation_does_not_perturb_the_schedule():
    results = {mode: _run(mode) for mode in ("plain", "session")}
    migrations = {mode: r[0] for mode, r in results.items()}
    assert migrations["plain"] > 0
    assert migrations["plain"] == migrations["session"]
    nows = {r[1] for r in results.values()}
    assert len(nows) == 1


def test_session_sums_no_load_nobody_reads():
    # No obs consumer handles load samples, so a session must leave the
    # runqueues' load summation exactly as the plain run has it.
    plain = _run("plain")
    metrics = _run("metrics")
    assert metrics[2] == plain[2] > 0
    assert metrics[:2] == plain[:2]


def test_full_session_records_without_changing_migration_count():
    # Not a bounded-overhead claim (metrics recording is allowed to cost
    # real time) -- only that an attached session actually records.
    system = System(two_nodes(cores_per_node=4))
    obs = ObsSession.attach_to(system)
    _spawn_benchmark(system)
    system.run_for(_HORIZON_US)
    obs.close()
    recorded = obs.metrics.get("sched_migrations_total").total()
    assert recorded == system.scheduler.total_migrations > 0
