"""Runtime coherence-sanitizer tests: clean soaks and seeded drift.

The sanitizer (``SchedFeatures.sanitize_coherence``) is the dynamic half
of the fast-path coherence contract: every memo hit recomputes the value
from scratch and raises :class:`CoherenceError` naming the divergent
field.  These tests prove both directions -- real scenarios soak clean,
and each seeded un-bumped mutation (the exact bug class the static
``coherence-unbumped-write`` rule flags) trips at the next hit.
"""

import pytest

from repro.experiments.scenarios import build_bug_scenario
from repro.sched import balance as lb
from repro.sched import wakeup as wk
from repro.sched.features import SchedFeatures
from repro.sched.sanitizer import FACTS, CoherenceError
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.topology import two_nodes

ALL_BUGS = (
    "group-imbalance",
    "group-construction",
    "overload-on-wakeup",
    "missing-domains",
)

SOAK_US = 100_000  # 0.1 simulated seconds per scenario keeps CI quick


def sanitized(features: SchedFeatures) -> SchedFeatures:
    return features.with_sanitizer()


def build(bug, variant="buggy"):
    return build_bug_scenario(bug, variant, features_transform=sanitized)


# ------------------------------------------------------------- feature flag


def test_with_sanitizer_flag():
    f = SchedFeatures().with_fastpath(False).with_sanitizer()
    assert f.sanitize_coherence
    # Sanitizing checks memo hits, so it forces the fast path on.
    assert f.fastpath
    off = f.with_sanitizer(False)
    assert not off.sanitize_coherence
    assert not SchedFeatures().sanitize_coherence


def test_facts_cover_every_accessor():
    assert set(FACTS) == {
        "runqueue-load", "group-stats", "designated-balancer",
        "overload-gate",
    }
    for deps in FACTS.values():
        assert deps  # an accessor with no dependencies caches a constant


# -------------------------------------------------------------- clean soaks


@pytest.mark.parametrize("bug", ALL_BUGS)
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
def test_sanitizer_soak_clean(bug, variant):
    """The shipped tree's bump discipline survives a sanitized soak."""
    scenario = build(bug, variant)
    scenario.run(SOAK_US)  # raises CoherenceError on any drift
    assert scenario.system.now >= SOAK_US


def test_sanitizer_does_not_change_behavior():
    plain = build_bug_scenario("group-imbalance", "buggy")
    checked = build("group-imbalance", "buggy")
    plain.run(SOAK_US)
    checked.run(SOAK_US)
    assert (
        checked.system.scheduler.total_migrations
        == plain.system.scheduler.total_migrations
    )
    assert checked.system.now == plain.system.now


# ------------------------------------------------------------ seeded drift


def test_trips_on_unbumped_nr_running_write():
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    rq = scenario.system.scheduler.cpus[0].rq
    rq._nr_running += 1  # the mutation-without-bump bug class
    with pytest.raises(CoherenceError) as exc:
        scenario.run(SOAK_US // 2)
    assert exc.value.field == "_nr_running"
    assert exc.value.accessor == "runqueue-load"


def test_trips_on_divisor_staleness():
    """A direct CGroup mutation (bypassing the manager's epoch bumps)
    leaves cached queue loads stale; the next same-timestamp hit trips."""
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    sched = scenario.system.scheduler
    now = scenario.system.now
    rq = task = None
    for cpu in sched.cpus:
        for t in cpu.rq.all_tasks():
            if t.cgroup is not None and t.cgroup.nr_threads > 2:
                rq, task = cpu.rq, t
                break
        if rq is not None:
            break
    assert rq is not None, "scenario should have a populated autogroup"
    rq.load(now)  # prime the memo at this timestamp
    task.cgroup.discard(task)  # divisor shrinks; no epoch bump
    with pytest.raises(CoherenceError) as exc:
        rq.load(now)  # hit: key unchanged, value stale
    assert exc.value.accessor == "runqueue-load"
    assert exc.value.field == "load"


def test_trips_on_unbumped_hotplug():
    """Flipping ``Cpu.online`` without the idle-epoch bump leaves the
    designated-balancer memo electing an offline CPU."""
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    sched = scenario.system.scheduler
    vstate = sched.vec_pass(scenario.system.now)
    domains = sched.domain_builder.domains_of(0)
    group = None
    for domain in reversed(domains):
        local = domain.local_group(0)
        if len(local.sorted_balance_mask()) > 1:
            group = local
            break
    assert group is not None, "need a multi-CPU balance mask"
    winner = vstate.designated_for(group)
    assert winner >= 0
    sched.cpus[winner].online = False  # no sched.set_cpu_online, no bump
    with pytest.raises(CoherenceError) as exc:
        vstate.designated_for(group)  # memo hit cross-checks the election
    assert exc.value.accessor == "designated-balancer"
    sched.cpus[winner].online = True


def test_trips_on_group_stats_drift():
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    sched = scenario.system.scheduler
    vstate = sched.vec_pass(scenario.system.now)
    domains = sched.domain_builder.domains_of(0)
    group = domains[-1].local_group(0)
    vstate.group_stats(group)  # prime the fold memo
    victim = sched.cpus[group.sorted_cpus()[0]].rq
    victim._nr_running += 1  # un-bumped: no dirty mark, memo stays keyed
    with pytest.raises(CoherenceError):
        vstate.group_stats(group)
    victim._nr_running -= 1


def test_trips_on_stale_balance_gate():
    """A gate armed past a due level this CPU wins hides a walk: the
    tick, which skips the CPU without calling periodic_balance, trips."""
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    sched = scenario.system.scheduler
    cpu_id = next(c.cpu_id for c in sched.cpus if c.rq.curr is not None)
    # The bottom level is always won (a one-CPU mask), and half a
    # second on it is long past due.
    later = scenario.system.now + 500_000
    sched.vec._gate[cpu_id] = later + 1  # planted: no disarm, no walk
    with pytest.raises(CoherenceError) as exc:
        sched.tick(later)
    assert exc.value.accessor == "balance-gate"
    assert f"cpu {cpu_id}" in exc.value.field


def test_trips_on_stale_balance_gate_in_nohz_sweep():
    """The NOHZ due-sweep passes over a planted gate of an idle CPU; the
    sanitizer re-elects the CPU's levels there too."""
    scenario = build("group-imbalance")
    scenario.run(SOAK_US // 2)
    sched = scenario.system.scheduler
    idle = [c.cpu_id for c in sched.cpus if c.is_idle]
    assert idle, "scenario should leave some CPU idle"
    cpu_id = idle[-1]
    later = scenario.system.now + 500_000
    sched.vec._gate[cpu_id] = later + 1
    with pytest.raises(CoherenceError) as exc:
        lb.nohz_idle_balance(
            sched, idle[0], later, bpass=sched.vec_pass(later)
        )
    assert exc.value.accessor == "balance-gate"
    assert f"cpu {cpu_id}" in exc.value.field


def test_trips_on_stale_idle_sibling():
    """An idle LLC sibling missing from the topology's sibling tuple."""
    sched = Scheduler(two_nodes(cores_per_node=4), sanitized(SchedFeatures()))
    for cpu_id in (0, 1):
        sched.enqueue_task_on(Task(f"busy{cpu_id}"), cpu_id, 0)
        sched.pick_next_task(cpu_id, 0)
    task = Task("waker")
    sched.register_task(task)
    assert wk._select_idle_sibling(sched, task, 0, 1000) == 2
    topo = sched.topology
    # Planted on this instance only: the tables are shared per shape.
    llc = list(topo._llc)
    llc[0] = tuple(c for c in llc[0] if c != 2)
    topo._llc = llc
    with pytest.raises(CoherenceError) as exc:
        wk._select_idle_sibling(sched, task, 0, 1000)
    assert exc.value.accessor == "idle-sibling"
    assert "cpu 0" in exc.value.field
    assert (exc.value.cached, exc.value.fresh) == (3, 2)
