"""Runtime coherence-sanitizer tests: clean soaks and seeded drift.

The sanitizer (``SchedFeatures.sanitize_coherence``) checks the
fast-path coherence contract at runtime: every memo hit recomputes the
value from scratch and raises :class:`CoherenceError` naming the
divergent field.  These tests prove both directions -- real scenarios
soak clean, and each seeded un-bumped mutation trips at the next hit.
"""

import math

import pytest

from repro.experiments import figure2, table2
from repro.experiments.harness import ExperimentConfig, schedule_digest
from repro.experiments.scenarios import build_bug_scenario
from repro.sched import balance as lb
from repro.sched import runqueue as rq_module
from repro.sched import wakeup as wk
from repro.sched.features import SchedFeatures
from repro.sched.sanitizer import CoherenceError
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


def _drift_queue_load(monkeypatch):
    """Plant a one-ulp drift in the one-frame miss-path summation."""
    real = rq_module.queue_load

    def drifted(entries, curr, now, running):
        value, invariant = real(entries, curr, now, running)
        return (math.nextafter(value, math.inf) if value else value), invariant

    monkeypatch.setattr(rq_module, "queue_load", drifted)


def test_trips_on_drifted_miss_summation(monkeypatch):
    """Every load-memo miss is recomputed from ``Task.load``: a drift in
    the summation that fills the memo raises at the miss itself."""
    _drift_queue_load(monkeypatch)
    sched = Scheduler(two_nodes(cores_per_node=4), sanitized(SchedFeatures()))
    sched.enqueue_task_on(Task("a"), 0, 0)
    sched.enqueue_task_on(Task("b"), 0, 0)
    rq = sched.cpus[0].rq
    with pytest.raises(CoherenceError) as exc:
        rq.load(1000)  # a miss: nothing memoized at this key yet
    assert exc.value.accessor == "runqueue-load"
    assert exc.value.field == "load"
    assert rq.load_cache_hits == 0


def test_unsanitized_miss_drift_goes_unnoticed(monkeypatch):
    _drift_queue_load(monkeypatch)
    sched = Scheduler(two_nodes(cores_per_node=4), SchedFeatures())
    sched.enqueue_task_on(Task("a"), 0, 0)
    rq = sched.cpus[0].rq
    assert rq.load(1000) != rq.all_tasks()[0].load(1000)


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


# ------------------------------------------------- wake- and fork-heavy


#: Smoke scale of the report trials (the e2e benchmark's smoke size).
TRIAL_SCALE = 0.005


def _sanitized_digest_pair(config, run):
    plain = run(config)
    checked = run(config.with_features(config.features.with_sanitizer()))
    return plain, checked


@pytest.mark.parametrize("fixes", [(), ("overload_on_wakeup",)])
def test_sanitized_tpch_q18_keeps_its_schedule(fixes):
    """A wake-heavy report trial: dispatches, load-memo misses and (with
    the wakeup fix) the longest-idle scan, all under the sanitizer."""
    config = ExperimentConfig(
        SchedFeatures().with_fixes(*fixes), seed=42, scale=TRIAL_SCALE
    )

    def run(cfg):
        _seconds, system = table2._run_tpch_system(cfg, "q18", repeats=1)
        return schedule_digest(system)

    plain, checked = _sanitized_digest_pair(config, run)
    assert checked == plain


def test_sanitized_make_and_r_keeps_its_schedule():
    """The Figure 2 make+R trial forks every compile job: the fork
    descent's placement scans run under the sanitizer."""
    config = ExperimentConfig(SchedFeatures(), seed=42, scale=TRIAL_SCALE)

    def run(cfg):
        return figure2.run_make_and_r(cfg, traced=False).schedule_digest

    plain, checked = _sanitized_digest_pair(config, run)
    assert checked == plain
