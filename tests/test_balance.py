"""Tests for the load balancer (the paper's Algorithm 1)."""

import pytest

from repro.sched import balance as lb
from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.topology import single_node, two_nodes

BUGGY = SchedFeatures().without_autogroup()
GI_FIXED = SchedFeatures().with_fixes("group_imbalance").without_autogroup()


def make_sched(features=BUGGY, topo=None):
    return Scheduler(topo or two_nodes(cores_per_node=4), features)


class OnBothPaths:
    """Runs a class's tests on the fast path; a subclass that sets
    ``fastpath = False`` runs them again on the reference path.  The
    scheduler's features pick the balancer's path, so each test builds
    its scheduler through :meth:`make_sched`."""

    fastpath = True

    def make_sched(self, features=BUGGY, topo=None):
        return make_sched(features.with_fastpath(self.fastpath), topo)


def add_queued(sched, cpu_id, name=None, nice=0, allowed=None):
    """Enqueue a runnable (not running) task."""
    task = Task(name or f"q{cpu_id}", nice=nice, allowed_cpus=allowed)
    sched.register_task(task)
    sched.cpus[cpu_id].rq.enqueue(task, 0)
    return task


def add_running(sched, cpu_id, name=None, nice=0):
    task = Task(name or f"r{cpu_id}", nice=nice)
    sched.register_task(task)
    rq = sched.cpus[cpu_id].rq
    rq.enqueue(task, 0)
    rq.dispatch(task, 0)
    sched.cpus[cpu_id].mark_busy(0)
    return task


class TestGroupStats:
    def test_stats_aggregate_loads(self):
        sched = make_sched()
        add_running(sched, 0)
        add_queued(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        local = domain.local_group(0)
        stats = lb.compute_group_stats(sched, local, 0)
        assert stats.nr_running == 2
        assert stats.capacity == 4
        assert stats.max_load > stats.min_load == 0.0
        assert stats.avg_load == pytest.approx(stats.max_load / 4)

    def test_overloaded_flag(self):
        sched = make_sched()
        for _ in range(5):
            add_queued(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.local_group(0), 0)
        assert stats.overloaded  # 5 tasks > 4 cpus

    def test_imbalanced_flag(self):
        sched = make_sched()
        add_queued(sched, 0)
        add_queued(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.local_group(0), 0)
        assert stats.imbalanced  # 2 on one cpu, 0 on another

    def test_offline_cpus_excluded(self):
        sched = make_sched()
        sched.set_cpu_online(1, False, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.local_group(0), 0)
        assert 1 not in stats.cpus


class TestGroupMetric:
    def test_buggy_uses_average(self):
        sched = make_sched(BUGGY)
        add_running(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.local_group(0), 0)
        assert lb.group_metric(sched, stats) == stats.avg_load

    def test_fixed_uses_minimum(self):
        sched = make_sched(GI_FIXED)
        add_running(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.local_group(0), 0)
        assert lb.group_metric(sched, stats) == stats.min_load == 0.0


class TestFindBusiestGroup(OnBothPaths):
    def test_balanced_when_equal(self):
        sched = self.make_sched()
        domain = sched.domain_builder.domains_of(0)[-1]
        busiest, local = lb.find_busiest_group(sched, domain, 0, 0)
        assert busiest is None
        assert local is not None

    def test_group_imbalance_scenario(self):
        """The Section 3.1 pathology, reduced: a high-load thread on the
        local node masks its idle cores under the average metric; the
        minimum metric sees through it."""
        topo = two_nodes(cores_per_node=4)
        for features, expect_steal in ((BUGGY, False), (GI_FIXED, True)):
            sched = self.make_sched(features, two_nodes(cores_per_node=4))
            # Local node: one huge thread (nice -15), three idle cores.
            add_running(sched, 0, nice=-15)
            # Remote node: two normal threads per core (overloaded).
            for cpu in range(4, 8):
                add_running(sched, cpu)
                add_queued(sched, cpu)
            domain = sched.domain_builder.domains_of(1)[-1]
            busiest, _ = lb.find_busiest_group(sched, domain, 1, 0)
            assert (busiest is not None) == expect_steal

    def test_overloaded_group_preferred(self):
        sched = self.make_sched()
        # Node 1: overloaded (6 tasks on 4 cpus).
        for cpu in range(4, 8):
            add_running(sched, cpu)
        add_queued(sched, 4)
        add_queued(sched, 5)
        domain = sched.domain_builder.domains_of(0)[-1]
        busiest, _ = lb.find_busiest_group(sched, domain, 0, 0)
        assert busiest is not None
        assert busiest.overloaded


class TestFindBusiestGroupReference(TestFindBusiestGroup):
    fastpath = False


class TestPickBusiestCpu:
    def test_prefers_highest_load_with_queued_work(self):
        sched = make_sched()
        add_running(sched, 4)
        add_queued(sched, 4)
        add_running(sched, 5)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(
            sched, domain.groups[1], 0
        )
        assert lb.pick_busiest_cpu(sched, stats, frozenset(), 0) == 4

    def test_skips_cpu_without_queued_tasks(self):
        sched = make_sched()
        add_running(sched, 4)  # running only: not stealable
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.groups[1], 0)
        assert lb.pick_busiest_cpu(sched, stats, frozenset(), 0) is None

    def test_skips_mid_dispatch_cpu(self):
        """A queue with one task and no runner is mid-dispatch, not
        overloaded."""
        sched = make_sched()
        add_queued(sched, 4)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.groups[1], 0)
        assert lb.pick_busiest_cpu(sched, stats, frozenset(), 0) is None

    def test_mid_dispatch_with_two_queued_is_fair_game(self):
        sched = make_sched()
        add_queued(sched, 4)
        add_queued(sched, 4)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.groups[1], 0)
        assert lb.pick_busiest_cpu(sched, stats, frozenset(), 0) == 4

    def test_excluded_cpus_skipped(self):
        sched = make_sched()
        add_running(sched, 4)
        add_queued(sched, 4)
        domain = sched.domain_builder.domains_of(0)[-1]
        stats = lb.compute_group_stats(sched, domain.groups[1], 0)
        assert (
            lb.pick_busiest_cpu(sched, stats, frozenset({4}), 0) is None
        )


class TestMoveTasks:
    def test_moves_to_idle_destination(self):
        sched = make_sched()
        add_running(sched, 0)
        task = add_queued(sched, 0)
        moved = lb.move_tasks(sched, 0, 2, 0, "test", budget=2048.0)
        assert moved == 1
        assert task.cpu == 2
        assert task.stats.migrations == 1

    def test_respects_affinity(self):
        """Algorithm 1 lines 20-22: pinned tasks cannot move."""
        sched = make_sched()
        add_running(sched, 0)
        add_queued(sched, 0, allowed=frozenset({0, 1}))
        assert lb.move_tasks(sched, 0, 4, 0, "test", budget=2048.0) == 0

    def test_does_not_overshoot(self):
        sched = make_sched()
        add_running(sched, 0)
        for _ in range(3):
            add_queued(sched, 0)
        lb.move_tasks(sched, 0, 2, 0, "test", budget=4096.0)
        # Destination never ends up busier than the source.
        assert (
            sched.cpus[2].rq.nr_running <= sched.cpus[0].rq.nr_running + 1
        )


class TestBalanceDomainTasksets(OnBothPaths):
    def test_excludes_pinned_cpu_and_tries_next(self):
        """The taskset retry: busiest cpu's tasks are pinned; the next
        busiest cpu of the group must be tried."""
        sched = self.make_sched()
        # cpu4: heavy but pinned to node 1.  cpu5: movable work.
        add_running(sched, 4, nice=-10)
        add_queued(sched, 4, allowed=frozenset(range(4, 8)), name="pinned")
        add_queued(sched, 4, allowed=frozenset(range(4, 8)), name="pinned2")
        add_running(sched, 5)
        add_queued(sched, 5, name="movable")
        add_queued(sched, 5, name="movable2")
        domain = sched.domain_builder.domains_of(0)[-1]
        moved = lb.balance_domain(sched, domain, 0, 0)
        assert moved >= 1
        movable = sched.tasks
        assert any(
            t.name.startswith("movable") and t.cpu == 0
            for t in movable.values()
        )


class TestBalanceDomainTasksetsReference(TestBalanceDomainTasksets):
    fastpath = False


class TestDesignatedCpu:
    def test_first_idle_of_local_group(self):
        sched = make_sched()
        add_running(sched, 0)
        domain = sched.domain_builder.domains_of(0)[-1]
        # Local group of cpu 0 = node 0; first idle is cpu 1.
        assert lb.designated_cpu(sched, domain, 0) == 1

    def test_first_cpu_when_all_busy(self):
        sched = make_sched()
        for cpu in range(4):
            add_running(sched, cpu)
        domain = sched.domain_builder.domains_of(2)[-1]
        assert lb.designated_cpu(sched, domain, 2) == 0

    def test_unknown_cpu_returns_sentinel(self):
        sched = make_sched()
        domain = sched.domain_builder.domains_of(0)[0]
        assert lb.designated_cpu(sched, domain, 7) == -1


class TestPeriodicBalance(OnBothPaths):
    def test_respects_interval(self):
        sched = self.make_sched(topo=single_node(2))
        add_running(sched, 0)
        add_queued(sched, 0)
        add_running(sched, 1)
        add_queued(sched, 1)
        # cpu0 is designated (first of its group) and balances at t=0...
        moved_first = lb.periodic_balance(sched, 0, 0)
        # ...but not again before the interval elapsed.
        add_queued(sched, 1)
        assert lb.periodic_balance(sched, 0, 100) == 0
        assert lb.periodic_balance(sched, 0, 100, force=True) >= 0
        del moved_first

    def test_steals_to_idle_designated(self):
        sched = self.make_sched(topo=single_node(2))
        add_running(sched, 0)
        task = add_queued(sched, 0)
        # Levels first become due one interval after boot.
        moved = lb.periodic_balance(sched, 1, 10_000)
        assert moved == 1
        assert task.cpu == 1
        assert 1 in sched.pending_dispatch


class TestPeriodicBalanceReference(TestPeriodicBalance):
    fastpath = False


class TestNewidleBalance:
    def test_pulls_from_overloaded_neighbor(self):
        sched = make_sched(topo=single_node(2))
        add_running(sched, 0)
        task = add_queued(sched, 0)
        moved = lb.newidle_balance(sched, 1, 0)
        assert moved == 1
        assert task.cpu == 1


class TestNohz(OnBothPaths):
    def test_kick_target_is_lowest_tickless_idle(self):
        sched = self.make_sched()
        add_running(sched, 0)
        assert lb.nohz_kick_target(sched) == 1

    def test_no_target_when_all_busy(self):
        sched = self.make_sched(topo=single_node(2))
        add_running(sched, 0)
        add_running(sched, 1)
        assert lb.nohz_kick_target(sched) is None

    def test_idle_balance_on_behalf(self):
        sched = self.make_sched(topo=single_node(4))
        add_running(sched, 0)
        for _ in range(3):
            add_queued(sched, 0)
        moved = lb.nohz_idle_balance(sched, 1, 10_000)
        assert moved >= 2  # spread to several idle cpus
        assert sched.cpus[1].nohz_balancer


class TestNohzReference(TestNohz):
    fastpath = False
