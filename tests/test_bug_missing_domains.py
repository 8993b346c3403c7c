"""End-to-end reproduction of the Missing Scheduling Domains bug
(Section 3.4).

After a core is disabled and re-enabled via the /proc interface, the
cross-node domain regeneration step is dropped: threads stay on the node
where they were created, no matter how many there are.
"""

from repro.core.invariant import has_violation
from repro.core.sanity_checker import SanityChecker
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.stats.metrics import IdleOverloadSampler, node_busy_times
from repro.topology import two_nodes

from tests.conftest import hog_spec

BUGGY = SchedFeatures().without_autogroup()
FIXED = SchedFeatures().with_fixes("missing_domains").without_autogroup()
RUN_US = 300 * MS


def run_after_hotplug(features, nr_threads=8, hotplug=True, seed=4):
    system = System(two_nodes(cores_per_node=4), features, seed=seed)
    if hotplug:
        system.hotplug_cpu(2, False)
        system.hotplug_cpu(2, True)
    sampler = IdleOverloadSampler()
    sampler.attach(system)
    tasks = [
        system.spawn(hog_spec(f"t{i}"), parent_cpu=0)
        for i in range(nr_threads)
    ]
    system.run_for(RUN_US)
    return system, sampler, tasks


def test_bug_pins_everything_to_one_node():
    system, sampler, _ = run_after_hotplug(BUGGY)
    busy = node_busy_times(system)
    assert busy[0] >= 3.9 * RUN_US
    assert busy[1] == 0
    assert sampler.violation_fraction > 0.9
    assert has_violation(system.scheduler, system.now)


def test_fix_restores_numa_balancing():
    system, sampler, _ = run_after_hotplug(FIXED)
    busy = node_busy_times(system)
    assert busy[1] >= 3.0 * RUN_US
    assert sampler.violation_fraction < 0.2


def test_no_hotplug_no_bug():
    """Without a hotplug cycle the buggy kernel balances normally."""
    system, sampler, _ = run_after_hotplug(BUGGY, hotplug=False)
    busy = node_busy_times(system)
    assert busy[1] >= 3.0 * RUN_US
    assert sampler.violation_fraction < 0.2


def test_fix_keeps_numa_levels_while_a_core_is_offline():
    """The fix regenerates the cross-node levels on every hotplug, also
    while the disabled core is still offline; the bug drops them."""
    online = set(range(8)) - {2}
    for features, spans_both_nodes in ((FIXED, True), (BUGGY, False)):
        system = System(two_nodes(cores_per_node=4), features, seed=4)
        system.hotplug_cpu(2, False)
        for cpu_id in (0, 5):
            top = system.scheduler.domain_builder.domains_of(cpu_id)[-1]
            assert (set(top.span) == online) is spans_both_nodes


def test_disabling_a_remote_core_still_triggers():
    """The paper: threads are confined 'even if the node they run on is
    not the same as that on which the core was disabled'."""
    system = System(two_nodes(cores_per_node=4), BUGGY, seed=4)
    system.hotplug_cpu(7, False)  # a node-1 core
    system.hotplug_cpu(7, True)
    for i in range(8):
        system.spawn(hog_spec(f"t{i}"), parent_cpu=0)
    system.run_for(RUN_US)
    busy = node_busy_times(system)
    assert busy[1] == 0


def test_sanity_checker_catches_it():
    system = System(two_nodes(cores_per_node=4), BUGGY, seed=4)
    system.hotplug_cpu(2, False)
    system.hotplug_cpu(2, True)
    checker = SanityChecker(
        check_interval_us=50 * MS, monitor_window_us=30 * MS
    )
    checker.attach(system)
    for i in range(8):
        system.spawn(hog_spec(f"t{i}"), parent_cpu=0)
    system.run_for(RUN_US)
    assert checker.bug_detected
    # Once detected, the profile shows every balancing call concluding
    # "balanced" (the domains that could fix it no longer exist).
    assert checker.reports[0].profile_failed_fraction == 1.0


def test_throughput_improvement_factor():
    _, _, tasks_buggy = run_after_hotplug(BUGGY)
    _, _, tasks_fixed = run_after_hotplug(FIXED)
    runtime_buggy = sum(t.stats.total_runtime_us for t in tasks_buggy)
    runtime_fixed = sum(t.stats.total_runtime_us for t in tasks_fixed)
    # 8 threads on 4 vs 8 cores: ~2x more CPU time with the fix.
    assert runtime_fixed >= 1.7 * runtime_buggy
