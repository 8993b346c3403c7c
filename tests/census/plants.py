"""The census of planted faults.

Every cache the fast path keeps (the runqueue load memo, the
``VecState`` load mirror and designated-balancer memo, the spare set)
stays coherent only because each mutator invalidates it at the right
place and each memo is reused only at its own key (timestamp, mutation
counters, divisor epoch), the fast busiest-group selection is right
only while the sanitizer holds it against the reference, and a scenario
file is only as good as the loader's checks of the references it names.
Each paper fix, too, is one decision point, and so is the fast wakeup's
idle check.  Each :class:`Plant` below disables one of those
invalidations, checks or fixes, drops a term of a memo key, or bends
the fast selection or wakeup, and names the tier-1 tests that must fail
once it is in, so a deletion that leaves one of them unguarded shows up
as a plant that got through.

``python -m tests.census.run`` applies every plant to a fresh copy of
the tree; ``tests/test_census.py`` checks in tier-1 that every planted
line and every named test still exists.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

RUNQUEUE = "src/repro/sched/runqueue.py::RunQueue."


class Plant(NamedTuple):
    """One planted fault: a single source line replaced."""

    #: ``path::Qualified.name``: the file (relative to the repository
    #: root) and the function the line lives in.
    site: str
    #: The exact source line, without its indentation; it must occur
    #: exactly once inside ``site``.
    line: str
    #: What the line becomes (the indentation is kept).
    replacement: str
    #: pytest node ids that pass on the tree and fail with the plant in.
    tests: Tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.site.split('::')[1]}: {self.line}"


MUTATIONS = "self.mutations += 1"
MARK_DIRTY = "self.vec.mark_dirty(self.cpu_id)"
MARK_IDLE = "self.vec.mark_idle_change(self.cpu_id)"
SPARE_ADD = "self.overload.add(self.cpu_id)"
SPARE_DISCARD = "self.overload.discard(self.cpu_id)"

VECSTATE = "tests/test_vecstate.py::"
SANITIZER = "tests/test_sanitizer.py::"
CROSS_BUGGY = (
    "tests/test_cross_path.py::"
    "test_untraced_end_states_agree[group-imbalance:buggy]"
)
SOAK_GI = SANITIZER + "test_sanitizer_soak_clean[buggy-group-imbalance]"
SOAK_WAKEUP = SANITIZER + "test_sanitizer_soak_clean[fixed-overload-on-wakeup]"
MAKE_AND_R = SANITIZER + "test_sanitized_make_and_r_keeps_its_schedule"
TPCH = SANITIZER + "test_sanitized_tpch_q18_keeps_its_schedule"
PICK_PATHS = (
    "tests/test_pick_tiebreak.py::"
    "test_pick_paths_schedule_identically_across_variants"
)
ZERO_COUNT = (
    "tests/test_overload_gate.py::"
    "test_zero_count_means_no_walk_can_move[mixed]"
)
GROUP_STATS_DRIFT = SANITIZER + "test_trips_on_group_stats_drift"
CLEAR_RECOUNT = (
    "tests/test_runqueue.py::"
    "test_clear_current_matches_a_from_scratch_recount"
)
MEMBERSHIP = (
    "tests/test_fastpath.py::"
    "test_load_memo_sees_group_membership_change_on_another_cpu"
)
OWN_TIMESTAMP = (
    "tests/test_fastpath.py::test_load_memo_holds_for_its_own_timestamp_only"
)
DANGLING = (
    "tests/test_slo_registry.py::"
    "test_load_scenario_rejects_dangling_reference"
)
LOAD_SCENARIO = "src/repro/slo/registry.py::load_scenario"
DOMAIN_BUILDER = "src/repro/sched/domains.py::DomainBuilder."


def _stales(mutator: str) -> str:
    return VECSTATE + f"test_every_mutator_stales_its_own_slot[{mutator}]"


def _reelected(leave: str) -> str:
    return VECSTATE + f"test_cpu_going_idle_is_reelected[{leave}]"


PLANTS: Tuple[Plant, ...] = (
    Plant(RUNQUEUE + "enqueue", MUTATIONS, "pass", (
        "tests/test_fastpath.py::test_load_cache_invalidated_by_mutation",
        CROSS_BUGGY,
        SOAK_GI,
    )),
    Plant(RUNQUEUE + "enqueue", MARK_DIRTY, "pass", (
        _stales("enqueue"),
        VECSTATE + "test_dirty_mark_resamples_only_after_mutation",
        "tests/test_fastpath.py::"
        "test_a_mutation_refolds_at_the_same_timestamp",
        CROSS_BUGGY,
    )),
    Plant(RUNQUEUE + "enqueue", MARK_IDLE, "pass", (
        VECSTATE + "test_designated_memo_tracks_election_on_idle_change",
        VECSTATE + "test_winner_gain_disarms_exactly_that_cpu_and_balances"
        "_like_reference",
        "tests/test_cross_path.py::"
        "test_untraced_end_states_agree[group-imbalance:fixed]",
    )),
    Plant(RUNQUEUE + "enqueue", SPARE_ADD, "pass", (
        "tests/test_balance.py::TestNewidleBalance::"
        "test_pulls_from_overloaded_neighbor",
        "tests/test_overload_gate.py::test_sanitizer_catches_a_drifted_count",
        "tests/test_invariant.py::test_violation_idle_plus_overloaded",
        SOAK_WAKEUP,
    )),
    Plant(RUNQUEUE + "take", MUTATIONS, "pass", (
        CROSS_BUGGY,
        SOAK_GI,
        "tests/test_bug_group_imbalance.py::test_bug_leaves_r_node_cores_idle",
    )),
    Plant(RUNQUEUE + "take", MARK_DIRTY, "pass", (
        _stales("take"),
        CROSS_BUGGY,
        SOAK_GI,
    )),
    Plant(RUNQUEUE + "take", MARK_IDLE, "pass", (
        _reelected("take"),
        _reelected("migrate"),
    )),
    Plant(RUNQUEUE + "take", SPARE_DISCARD, "pass", (
        ZERO_COUNT,
        SOAK_WAKEUP,
        TPCH + "[fixes0]",
    )),
    Plant(RUNQUEUE + "dispatch", MUTATIONS, "pass", (
        GROUP_STATS_DRIFT,
        "tests/test_determinism_trace.py::"
        "test_fastpath_caching_does_not_change_the_schedule"
        "[buggy-group-imbalance]",
        MAKE_AND_R,
    )),
    Plant(RUNQUEUE + "dispatch", MARK_DIRTY, "pass", (
        _stales("dispatch"),
        GROUP_STATS_DRIFT,
        MAKE_AND_R,
    )),
    Plant(RUNQUEUE + "clear_current", MUTATIONS, "pass", (
        CLEAR_RECOUNT,
        PICK_PATHS,
        TPCH + "[fixes0]",
    )),
    Plant(RUNQUEUE + "clear_current", MARK_DIRTY, "pass", (
        _stales("clear_current"),
        PICK_PATHS,
    )),
    Plant(RUNQUEUE + "clear_current", MARK_IDLE, "pass", (
        _reelected("deschedule"),
        CLEAR_RECOUNT,
        PICK_PATHS,
        MAKE_AND_R,
    )),
    Plant(RUNQUEUE + "clear_current", SPARE_DISCARD, "pass", (
        ZERO_COUNT,
        CLEAR_RECOUNT,
        "tests/test_pick_tiebreak.py::"
        "test_pick_next_coherent_under_migration_and_hotplug",
        TPCH + "[fixes1]",
    )),
    Plant(
        "src/repro/sched/vecstate.py::VecState.find_busiest",
        "if m[6] <= m[11]:  # not overloaded",
        "if m[6] < m[11]:  # not overloaded",
        (
            SANITIZER + "test_sanitizer_soak_clean[fixed-group-imbalance]",
            TPCH + "[fixes0]",
            MAKE_AND_R,
        ),
    ),
    Plant(
        "src/repro/sched/vecstate.py::VecState.find_busiest",
        "if m is not None and m[1] == now and m[2] == version:",
        "if m is not None and m[1] == now:",
        (
            "tests/test_fastpath.py::"
            "test_a_mutation_refolds_at_the_same_timestamp",
            GROUP_STATS_DRIFT,
            SANITIZER + "test_sanitizer_soak_clean[fixed-group-imbalance]",
            CROSS_BUGGY,
        ),
    ),
    Plant(RUNQUEUE + "load", "self._cached_load_now == now", "True", (
        OWN_TIMESTAMP + "[0.5]",
        OWN_TIMESTAMP + "[1.0]",
        SOAK_GI,
        "tests/test_determinism_trace.py::"
        "test_fastpath_caching_does_not_change_the_schedule"
        "[buggy-overload-on-wakeup]",
    )),
    Plant(
        "src/repro/sched/cgroup.py::CGroupManager.attach",
        "self._divisor_epoch.bump()", "pass", (
            MEMBERSHIP + "[attach]",
            MAKE_AND_R,
        ),
    ),
    Plant(
        "src/repro/sched/cgroup.py::CGroupManager.detach",
        "self._divisor_epoch.bump()", "pass", (
            MEMBERSHIP + "[detach]",
            TPCH + "[fixes0]",
        ),
    ),
    Plant(
        "src/repro/sched/scheduler.py::Scheduler.set_cpu_online",
        "self.vec.on_topology_change()", "pass", (
            VECSTATE + "test_hotplug_cycle_reelects_over_the_new_domain_table",
            VECSTATE + "test_hotplug_drops_interned_indices_and_balance_plans",
            VECSTATE + "TestFastAnswers::runTest",
        ),
    ),
    # The four fixes' decision points: the Group Imbalance metric on
    # each path, per-perspective NUMA groups, the Overload-on-Wakeup
    # placement, and the cross-node levels rebuilt after hotplug.
    Plant(
        "src/repro/sched/balance.py::group_metric",
        "if sched.features.fix_group_imbalance:", "if False:", (
            "tests/test_balance.py::TestGroupMetric::test_fixed_uses_minimum",
            "tests/test_balance.py::TestFindBusiestGroupReference::"
            "test_group_imbalance_scenario",
            "tests/test_bug_group_imbalance.py::test_fix_fills_the_idle_cores",
            SANITIZER + "test_sanitizer_soak_clean[fixed-group-imbalance]",
        ),
    ),
    Plant(
        "src/repro/sched/vecstate.py::VecState.__init__",
        "self._use_min = sched.features.fix_group_imbalance",
        "self._use_min = False", (
            "tests/test_balance.py::TestFindBusiestGroup::"
            "test_group_imbalance_scenario",
            "tests/test_bug_group_imbalance.py::test_fix_fills_the_idle_cores",
            SANITIZER + "test_sanitizer_soak_clean[fixed-group-imbalance]",
            "tests/test_cross_path.py::"
            "test_untraced_end_states_agree[group-imbalance:fixed]",
        ),
    ),
    Plant(
        DOMAIN_BUILDER + "_numa_groups",
        "seed_order = [own_node] + [", "seed_order = sorted(span_nodes) + [", (
            "tests/test_domains.py::TestPaperGroupSets::"
            "test_fixed_groups_are_per_perspective",
            "tests/test_bug_group_construction.py::"
            "test_fix_spreads_across_both_nodes",
        ),
    ),
    Plant(
        "src/repro/sched/wakeup.py::_fix_active",
        "return features.fix_overload_on_wakeup and not "
        "features.power_aware_wakeup",
        "return False", (
            "tests/test_bug_overload_wakeup.py::"
            "test_fix_wakes_on_longest_idle_core",
            "tests/test_wakeup.py::TestFixedWake::"
            "test_longest_idle_core_when_prev_busy",
        ),
    ),
    Plant(
        DOMAIN_BUILDER + "_build_table",
        "self.hotplug_happened and not self.features.fix_missing_domains",
        "self.hotplug_happened", (
            "tests/test_bug_missing_domains.py::"
            "test_fix_keeps_numa_levels_while_a_core_is_offline",
            SANITIZER + "test_sanitizer_soak_clean[fixed-missing-domains]",
        ),
    ),
    # The fast wakeup's first answer: the target itself only when idle.
    Plant(
        "src/repro/sched/wakeup.py::_fast_idle_sibling",
        "if allowed(target) and cpus[target].is_idle:", "if allowed(target):",
        (
            "tests/test_wakeup.py::TestMainlineWake::"
            "test_idle_core_in_node_chosen_over_busy_prev",
            VECSTATE + "TestFastAnswers::runTest",
            SANITIZER + "test_trips_on_stale_idle_sibling",
            MAKE_AND_R,
        ),
    ),
    Plant(LOAD_SCENARIO, "resolve_kind(ref)", "pass", (
        DANGLING + "[trial]",
        DANGLING + "[workload-spec]",
    )),
    Plant(
        LOAD_SCENARIO,
        'raise ValueError(f"{source}: unknown topology {topology!r}")',
        "pass",
        (DANGLING + "[topology]",),
    ),
)
