"""The census of planted invalidation faults.

Every cache the fast path keeps (the runqueue load memo, the
``VecState`` load mirror and designated-balancer memo, the spare set)
stays coherent only because each mutator invalidates it at the right
place.  Each :class:`Plant` below disables one of those invalidations
and names the tier-1 tests that must fail once it is in, so a deletion
that leaves one of them unguarded shows up as a plant that got through.

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
DISPATCH_PAIR = "tests/test_runqueue.py::test_dispatch_is_take_then_set_current"


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
        "test_group_stats_signature_survives_unrelated_churn",
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
    Plant(RUNQUEUE + "set_current", MUTATIONS, "pass", (
        DISPATCH_PAIR + "[1-True]",
        "tests/test_determinism_trace.py::"
        "test_fastpath_caching_does_not_change_the_schedule"
        "[buggy-overload-on-wakeup]",
        TPCH + "[fixes0]",
    )),
    Plant(RUNQUEUE + "set_current", MARK_DIRTY, "pass", (
        _stales("set_current"),
        PICK_PATHS,
    )),
    Plant(RUNQUEUE + "set_current", MARK_IDLE, "pass", (
        _reelected("deschedule"),
        PICK_PATHS,
        MAKE_AND_R,
    )),
    Plant(RUNQUEUE + "set_current", SPARE_ADD, "pass", (
        DISPATCH_PAIR + "[2-True]",
        DISPATCH_PAIR + "[2-False]",
    )),
    Plant(RUNQUEUE + "set_current", SPARE_DISCARD, "pass", (
        ZERO_COUNT,
        "tests/test_pick_tiebreak.py::"
        "test_pick_next_coherent_under_migration_and_hotplug",
        TPCH + "[fixes1]",
    )),
    Plant(
        "src/repro/sched/cgroup.py::CGroupManager.attach",
        "self._divisor_epoch.bump()", "pass", (MAKE_AND_R,),
    ),
    Plant(
        "src/repro/sched/cgroup.py::CGroupManager.detach",
        "self._divisor_epoch.bump()", "pass", (TPCH + "[fixes0]",),
    ),
    Plant(
        "src/repro/sched/scheduler.py::Scheduler.set_cpu_online",
        "self.vec.on_topology_change()", "pass", (
            VECSTATE + "test_hotplug_drops_interned_indices_and_balance_plans",
            VECSTATE + "TestFastAnswers::runTest",
        ),
    ),
)
