"""Runtime cross-checks of the fast-path coherence contract.

Every fast-path cache stays valid only while each mutator invalidates
it: the runqueue load memo keys on the queue's ``mutations`` counter
and the divisor epoch, and the ``VecState`` mirror hears every change
through ``mark_dirty`` / ``mark_idle_change`` / ``on_topology_change``.
The load memo and the mirror's samples and folds follow one rule: a
value is reused only at the timestamp it was computed for, under the
same mutation counters and divisor epoch -- nothing is carried to a
later timestamp -- so a hit can be stale only when a mutator skipped
its invalidation.
With ``SchedFeatures.sanitize_coherence`` on, every memo **hit**
recomputes the value from first principles and raises
:class:`CoherenceError` naming the divergent field if the cached copy
drifted.  A hit is exactly the moment a missing invalidation becomes
observable -- on a miss the caches are refilled and any staleness is
silently healed.  The runqueue load memo is also checked on every miss:
its misses add through the one-frame ``repro.sched.load.queue_load``,
which must agree with the per-task ``Task.load`` chain it replaces.

The busiest-group selection is checked as it runs, not through a copy of
it: with the sanitizer on, the scheduler's mirror is a
``SanitizedVecState``, whose ``find_busiest`` runs the fast path's own
selection and then compares every fold it read, the CPUs it examined and
the groups it returned with the reference path's answer
(:func:`verify_selection`).

Which tier-1 tests catch each missing invalidation is recorded, as
planted faults, in ``tests/census/plants.py``.

The checks are deliberately O(recompute): the sanitizer mode exists for
CI soaks and bug hunts, not production runs; no benchmark enables it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.sched.load import load_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.balance import GroupStats
    from repro.sched.domains import DomainTable, SchedGroup
    from repro.sched.runqueue import RunQueue

#: A busiest-group decision: ``(busiest, local, examined)``.
Selection = Tuple[
    Optional["GroupStats"], Optional["GroupStats"], Sequence[int]
]


class CoherenceError(AssertionError):
    """A fast-path value diverged from its from-scratch recomputation.

    Raised only in sanitizer mode, at the memo hit or fast answer that
    exposed the drift.  ``field`` names the divergent quantity;
    ``cached`` and ``fresh`` carry both values for the failure report.
    """

    def __init__(
        self, accessor: str, field: str, cached: object, fresh: object
    ):
        self.accessor = accessor
        self.field = field
        self.cached = cached
        self.fresh = fresh
        super().__init__(
            f"coherence violation in {accessor}: {field} cached as "
            f"{cached!r} but recomputes to {fresh!r} -- a write skipped "
            f"its invalidation, or the fast path disagrees with the "
            f"reference"
        )


def verify_rq_load(rq: "RunQueue", now: int, cached: float) -> None:
    """Cross-check a load-memo value against the per-task summation.

    Runs on every hit, and on every miss, whose value comes from the
    one-frame ``queue_load`` rather than ``Task.load``.  Also recounts
    the incremental ``_nr_running`` / ``_total_weight`` mirrors: they
    share the memo's dependency set (queue + curr), and a direct,
    unbumped write to either mirror is invisible to the load memo key
    but corrupts every balancing decision reading it.
    """
    fresh = load_sum(task.load(now) for task in rq.all_tasks())
    if fresh != cached:
        raise CoherenceError("runqueue-load", "load", cached, fresh)
    nr = len(rq._q) + (1 if rq.curr is not None else 0)
    if nr != rq._nr_running:
        raise CoherenceError(
            "runqueue-load", "_nr_running", rq._nr_running, nr
        )
    weight = sum(task.weight for task in rq.all_tasks())
    if weight != rq._total_weight:
        raise CoherenceError(
            "runqueue-load", "_total_weight", rq._total_weight, weight
        )


def verify_group_stats(
    cached: Optional["GroupStats"],
    fresh: Optional["GroupStats"],
    accessor: str = "group-stats",
) -> None:
    """Cross-check a fold the fast path read against a memo-free refold."""
    if (cached is None) != (fresh is None):
        raise CoherenceError(accessor, "stats", cached, fresh)
    if cached is None or fresh is None:
        return
    for field in (
        "cpus",
        "avg_load",
        "min_load",
        "max_load",
        "nr_running",
        "capacity",
        "min_nr",
        "max_nr",
    ):
        got = getattr(cached, field)
        want = getattr(fresh, field)
        if got != want:
            raise CoherenceError(accessor, field, got, want)


def verify_selection(where: str, cached: Selection, fresh: Selection) -> None:
    """Cross-check a fast busiest-group decision against the reference:
    the examined CPUs, the busiest group and the local group."""
    busiest, local, examined = cached
    ref_busiest, ref_local, ref_examined = fresh
    accessor = f"busiest-group ({where})"
    if tuple(examined) != tuple(ref_examined):
        raise CoherenceError(
            accessor, "examined", tuple(examined), tuple(ref_examined)
        )
    verify_group_stats(busiest, ref_busiest, accessor + " busiest")
    verify_group_stats(local, ref_local, accessor + " local")


def verify_designated(
    group: Optional["SchedGroup"], cached: int, fresh: int
) -> None:
    """Cross-check a designated-balancer memo hit against a re-election."""
    if cached != fresh:
        raise CoherenceError("designated-balancer", "winner", cached, fresh)


def verify_gated_skip(
    cpu_id: int, now: int, levels: Iterable[Tuple[str, int, int]]
) -> None:
    """Cross-check a skipped periodic walk against fresh elections.

    ``levels`` holds ``(domain name, fresh winner, next_balance stamp)``
    for each level of the CPU; the skip is sound only if no level this
    CPU wins is due (a stamp below zero was never balanced: due).
    """
    for name, winner, stamp in levels:
        if winner == cpu_id and not 0 <= now < stamp:
            raise CoherenceError(
                "balance-gate", f"cpu {cpu_id} {name} gate", "not due",
                f"due (next_balance {stamp}, now {now})",
            )


def verify_idle_sibling(target: int, cached: int, fresh: int) -> None:
    """Cross-check the fast idle-sibling pick against the LLC scan."""
    if cached != fresh:
        raise CoherenceError(
            "idle-sibling", f"idle sibling of cpu {target}", cached, fresh
        )


def verify_overload(
    cached: AbstractSet[int], fresh: AbstractSet[int]
) -> None:
    """Cross-check the spare set at a balance-gate skip."""
    if cached != fresh:
        raise CoherenceError(
            "overload-gate", "overloaded_rqs", sorted(cached), sorted(fresh)
        )


def verify_skipped_attempt(
    cpu_id: int, domain: str, src_cpu: Optional[int]
) -> None:
    """Cross-check a spare-gated balancing attempt against a dry run.

    ``src_cpu`` is the source CPU the skipped attempt would have pulled
    from had it run; the skip is sound only if there is none.
    """
    if src_cpu is not None:
        raise CoherenceError(
            "spare-gate", f"cpu {cpu_id} {domain} source", None, src_cpu
        )


def verify_domain_table(cached: "DomainTable", fresh: "DomainTable") -> None:
    """Cross-check a domain-table memo hit against a from-scratch build.

    The memo is keyed by value, not by an epoch: a mismatch means the key
    misses something the build reads.
    """
    if cached.keys() != fresh.keys():
        raise CoherenceError(
            "domain-table", "online cpus", sorted(cached), sorted(fresh)
        )
    for cpu_id in sorted(fresh):
        if cached[cpu_id] != fresh[cpu_id]:
            raise CoherenceError(
                "domain-table", f"cpu {cpu_id} domains",
                cached[cpu_id], fresh[cpu_id],
            )
