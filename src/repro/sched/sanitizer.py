"""Runtime cross-checks of the fast-path coherence contract.

The static half of this contract lives in
``repro.analysis.rules.coherence``: a whole-program pass derives, for each
cached accessor, the fields its memoized value depends on, and proves every
write to those fields is dominated by the matching epoch/mutation bump.
This module is the *dynamic* half, generated from the same dependency
facts: with ``SchedFeatures.sanitize_coherence`` on, every memo **hit**
recomputes the value from first principles and raises
:class:`CoherenceError` naming the divergent field if the cached copy
drifted.  A hit is exactly the moment a missing bump becomes observable --
on a miss the caches are refilled and any staleness is silently healed.

``FACTS`` pins the analyzer's derived dependency sets.  The ``sched``
layer must not import ``repro.analysis`` (layering contract), so the facts
are restated here and a test asserts they equal
``repro.analysis.rules.coherence.derived_facts()`` run over the shipped
tree -- if a cached accessor grows a new dependency, both the analyzer
and this table notice.

The checks are deliberately O(recompute): the sanitizer mode exists for
CI soaks and bug hunts, not production runs.  ``repro bench`` never
enables it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.balance import GroupStats
    from repro.sched.domains import DomainTable, SchedGroup
    from repro.sched.runqueue import RunQueue

#: (class, field) dependency sets of each cached accessor, as derived by
#: the static analyzer (``derived_facts`` in the coherence rule).  Keys
#: match the analyzer's accessor labels.
FACTS: Dict[str, FrozenSet[Tuple[str, str]]] = {
    "runqueue-load": frozenset(
        {
            ("RunQueue", "_tree"),
            ("RunQueue", "curr"),
            ("CGroup", "_members"),
            ("CGroup", "_avg_threads"),
        }
    ),
    "group-stats": frozenset(
        {
            ("RunQueue", "_tree"),
            ("RunQueue", "curr"),
            ("RunQueue", "_nr_running"),
            ("CGroup", "_members"),
            ("CGroup", "_avg_threads"),
            ("Cpu", "online"),
        }
    ),
    "designated-balancer": frozenset(
        {
            ("Cpu", "online"),
            ("RunQueue", "_nr_running"),
        }
    ),
    "overload-gate": frozenset({("RunQueue", "_nr_running")}),
}


class CoherenceError(AssertionError):
    """A cached value diverged from its from-scratch recomputation.

    Raised only in sanitizer mode, at the memo hit that exposed the
    drift.  ``field`` names the stale quantity; ``cached`` and ``fresh``
    carry both values for the failure report.
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
            f"{cached!r} but recomputes to {fresh!r} -- some write to a "
            f"dependency of {accessor} skipped its epoch/mutation bump"
        )


def verify_rq_load(rq: "RunQueue", now: int, cached: float) -> None:
    """Cross-check a load-memo hit against the from-scratch summation.

    Also recounts the incremental ``_nr_running`` / ``_total_weight``
    mirrors: they share the memo's dependency set (tree + curr), and a
    direct, unbumped write to either mirror is invisible to the load memo
    key but corrupts every balancing decision reading it.
    """
    fresh = sum(task.load(now) for task in rq.all_tasks())
    if fresh != cached:
        raise CoherenceError("runqueue-load", "load", cached, fresh)
    nr = len(rq._tree) + (1 if rq.curr is not None else 0)
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
    group: "SchedGroup",
    cached: Optional["GroupStats"],
    fresh: Optional["GroupStats"],
) -> None:
    """Cross-check a group-stats memo hit against a memo-free refold."""
    if (cached is None) != (fresh is None):
        raise CoherenceError("group-stats", "stats", cached, fresh)
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
            raise CoherenceError("group-stats", field, got, want)


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


def verify_overload(cached: int, fresh: int) -> None:
    """Cross-check the overload count at a balance-gate skip."""
    if cached != fresh:
        raise CoherenceError("overload-gate", "overloaded_rqs", cached, fresh)


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
