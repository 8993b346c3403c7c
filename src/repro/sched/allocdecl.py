"""Declared allocation classes for the hot roots.

Each :data:`~repro.analysis.effects.HOT_ROOTS` label commits to a tier
on the ``alloc-free`` < ``amortized`` < ``allocating`` lattice (see
:mod:`repro.analysis.costmodel`):

``alloc-free``
    No Python-level allocation on any reachable path.  Certified
    statically by the ``hot-path-alloc`` rule *and* enforced at runtime
    by ``repro demo <bug> --alloc-check`` -- a single tracked allocation
    event inside the root's frames fails the soak.
``amortized``
    Allocations happen only on memo/epoch miss paths; the steady state
    (hit path) is allocation-free.  Certified statically; the runtime
    tracker reports hit/miss allocation counts for these roots but does
    not gate on them, because hit rates are workload-dependent (e.g.
    ``RunQueue.load`` under the fast-path mirror is *only* invoked on
    staleness, so every observed call allocates by design).
``allocating``
    Per-call allocation is part of the contract (fold scratch state,
    result lists).  Listed so a change that tightens one of these shows
    up as an improvement in the committed baseline rather than silent
    drift.

A root whose declaration is *stronger* than the static inference is a
``hot-path-alloc`` error; the cost-model tests additionally hold every
declaration equal to the inference, so a declaration cannot go stale
in either direction.
"""

from __future__ import annotations

from typing import Dict

#: label -> declared allocation class, one entry per hot root.
DECLARED_ALLOC: Dict[str, str] = {
    # Per-cpu load memo: O(1) hit path reading the incremental mirror;
    # the miss path re-folds the queued set (a genexp).
    "runqueue-load": "amortized",
    # Incremental total-weight mirror, same shape as load.
    "runqueue-total-weight": "amortized",
    # The reference fold materializes a fresh GroupStats per call; the
    # fast path invokes it only from the sanitizer's refold.
    "group-stats-fold": "allocating",
    # Pure arithmetic over a cached tuple -- the strongest tier, and
    # the runtime-gated one.
    "designated-election": "alloc-free",
    # ``return self._live``: a field read.
    "event-pending": "alloc-free",
    # Dirty-set drain: allocates only for dirtied cpus (miss work).
    "vec-sync": "amortized",
    # Columnar group stats behind the epoch signature check.
    "vec-group-stats": "amortized",
    # The columnar fold builds its stats row per entry -- unless its
    # generation-sum probe revalidates the stale-stamped memo in place,
    # which allocates nothing; the row build is the probe's miss path.
    "vec-fold": "amortized",
    # Busiest-group scan over cached folds; the singleton-stats bridge
    # on the pair path is inline-suppressed churn (see vecstate.py).
    "vec-find-busiest": "amortized",
    # Designated memo over the columnar mirror.
    "vec-designated": "amortized",
    # The due-CPU reduction materializes the ascending id list per call.
    "vec-balance-due": "allocating",
    # Queued idle flips update memo entries in place (queue sorted in
    # place, winner rewritten, gate and epoch slots stored): no
    # allocation.
    "vec-reconcile": "alloc-free",
}
