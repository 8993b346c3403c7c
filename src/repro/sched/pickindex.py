"""Array-backed min-vruntime pick index (the rbtree's O(1) twin).

:class:`PickIndex` mirrors one runqueue's *waiting* task set as flat
parallel arrays -- ``(vruntime, tid, task)`` per slot plus a tid ->
slot map -- so ``pick_next`` becomes a cached-min probe instead of an
rbtree descent.  The rbtree stays authoritative (ordered iteration for
migration scans, and the reference/sanitizer path); the index is kept
coherent by the exact same call sites that maintain the tree, wired in
:mod:`repro.sched.runqueue` under the vectorized-core gate.

**Tie order.**  The cached minimum and the argmin recompute both order
by the composite ``(vruntime, tid)`` key -- the rbtree's insertion key
-- so equal-vruntime tasks pick in exactly rbtree order (tids are
unique, so the order is total); ``repro bench --check-digests`` holds
every variant to that.

**Cached-min protocol.**  ``(_min_vr, _min_tid)`` is maintained as a
*lower bound* of every present key: inserts either update it or insert
above it, and removals never lower any key.  A probe is valid when the
cached tid is present at the cached vruntime -- then the lower bound is
attained and therefore *is* the minimum.  Removing the minimum leaves
the cache stale (the tid misses, or re-appears at a different
vruntime), which the probe detects, falling back to an in-frame argmin
sweep over the arrays.  Staleness is always *detected*, never silently
wrong: a passing probe proves minimality, a failing probe recomputes
from the arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.task import Task

#: Cached-min sentinel: above any real (vruntime, tid), so the first
#: insert into an empty index always installs itself as the minimum.
_NO_MIN = 1 << 62


class PickIndex:
    """Flat (vruntime, tid) index over one runqueue's waiting tasks."""

    __slots__ = (
        "_vrs", "_tids", "_tasks", "_pos", "_min_vr", "_min_tid",
    )

    def __init__(self) -> None:
        self._vrs: List[int] = []
        self._tids: List[int] = []
        self._tasks: List["Task"] = []
        #: tid -> slot; removal swap-pops, so slots stay dense.
        self._pos: Dict[int, int] = {}
        self._min_vr = _NO_MIN
        self._min_tid = _NO_MIN

    def __len__(self) -> int:
        return len(self._vrs)

    def insert(self, vr: int, tid: int, task: "Task") -> None:
        """Mirror one tree insert (key must be absent)."""
        self._pos[tid] = len(self._vrs)
        self._vrs.append(vr)
        self._tids.append(tid)
        self._tasks.append(task)
        min_vr = self._min_vr
        if vr < min_vr or (vr == min_vr and tid < self._min_tid):
            self._min_vr = vr
            self._min_tid = tid

    def remove(self, tid: int) -> None:
        """Mirror one tree remove (tid must be present)."""
        vrs = self._vrs
        tids = self._tids
        tasks = self._tasks
        i = self._pos.pop(tid)
        last = len(vrs) - 1
        if i != last:
            vrs[i] = vrs[last]
            tids[i] = tids[last]
            tasks[i] = tasks[last]
            self._pos[tids[i]] = i
        del vrs[last]
        del tids[last]
        del tasks[last]
        if not vrs:
            # Empty: reset the lower bound so the next insert re-seeds
            # the cache instead of inheriting a stale (smaller) one.
            self._min_vr = _NO_MIN
            self._min_tid = _NO_MIN

    def peek(self) -> Optional["Task"]:
        """The task with the least ``(vruntime, tid)``, or None.

        O(1) while the cached minimum is attained; an argmin sweep over
        the flat arrays otherwise (the minimum was removed since).
        """
        vrs = self._vrs
        if not vrs:
            return None
        i = self._pos.get(self._min_tid, -1)
        if i >= 0 and vrs[i] == self._min_vr:
            return self._tasks[i]
        n = len(vrs)
        tids = self._tids
        best = 0
        bv = vrs[0]
        bt = tids[0]
        j = 1
        while j < n:
            v = vrs[j]
            if v < bv or (v == bv and tids[j] < bt):
                best = j
                bv = v
                bt = tids[j]
            j += 1
        self._min_vr = bv
        self._min_tid = bt
        return self._tasks[best]

    def __repr__(self) -> str:
        return (
            f"PickIndex(n={len(self._vrs)}, "
            f"min=({self._min_vr}, {self._min_tid}))"
        )
