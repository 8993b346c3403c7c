"""Persistent struct-of-arrays mirror of per-CPU scheduler state.

:class:`VecState` is the simulator's one fast balancing path: instead of
re-reading every queue for every rebalance pass, one scheduler-lifetime
instance keeps flat (load, nr_running) mirrors -- the loads as the exact
objects the queues returned (see "Object exactness" below) -- and keeps
them coherent through the existing epoch-bump protocol:

* every load-affecting runqueue mutation calls :meth:`mark_dirty` (wired
  next to the queue's own ``mutations`` bump), which queues the slot for
  resampling and advances the private fold version;
* a new pass timestamp invalidates every load sample at once (loads are
  a function of ``now``); the resample sweep reads each queue's
  memoized ``load(now)``, so the mirrored floats are the *same objects*
  the scalar path computes;
* cgroup divisor bumps drop all load samples; hotplug
  (:meth:`on_topology_change`) drops the interned group/domain index
  caches, checked per lookup so mid-pass epoch traffic is observed;
* idle<->busy flips (:meth:`mark_idle_change`) are only queued, and
  reconciled lazily into the designated-balancer memo, which is kept
  current rather than dropped (see "Balance gates" below).

**Balance gates.**  Like the kernel's per-runqueue ``next_balance``,
each CPU carries the earliest balancing deadline among the levels it
currently wins, and its periodic walk is skipped while that lies in the
future.  A gate only has to be disarmed when its CPU *gains* a level:
reconciling a flip re-elects every memoized group whose mask holds the
flipped CPU and disarms only a changed winner, through a per-CPU arming
epoch.  A CPU that loses a level keeps a gate that is merely early, and
an early gate only costs one real (and exact) walk.

Group folds gather member slots through pre-built gather plans (one per
interned :class:`~repro.sched.domains.SchedGroup`) and reduce them with
one in-frame loop, so folded :class:`~repro.sched.balance.GroupStats`
are bit-identical to the reference fold and schedule digests match
across both paths.  A fold is memoized as a flat list of its six
reductions keyed ``(now, version)``; the
:class:`~repro.sched.balance.GroupStats` object is materialized from it
lazily, only when a caller actually receives the group (most folds lose
the three-tier selection and are never handed out).  Because the
instance persists, the synchronized bursts of newidle passes that share
one timestamp collapse into memo hits.

**Float summation.**  Group *load sums* feed threshold comparisons that
decide migrations, so the fold reproduces the scalar path's sequential
left-to-right ``sum()`` bit for bit: no reordering, no pairwise or
blocked summation, which rounds differently.  Integer reductions
(``nr_running`` sums, min/max queue depths) are exact in any order.

**Object exactness.**  Load *values* are mirrored as the exact Python
objects ``RunQueue.load(now)`` returned -- never copied into a float
buffer.  An idle queue's load is ``sum([]) == 0``, the *int* zero; the
schedule digest hashes ints and skips floats, so a mirror that coerced
it to ``0.0`` would silently drop the group-metric field from
``BalanceEvent`` records whenever the Group Imbalance fix selects
``min_load``.  The fold's min/max keep the first minimal / maximal
*element*, matching the reference fold's tie-breaking, so both paths'
schedule digests stay byte-identical (see ``repro bench
--check-digests``).  Likewise, per-task utilization decay stays on
scalar ``math.exp`` in :mod:`repro.sched.load`: the tracker is *read*,
never re-derived, by this layer.

The vruntime floor and idle flags of the mirror are exposed via
:meth:`snapshot`; ``min_vruntime`` advances without epoch traffic (by
design -- see ``RunQueue.update_min_vruntime``), so the floor is sampled
on read rather than pretending an incremental mirror could stay
coherent.  No balancing decision consumes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sched.balance import (
    GroupStats,
    _elect_designated,
    _fold_group_stats,
)
from repro.sched.sanitizer import verify_designated, verify_group_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.domains import SchedDomain, SchedGroup
    from repro.sched.scheduler import Scheduler

#: A group's cached gather plan: (group, online members sorted, member
#: count).  The group reference keeps the interned object alive so its
#: id can never be recycled while the entry exists.
_GroupEntry = Tuple["SchedGroup", Tuple[int, ...], int]

#: Flat fold-memo entry (a list, for in-place re-stamping):
#: [group, now, version, load_sum, load_min, load_max,
#:  nr_sum, nr_min, nr_max, stats-or-None, cpus, member count,
#:  group dirty count].
#: Slots 3..8 are the six reductions in the exact objects the scalar
#: fold produces; slot 9 caches the lazily-materialized GroupStats.
#: Slot 12 is the group's dirty counter at fold time: the counter only
#: moves when a member slot's mirrored value actually changed, so a
#: matching count revalidates the fold across timestamps in O(1) (and
#: the entry is re-stamped in place).
_F_STATS = 9
_F_DIRTY = 12


class _DomainCache:
    """Per-domain selection plan: nonempty groups, in declaration order."""

    __slots__ = (
        "domain", "entries", "examined", "local_slot", "ratio", "pair",
    )

    def __init__(
        self,
        domain: "SchedDomain",
        entries: List[_GroupEntry],
        examined: Tuple[int, ...],
        local_slot: Dict[int, int],
    ):
        self.domain = domain
        self.entries = entries
        #: Concatenation of every nonempty group's member tuple -- the
        #: ``examined`` list find_busiest_group reports to the probe.
        self.examined = examined
        #: First group slot containing each CPU (the scalar path's
        #: "first group with stats containing dst_cpu" local rule).
        self.local_slot = local_slot
        #: The domain's imbalance threshold, hoisted off the dataclass.
        self.ratio = domain.imbalance_ratio
        #: The two member CPUs when the domain is exactly two one-CPU
        #: groups (every SMT level on the reference topology -- half of
        #: all balancing attempts), else None.  Such domains get a
        #: closed-form selection that never touches the fold memo: a
        #: singleton's fold is used by no other domain, so memoizing it
        #: is pure overhead (the designated rule already guarantees one
        #: attempt per domain per timestamp).
        self.pair = (
            (entries[0][1][0], entries[1][1][0])
            if len(entries) == 2 and entries[0][2] == 1 and entries[1][2] == 1
            else None
        )


class _Election:
    """The inputs of one memoized designated-balancer election.

    The winner itself is the value of ``VecState._designated``: a write
    to this object would be a foreign-receiver effect on the balance hot
    path, while the memo dict is the mirror's own state.
    """

    __slots__ = ("group", "mask")

    def __init__(self, group: "SchedGroup"):
        #: The group itself keeps the interned object alive, so its id
        #: (the memo key) can never be recycled while the entry exists.
        self.group = group
        self.mask = group.sorted_balance_mask()


class VecState:
    """Array-backed balance sampling layer (one per scheduler)."""

    __slots__ = (
        "sched", "now", "_n", "_loads", "_nrs", "_dirty",
        "_dirty_list", "_loads_at", "_version", "_div_ref",
        "_div_epoch", "_gidx", "_gstats", "_designated", "_desig_by_cpu",
        "_domains", "_sanitize", "_use_min", "_scratch_folds",
        "_grp_dirty", "_slot_grps", "_gate", "_gate_ep", "_disarms",
        "_idle", "_idle_queued", "_idle_q",
    )

    def __init__(self, sched: "Scheduler"):
        self.sched = sched
        n = len(sched.cpus)
        self._n = n
        self.now = -1
        #: Exact load objects as returned by each queue's ``load(now)``
        #: -- a plain list, because an idle queue's load is the *int*
        #: zero and the digest distinguishes int from float fields (see
        #: the object-exactness note above).
        self._loads: List[float] = [0.0] * n
        self._nrs: List[int] = [0] * n
        #: Slots whose queue mutated since their last resample.  The
        #: flag array dedups; the list makes the drain proportional to
        #: the churn, not the machine size.
        self._dirty = [False] * n
        self._dirty_list: List[int] = []
        #: Timestamp every non-dirty load slot is valid at (-1 = none).
        self._loads_at = -1
        #: Fold version: bumped by every mutation/epoch invalidation, so
        #: a (now, version) pair keys the group-stats memos.
        self._version = 0
        self._div_ref = sched.divisor_epoch
        self._div_epoch = self._div_ref.value
        #: id(group) -> gather plan; id(group) -> flat fold-memo entry
        #: (see module constants); id(group) -> elected winner;
        #: id(domain) -> plan.
        self._gidx: Dict[int, _GroupEntry] = {}
        self._gstats: Dict[int, List[object]] = {}
        self._designated: Dict[int, int] = {}
        #: Per-CPU reverse index of the election memo: every group whose
        #: memoized winner read this CPU's idle flag.  A reconciled
        #: idle<->busy transition re-elects exactly those entries.  A
        #: group registers once, on its memo miss; entries are never
        #: dropped short of hotplug, which clears both maps together.
        self._desig_by_cpu: List[List[_Election]] = [[] for _ in range(n)]
        self._domains: Dict[int, _DomainCache] = {}
        #: Reused fold-slot buffer for find_busiest: the per-call list
        #: was the only bulk-path allocation left on the steady state
        #: (the hot-path-alloc analyzer's top per-call site).  The
        #: buffer never escapes: every slot it holds is either a memo
        #: entry owned by ``_gstats`` or a fresh fold that ``_fold_entry``
        #: already registered there.
        self._scratch_folds: List[List[object]] = []
        #: Per-group dirty counter: ``id(group) -> count``, bumped by
        #: every mirror rewrite of any member slot (identity check --
        #: the queues' load memo returns the *same object* while nothing
        #: changed).  Fold memos record the count at fold time (slot
        #: ``_F_DIRTY``); counts never decrease, so an equal count at a
        #: later (now, version) proves every input object unchanged and
        #: revalidates the fold in O(1) -- the old per-member
        #: generation-sum probe paid O(group) per probe, which was the
        #: top scalar-residue line on soak64.
        self._grp_dirty: Dict[int, int] = {}
        #: Reverse index for the counters: every registered group
        #: containing the slot (built with the gather plans, dropped on
        #: hotplug with them).
        self._slot_grps: List[List["SchedGroup"]] = [[] for _ in range(n)]
        #: Per-CPU periodic-balance gate: the earliest ``next_balance``
        #: deadline among the levels this CPU currently wins at its
        #: cached plan.  ``gate > now`` proves the whole domain walk is
        #: a no-op (no due level the CPU would act on), so the walk is
        #: skipped wholesale; 0 = due, forcing one real walk which
        #: re-arms the gate.
        self._gate: List[int] = [0] * n
        #: Per-CPU arming epoch, bumped by every disarm.  A walk reads it
        #: on entry and its final stamp is refused if it moved (the
        #: walk's own migrations can make this very CPU a new winner).
        self._gate_ep: List[int] = [0] * n
        #: Disarms anywhere: the NOHZ due-sweep recomputes its due list
        #: when this moves under it.
        self._disarms = 0
        #: Mirrored ``rq._nr_running == 0`` per CPU, as of the last
        #: reconcile, and the CPUs queued since (flag-deduped, like the
        #: dirty list).  A flip and its undo between two reconciles --
        #: ``pick_next_task``'s take/set_current pair -- cancel out.
        self._idle = [cpu.rq._nr_running == 0 for cpu in sched.cpus]
        self._idle_queued = [False] * n
        self._idle_q: List[int] = []
        self._sanitize = sched.features.sanitize_coherence
        self._use_min = sched.features.fix_group_imbalance

    # -- coherence ---------------------------------------------------------

    def begin(self, now: int) -> "VecState":
        """Start (or join) a pass at ``now``; returns self for chaining."""
        self.now = now
        return self

    def mark_dirty(self, cpu_id: int) -> None:
        """A load-affecting mutation happened on this CPU's queue."""
        if not self._dirty[cpu_id]:
            self._dirty[cpu_id] = True
            self._dirty_list.append(cpu_id)
        self._version += 1

    def mark_idle_change(self, cpu_id: int) -> None:
        """This CPU crossed the idle<->busy boundary.

        Wired next to the queue's ``idle_epoch.bump()`` sites.  The flip
        is only queued; the next election or gate query reconciles the
        queue (:meth:`_reconcile`), so a flip undone before then costs
        nothing.
        """
        if not self._idle_queued[cpu_id]:
            self._idle_queued[cpu_id] = True
            self._idle_q.append(cpu_id)

    def _reconcile(self) -> None:
        """Fold the queued idle flips into the election memo and gates.

        A queued CPU whose idleness equals its mirrored flag flipped and
        flipped back: nothing an election reads changed.  For a real
        change, every memoized group whose mask holds the CPU is
        re-elected, and a changed winner has its gate disarmed -- the
        only CPU that may have gained a due level.  Elections read the
        queues directly, so the order the queue drains in is immaterial.

        The election is ``_elect_designated``'s rule, inlined over the
        entry's cached mask: this runs ahead of every gate and election
        query, and the sanitizer re-elects through the original on
        every memo hit and gated skip.
        """
        cpus = self.sched.cpus
        idle = self._idle
        queued = self._idle_queued
        by_cpu = self._desig_by_cpu
        designated = self._designated
        for c in self._idle_q:
            queued[c] = False
            flag = cpus[c].rq._nr_running == 0
            if flag == idle[c]:
                continue
            idle[c] = flag
            for entry in by_cpu[c]:
                winner = -1
                for cand in entry.mask:
                    cpu = cpus[cand]
                    if not cpu.online:
                        continue
                    if cpu.rq._nr_running == 0:
                        winner = cand
                        break
                    if winner < 0:
                        winner = cand
                if winner != designated[id(entry.group)]:
                    designated[id(entry.group)] = winner
                    if winner >= 0:
                        self._gate[winner] = 0
                        self._gate_ep[winner] += 1
                        self._disarms += 1
        self._idle_q.clear()

    def on_topology_change(self) -> None:
        """Hotplug rebuilt the domains: drop every interned index/memo."""
        self._gidx.clear()
        self._gstats.clear()
        self._designated.clear()
        for bucket in self._desig_by_cpu:
            bucket.clear()
        self._domains.clear()
        self._loads_at = -1
        self._version += 1
        self._grp_dirty.clear()
        for lst in self._slot_grps:
            del lst[:]
        # The plans and elections every gate was computed from are gone.
        for i in range(self._n):
            self._gate[i] = 0
            self._gate_ep[i] += 1
        self._disarms += 1

    def _check_epochs(self) -> None:
        # Re-checked per lookup: divisor bumps re-weight loads without
        # runqueue events (idle traffic is handled precisely, per CPU, by
        # mark_idle_change).
        div = self._div_ref.value
        if div != self._div_epoch:
            self._div_epoch = div
            self._loads_at = -1
            self._version += 1

    def _sync(self) -> None:
        """Bring the (load, nr) mirrors current for ``now``.

        A new timestamp stales every load sample at once (loads decay
        with time), so the sweep resamples the whole machine through the
        queues' own memoized ``load(now)`` -- the exact floats the
        scalar path reads.  At an already-synced timestamp only the
        dirty slots are drained.
        """
        now = self.now
        loads = self._loads
        nrs = self._nrs
        slot_grps = self._slot_grps
        grp_dirty = self._grp_dirty
        if self._loads_at != now:
            for cpu in self.sched.cpus:
                rq = cpu.rq
                i = rq.cpu_id
                # Identity check: the queue's load memo carries its value
                # across timestamps while provably time-invariant, so a
                # slot whose mirrored *object* is unchanged dirties no
                # fold memo over it.
                v = rq.load(now)
                if v is not loads[i]:
                    loads[i] = v
                    for g in slot_grps[i]:
                        grp_dirty[id(g)] += 1
                nr = rq._nr_running
                if nr != nrs[i]:
                    nrs[i] = nr
                    for g in slot_grps[i]:
                        grp_dirty[id(g)] += 1
            self._loads_at = now
            if self._dirty_list:
                for i in self._dirty_list:
                    self._dirty[i] = False
                self._dirty_list.clear()
        elif self._dirty_list:
            cpus = self.sched.cpus
            for i in self._dirty_list:
                rq = cpus[i].rq
                v = rq.load(now)
                if v is not loads[i]:
                    loads[i] = v
                    for g in slot_grps[i]:
                        grp_dirty[id(g)] += 1
                nr = rq._nr_running
                if nr != nrs[i]:
                    nrs[i] = nr
                    for g in slot_grps[i]:
                        grp_dirty[id(g)] += 1
                self._dirty[i] = False
            self._dirty_list.clear()

    # -- gather plans ------------------------------------------------------

    def _group_entry(self, group: "SchedGroup") -> _GroupEntry:
        entry = self._gidx.get(id(group))
        if entry is None:
            cpus = tuple(
                c for c in group.sorted_cpus() if self.sched.cpus[c].online
            )
            entry = (group, cpus, len(cpus))
            self._gidx[id(group)] = entry
            # Register the group with each member slot's reverse index
            # so mirror rewrites bump its dirty counter; id reuse is
            # safe because the index holds the group itself (and _gidx
            # keeps it alive until hotplug clears both maps together).
            self._grp_dirty[id(group)] = 0
            for c in cpus:
                self._slot_grps[c].append(group)
        return entry

    def _domain_cache(self, domain: "SchedDomain") -> _DomainCache:
        entries: List[_GroupEntry] = []
        examined: List[int] = []
        local_slot: Dict[int, int] = {}
        for group in domain.groups:
            entry = self._group_entry(group)
            if not entry[1]:
                continue  # no online member: the scalar path skips it too
            slot = len(entries)
            entries.append(entry)
            examined.extend(entry[1])
            for c in group.sorted_cpus():
                if c not in local_slot:
                    local_slot[c] = slot
        cache = _DomainCache(domain, entries, tuple(examined), local_slot)
        self._domains[id(domain)] = cache
        return cache

    # -- sampling interface ------------------------------------------------

    def group_stats(self, group: "SchedGroup") -> Optional[GroupStats]:
        """Memoized bulk fold of one group's statistics at ``now``."""
        self._check_epochs()
        now = self.now
        m = self._gstats.get(id(group))
        if m is not None and m[1] == now and m[2] == self._version:
            stats = self._materialize(m)
            if self._sanitize:
                verify_group_stats(
                    group,
                    stats,
                    _fold_group_stats(self.sched, group, now),
                )
            return stats
        if self._loads_at != now or self._dirty_list:
            self._sync()
        entry = self._group_entry(group)
        if not entry[1]:
            return None
        # The fold carries its own cross-timestamp second chance (the
        # generation-sum probe in _fold_entry), so this "miss" may be a
        # revalidated memo; the sanitizer cross-checks it either way.
        stats = self._materialize(self._fold_entry(entry))
        if self._sanitize:
            verify_group_stats(
                group,
                stats,
                _fold_group_stats(self.sched, group, now),
            )
        return stats

    def _fold_entry(self, entry: _GroupEntry) -> List[object]:
        """Fold one (nonempty) group into a fresh memo entry.

        The six reductions use the exact expressions -- and, for the
        float side, the exact sequential op order and element-object
        results -- of ``_fold_group_stats``; the leading ``0 +`` of the
        builtin ``sum`` is dropped, which is value- *and type*-exact
        because queue loads are never negative zero.  Every width folds
        in-frame: one pass, no helper frames.
        """
        group, cpus, k = entry
        d = self._grp_dirty[id(group)]
        prev = self._gstats.get(id(group))
        if prev is not None:
            # Second chance across timestamps: the (now, version) stamp
            # went stale, but the group's dirty counter is monotone, so
            # an equal count -- taken after the sync brought the mirror
            # current -- proves every input object unchanged and the
            # memoized reductions still exact.  Re-stamp the entry in
            # place instead of refolding.
            if d == prev[_F_DIRTY]:
                prev[1] = self.now
                prev[2] = self._version
                return prev
        loads = self._loads
        nrs = self._nrs
        c = cpus[0]
        v = loads[c]
        nr = nrs[c]
        ls = lmn = lmx = v
        ns = nmn = nmx = nr
        j = 1
        while j < k:
            c = cpus[j]
            v = loads[c]
            ls = ls + v
            if v < lmn:
                lmn = v
            elif v > lmx:
                lmx = v
            nr = nrs[c]
            ns = ns + nr
            if nr < nmn:
                nmn = nr
            elif nr > nmx:
                nmx = nr
            j += 1
        m: List[object] = [
            group, self.now, self._version,
            ls, lmn, lmx, ns, nmn, nmx, None, cpus, k, d,
        ]
        self._gstats[id(group)] = m
        return m

    def _materialize(self, m: List[object]) -> GroupStats:
        """The GroupStats of one fold-memo entry, built at most once."""
        stats = m[_F_STATS]
        if stats is None:
            k = m[11]
            # Same expressions (and float-op order) as _fold_group_stats.
            stats = GroupStats(
                group=m[0],  # type: ignore[arg-type]
                cpus=m[10],  # type: ignore[arg-type]
                avg_load=m[3] / k,  # type: ignore[operator]
                min_load=m[4],  # type: ignore[arg-type]
                max_load=m[5],  # type: ignore[arg-type]
                nr_running=m[6],  # type: ignore[arg-type]
                capacity=k,  # type: ignore[arg-type]
                min_nr=m[7],  # type: ignore[arg-type]
                max_nr=m[8],  # type: ignore[arg-type]
            )
            m[_F_STATS] = stats
        return stats  # type: ignore[return-value]

    def _singleton_stats(self, entry: _GroupEntry, c: int) -> GroupStats:
        """GroupStats of a one-CPU group, built without memo traffic.

        ``v / 1`` reproduces the generic ``sum([v]) / len`` average
        exactly; the remaining fields are the member's own samples.
        """
        v = self._loads[c]
        nr = self._nrs[c]
        # Intentional per-call churn on the two-singleton fast path: the
        # scalar consumer's interface requires a GroupStats, and memoizing
        # a singleton's stats costs more than building them (one object,
        # no fold).  Retiring the GroupStats bridge entirely is the
        # residue ranking's next item, not this PR.
        return GroupStats(  # repro: noqa[hot-path-alloc]
            group=entry[0],
            cpus=entry[1],
            avg_load=v / 1,
            min_load=v,
            max_load=v,
            nr_running=nr,
            capacity=1,
            min_nr=nr,
            max_nr=nr,
        )

    def designated_for(self, group: "SchedGroup") -> int:
        """Memoized designated-balancer election for one local group.

        Kept current by :meth:`_reconcile`, which re-elects the entry
        whenever a mask member really crossed the idle<->busy boundary;
        hotplug (the other election input) drops the memo.
        """
        if self._idle_q:
            self._reconcile()
        # Memo probe first: the common caller (a periodic-balance
        # level) hits it thousands of times between re-elections.
        winner = self._designated.get(id(group))
        if winner is not None:
            if self._sanitize:
                verify_designated(
                    group, winner, _elect_designated(self.sched, group)
                )
            return winner
        mask = group.sorted_balance_mask()
        if len(mask) == 1:
            # One-CPU masks elect themselves; no memo traffic needed
            # (and the plan-cached periodic path resolves these inline).
            only = mask[0]
            return only if self.sched.cpus[only].online else -1
        winner = _elect_designated(self.sched, group)
        entry = _Election(group)
        self._designated[id(group)] = winner
        by_cpu = self._desig_by_cpu
        for c in mask:
            by_cpu[c].append(entry)
        return winner

    # -- periodic-balance gate ---------------------------------------------

    def walk_token(self, cpu_id: int, now: int) -> int:
        """-1 when this CPU's whole domain walk is provably a no-op.

        Otherwise the CPU's arming epoch, to hand to :meth:`set_gate`
        after the walk.  Queued idle flips are reconciled first.

        The gate holds the earliest ``next_balance`` deadline among the
        levels this CPU won at its last real walk.  While it sits in the
        future, no level is both due and won, and a walk that attempts
        nothing emits no events, stamps no deadline, and moves no task
        -- so skipping it wholesale is digest-invisible.  Winning a new
        level (an election shift reconciled from idle flips) or hotplug
        disarms the gate; losing one leaves it early, which is safe.
        """
        if self._idle_q:
            self._reconcile()
        if self._gate[cpu_id] > now:
            return -1
        return self._gate_ep[cpu_id]

    def disarm_token(self) -> int:
        """A counter that moves whenever any gate is disarmed."""
        if self._idle_q:
            self._reconcile()
        return self._disarms

    def set_gate(self, cpu_id: int, stamp: int, tok: int) -> None:
        """Arm the walk's earliest next deadline for this CPU.

        Refused if the CPU's arming epoch moved since ``tok`` was read:
        the walk's own migrations can flip idle states that re-elect
        this very CPU, and the walk's deadline is stale the moment they
        do.
        """
        if self._idle_q:
            self._reconcile()
        if self._gate_ep[cpu_id] == tok:
            self._gate[cpu_id] = stamp

    def balance_due(self, now: int) -> List[int]:
        """CPU ids whose gate expired or is disarmed, ascending.

        One reduction over the deadline mirror -- "which CPUs need
        balancing now" without touching the CPUs that provably do not.
        """
        if self._idle_q:
            self._reconcile()
        gates = self._gate
        return [i for i in range(self._n) if gates[i] <= now]

    # -- bulk busiest-group selection --------------------------------------

    def find_busiest(
        self, domain: "SchedDomain", dst_cpu: int, need_local: bool = True
    ) -> Tuple[Optional[GroupStats], Optional[GroupStats], Tuple[int, ...]]:
        """(busiest, local, examined) for one balancing attempt.

        ``need_local=False`` (an inert probe) skips materializing the
        local GroupStats on *balanced* outcomes, where the caller
        consumes it only for the probe record; a found busiest group
        always returns both stats.

        Decision-identical to the scalar ``find_busiest_group`` body:
        same local-group rule (first nonempty group containing the
        destination), same overloaded > imbalanced > any tier order with
        first-max-wins ties, same imbalance-ratio threshold expression.

        (The selection itself is deliberately *not* memoized: the
        designated-balancer rule already guarantees at most one CPU per
        (domain, local group) balances at any timestamp, so a selection
        memo can never hit -- only the group folds underneath repeat,
        and those carry the fold memo.)

        The body is deliberately flat: the epoch check, the mirror
        sync gate, the per-group fold-memo probes, and the three-tier
        selection all run in this one frame.  The selection compares
        raw memo slots and materializes GroupStats objects only for
        the (at most two) groups actually returned.
        """
        # Inline _check_epochs (divisor only; idle invalidation is
        # per-CPU via mark_idle_change).
        div = self._div_ref.value
        if div != self._div_epoch:
            self._div_epoch = div
            self._loads_at = -1
            self._version += 1
        cache = self._domains.get(id(domain))
        if cache is None:
            cache = self._domain_cache(domain)
        if self._sanitize:
            busiest, local = self._select_checked(
                cache, cache.local_slot.get(dst_cpu, -1)
            )
            return busiest, local, cache.examined
        now = self.now
        if self._loads_at != now or self._dirty_list:
            self._sync()
        use_min = self._use_min
        loads = self._loads
        pair = cache.pair
        if pair is not None:
            # Two one-CPU groups: the three-tier loop always selects
            # the non-local group (a singleton is never `imbalanced`;
            # the any-group tier seeds it even at metric zero), so the
            # decision collapses to the threshold compare.  ``v / 1``
            # reproduces the generic ``sum([v]) / len`` average exactly
            # (IEEE division by one is exact; the int zero of an idle
            # queue becomes the same 0.0).
            c0, c1 = pair
            if dst_cpu == c0:
                lc, oc, li, oi = c0, c1, 0, 1
            elif dst_cpu == c1:
                lc, oc, li, oi = c1, c0, 1, 0
            else:
                return None, None, cache.examined
            if use_min:
                best_metric = loads[oc]
                local_metric = loads[lc]
            else:
                best_metric = loads[oc] / 1
                local_metric = loads[lc] / 1
            if best_metric <= local_metric * cache.ratio:
                if need_local:
                    return (
                        None,
                        self._singleton_stats(cache.entries[li], lc),
                        cache.examined,
                    )
                return None, None, cache.examined
            return (
                self._singleton_stats(cache.entries[oi], oc),
                self._singleton_stats(cache.entries[li], lc),
                cache.examined,
            )
        version = self._version
        gstats = self._gstats
        folds = self._scratch_folds
        del folds[:]
        append = folds.append
        for entry in cache.entries:
            m = gstats.get(id(entry[0]))
            if m is not None and m[1] == now and m[2] == version:
                append(m)
            else:
                # May still revalidate in place: _fold_entry's own
                # generation-sum probe catches stale-stamp-same-inputs
                # entries before paying for a refold.
                append(self._fold_entry(entry))
        local_idx = cache.local_slot.get(dst_cpu, -1)
        if local_idx < 0:
            return None, None, cache.examined
        local_m = folds[local_idx]
        n_slots = len(folds)
        if n_slots < 2:
            if need_local:
                return None, self._materialize(local_m), cache.examined
            return None, None, cache.examined
        # Three-tier selection (overloaded > imbalanced > any), first
        # max wins -- the scalar best_of chain over raw memo slots.
        best = -1
        best_metric = 0.0
        for tier in (0, 1, 2):
            i = 0
            while i < n_slots:
                if i != local_idx:
                    m = folds[i]
                    if tier == 0:
                        if m[6] <= m[11]:  # not overloaded
                            i += 1
                            continue
                    elif tier == 1:
                        if m[8] - m[7] < 2:  # not imbalanced
                            i += 1
                            continue
                    metric = m[4] if use_min else m[3] / m[11]
                    if best < 0 or metric > best_metric:
                        best = i
                        best_metric = metric
                i += 1
            if best >= 0:
                break
        if best < 0:
            if need_local:
                return None, self._materialize(local_m), cache.examined
            return None, None, cache.examined
        local_metric = (
            local_m[4] if use_min else local_m[3] / local_m[11]
        )
        if best_metric <= local_metric * cache.ratio:
            if need_local:
                return None, self._materialize(local_m), cache.examined
            return None, None, cache.examined
        return (
            self._materialize(folds[best]),
            self._materialize(local_m),
            cache.examined,
        )

    def _select_checked(
        self, cache: _DomainCache, local_idx: int
    ) -> Tuple[Optional[GroupStats], Optional[GroupStats]]:
        """Sanitizer-mode selection: every fold verified via group_stats.

        Runs the same three tiers over materialized GroupStats so each
        group passes through :meth:`group_stats`' cross-check against a
        from-scratch fold.
        """
        stats_list = [self.group_stats(entry[0]) for entry in cache.entries]
        if local_idx < 0:
            return None, None
        local = stats_list[local_idx]
        if len(stats_list) < 2:
            return None, local
        use_min = self._use_min
        best: Optional[GroupStats] = None
        best_metric = 0.0
        for tier in (0, 1, 2):
            for i, stats in enumerate(stats_list):
                if i == local_idx or stats is None:
                    continue
                if tier == 0 and not stats.overloaded:
                    continue
                if tier == 1 and not stats.imbalanced:
                    continue
                metric = stats.min_load if use_min else stats.avg_load
                if best is None or metric > best_metric:
                    best = stats
                    best_metric = metric
            if best is not None:
                break
        if best is None or local is None:
            return None, local
        local_metric = local.min_load if use_min else local.avg_load
        if best_metric <= local_metric * cache.ratio:
            return None, local
        return best, local

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The refreshed struct-of-arrays mirror, as plain lists.

        The vruntime floor is sampled here (it advances without epoch
        traffic, by design); loads/nr come from the coherent buffers.
        """
        self._check_epochs()
        self._sync()
        sched = self.sched
        nrs = list(self._nrs)
        return {
            "now": self.now,
            "load": [float(v) for v in self._loads],
            "nr_running": nrs,
            "vruntime_floor": [c.rq.min_vruntime for c in sched.cpus],
            "idle": [c.online and n == 0 for c, n in zip(sched.cpus, nrs)],
            "online": [c.online for c in sched.cpus],
            "epochs": {
                "load": sched.load_epoch.value,
                "idle": sched.idle_epoch.value,
                "divisor": self._div_epoch,
                "version": self._version,
            },
        }

    def __repr__(self) -> str:
        return (
            f"VecState(cpus={self._n}, now={self.now}us, "
            f"version={self._version})"
        )
