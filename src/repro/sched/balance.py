"""Hierarchical load balancing -- the paper's Algorithm 1.

For every scheduling domain of a CPU, bottom-up:

1. only the *designated* core balances the domain -- the first idle core of
   the domain if any core is idle, otherwise its first core (Lines 2-9);
2. the load of every scheduling group is computed (Line 10-12);
3. the busiest group is picked, preferring overloaded then imbalanced groups
   (Line 13);
4. if the busiest group's load does not exceed the local group's, the level
   is considered balanced (Lines 15-16);
5. otherwise tasks move from the busiest CPU of that group to the balancing
   CPU, excluding CPUs whose tasks are all pinned elsewhere (Lines 18-23).

The **Group Imbalance** bug (Section 3.1) is step 3/4's metric: mainline
compares group *average* loads, so one very loaded core (a high-load R
thread) conceals idle cores on its node.  The fix compares group *minimum*
loads: if another group's least-loaded core is still busier than ours, a
steal is always justified.

Also here: ``newidle_balance`` ("emergency" balancing when a core is about
to idle) and the NOHZ machinery that lets tickless idle cores be balanced on
behalf of (Section 2.2.2).

Every entry point runs one of two paths, picked by the scheduler's
features alone.  The reference path (``with_fastpath(False)``, where
``Scheduler.vec`` is None) recomputes each CPU's (load, nr_running) once
per domain level per group and reads like Algorithm 1.  The fast path
reads the scheduler's persistent
:class:`~repro.sched.vecstate.VecState` mirror (``Scheduler.vec``): it
samples each CPU once per timestamp, memoizes group folds until a member
queue mutates, and selects the busiest group in bulk.  Its folds use the
identical expressions (and float-op order) as the reference path, so
balancing decisions -- and therefore traces -- are byte-identical on
either path.  An attached probe decides what is recorded, never which
path runs.

On both paths an attempt first consults the spare set
(``Scheduler.overload``): an attempt whose domain holds no CPU with a
task to spare outside the local group cannot move anything, so it
returns before sampling (:func:`nothing_to_pull`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sched.load import load_sum
from repro.sched.runqueue import has_spare_task
from repro.sched.sanitizer import (
    verify_gated_skip,
    verify_overload,
    verify_skipped_attempt,
)

#: Gate sentinel above any reachable deadline: a CPU that currently wins
#: no level parks its gate here until it wins one (a reconciled election
#: shift) or hotplug rebuilds the domains -- both zero the gate.
_NEVER_DUE = 1 << 62

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.domains import SchedDomain, SchedGroup
    from repro.sched.scheduler import Scheduler
    from repro.sched.task import Task


@dataclass
class GroupStats:
    """Load statistics of one scheduling group, as the balancer sees it."""

    group: "SchedGroup"
    cpus: Tuple[int, ...]
    avg_load: float
    min_load: float
    max_load: float
    nr_running: int
    capacity: int

    @property
    def overloaded(self) -> bool:
        """More runnable tasks than CPUs."""
        return self.nr_running > self.capacity

    @property
    def imbalanced(self) -> bool:
        """Uneven queue depths inside the group (taskset corner cases)."""
        return self.max_nr - self.min_nr >= 2

    # populated alongside load stats
    min_nr: int = 0
    max_nr: int = 0


def group_metric(sched: "Scheduler", stats: GroupStats) -> float:
    """The load value groups are compared by.

    Average on the buggy path; minimum when the Group Imbalance fix is on.
    Computing either has the same cost, as the paper notes.
    """
    if sched.features.fix_group_imbalance:
        return stats.min_load
    return stats.avg_load


def compute_group_stats(
    sched: "Scheduler", group: "SchedGroup", now: int
) -> Optional[GroupStats]:
    """Fold per-CPU samples into one group's statistics; None if no CPU
    of the group is online.

    The reference fold: :class:`~repro.sched.vecstate.VecState` reproduces
    it expression for expression (same float-op order), and the coherence
    sanitizer refolds through it to check every fold the mirror's
    selection read.  The group's CPU tuple is already sorted (cached on
    the group; hotplug rebuilds make fresh groups), leaving only the
    online filter per call.
    """
    cpus = tuple(c for c in group.sorted_cpus() if sched.cpus[c].online)
    if not cpus:
        return None
    loads = [sched.cpus[c].rq.load(now) for c in cpus]
    nrs = [sched.cpus[c].rq.nr_running for c in cpus]
    return GroupStats(
        group=group,
        cpus=cpus,
        avg_load=load_sum(loads) / len(loads),
        min_load=min(loads),
        max_load=max(loads),
        nr_running=sum(nrs),
        capacity=len(cpus),
        min_nr=min(nrs),
        max_nr=max(nrs),
    )


def find_busiest_group(
    sched: "Scheduler",
    domain: "SchedDomain",
    dst_cpu: int,
    now: int,
) -> Tuple[Optional[GroupStats], Optional[GroupStats]]:
    """(busiest, local) group stats for a balancing attempt.

    Busiest is the overloaded group with the highest metric, else the
    imbalanced group with the highest metric, else the group with the
    highest metric -- the paper's Line 13.  Returns ``(None, local)`` when
    the domain is already balanced from ``dst_cpu``'s point of view.
    """
    vec = sched.vec
    if vec is not None:
        # Bulk path: folds and the three-tier selection run over the
        # persistent array mirror; decision-identical to
        # reference_busiest_group (the digest gate and the sanitizer
        # hold it to that), the same examined set in the same group
        # order included.
        busiest, local_stats, examined = vec.find_busiest(
            domain, dst_cpu, now
        )
    else:
        busiest, local_stats, examined = reference_busiest_group(
            sched, domain, dst_cpu, now
        )
    if sched.probe.active:
        sched.probe.on_considered(now, dst_cpu, "load_balance", examined)
    return busiest, local_stats


def reference_busiest_group(
    sched: "Scheduler", domain: "SchedDomain", dst_cpu: int, now: int
) -> Tuple[Optional[GroupStats], Optional[GroupStats], List[int]]:
    """The reference path's (busiest, local, examined) decision.

    Folds every group afresh and runs the selection of
    :func:`find_busiest_group`; emits nothing, so the coherence
    sanitizer can hold the fast path's answer against it without adding
    a record to the schedule.
    """
    local_stats = None
    others: List[GroupStats] = []
    examined: List[int] = []
    for group in domain.groups:
        stats = compute_group_stats(sched, group, now)
        if stats is None:
            continue
        examined.extend(stats.cpus)
        if dst_cpu in group.cpus and local_stats is None:
            local_stats = stats
        else:
            others.append(stats)
    if local_stats is None or not others:
        return None, local_stats, examined

    def best_of(candidates: Sequence[GroupStats]) -> Optional[GroupStats]:
        return max(
            candidates, key=lambda s: group_metric(sched, s), default=None
        )

    busiest = best_of([s for s in others if s.overloaded])
    if busiest is None:
        busiest = best_of([s for s in others if s.imbalanced])
    if busiest is None:
        busiest = best_of(others)
    if busiest is None:
        return None, local_stats, examined
    # The busiest group must exceed the local one by the domain's
    # imbalance percentage, or migrating is not worth the disturbance
    # (and integer task counts would ping-pong forever).
    threshold = group_metric(sched, local_stats) * domain.imbalance_ratio
    if group_metric(sched, busiest) <= threshold:
        return None, local_stats, examined
    return busiest, local_stats, examined


def pick_busiest_cpu(
    sched: "Scheduler",
    stats: GroupStats,
    excluded: FrozenSet[int],
    now: int,
) -> Optional[int]:
    """The CPU with the most queued work in the group (Line 18)."""
    best = None
    best_key = None
    for cpu_id in stats.cpus:
        if cpu_id in excluded:
            continue
        rq = sched.cpus[cpu_id].rq
        if not has_spare_task(rq.nr_running):
            continue  # a running or mid-dispatch task cannot be stolen
        key = (rq.load(now), rq.nr_running)
        if best_key is None or key > best_key:
            best = cpu_id
            best_key = key
    return best


def detach_candidates(
    sched: "Scheduler", src_cpu: int, dst_cpu: int
) -> List["Task"]:
    """Queued tasks on ``src_cpu`` whose affinity allows ``dst_cpu``."""
    rq = sched.cpus[src_cpu].rq
    return [t for t in rq.queued_tasks() if t.can_run_on(dst_cpu)]


def compute_imbalance(
    sched: "Scheduler", busiest: GroupStats, local: GroupStats
) -> float:
    """The load budget a balancing attempt may migrate.

    The kernel's ``calculate_imbalance``: the amount of load that would
    bring the two groups to their common level, expressed in task-load
    units.  When the group metrics are nearly equal this is ~0 and nothing
    moves -- the precise mechanism that makes the Group Imbalance bug
    silent (the averages look equal even though cores idle).
    """
    gap = group_metric(sched, busiest) - group_metric(sched, local)
    if gap <= 0:
        return 0.0
    return gap / 2.0 * min(busiest.capacity, local.capacity)


def move_tasks(
    sched: "Scheduler",
    src_cpu: int,
    dst_cpu: int,
    now: int,
    reason: str,
    budget: float,
) -> int:
    """Migrate queued tasks from ``src_cpu``, spending at most ``budget``
    load (the kernel's ``detach_tasks`` loop).

    A task moves only when half its load fits the remaining budget; at
    least one task moves when the destination is idle and the budget is
    positive (the work-conserving "emergency" case).  Returns the number
    moved.
    """
    if budget <= 0:
        return 0
    moved = 0
    src_rq = sched.cpus[src_cpu].rq
    dst_rq = sched.cpus[dst_cpu].rq
    remaining = budget
    while True:
        candidates = detach_candidates(sched, src_cpu, dst_cpu)
        if not candidates:
            break
        if src_rq.load(now) <= dst_rq.load(now):
            break  # pairwise overshoot guard
        must_move = moved == 0 and dst_rq.nr_running == 0
        fitting = [t for t in candidates if 2 * t.load(now) <= remaining]
        if fitting:
            task = max(fitting, key=lambda t: t.load(now))
        elif must_move:
            task = min(candidates, key=lambda t: t.load(now))
        else:
            break
        sched.migrate_task(task, src_cpu, dst_cpu, now, reason)
        remaining -= task.load(now)
        moved += 1
        if dst_rq.nr_running >= src_rq.nr_running:
            break
    return moved


def overloaded_rqs(sched: "Scheduler") -> Set[int]:
    """From-scratch set of the CPUs whose runqueue has a task to spare.

    The reference value of ``Scheduler.overload``, which the runqueues
    keep incrementally; the coherence sanitizer compares the two.
    """
    return {
        cpu.cpu_id for cpu in sched.cpus if has_spare_task(cpu.rq._nr_running)
    }


def nothing_to_pull(
    sched: "Scheduler", reach: Optional[FrozenSet[int]] = None
) -> bool:
    """True when no balancing attempt that can only pull from ``reach``
    (default: anywhere) can move a task.

    The kernel's ``!rd->overload`` early exit, refined per domain:
    :func:`pick_busiest_cpu` only accepts a CPU that passes
    ``has_spare_task``, so while no such CPU lies in ``reach`` the
    attempt ends "balanced" or "blocked" and nothing moves: its only
    observable output is its probe records.  A probe that consumes them
    (``Probe.wants_balance``) keeps every attempt; otherwise the attempt
    is skipped.
    """
    spare = sched.overload
    if spare if reach is None else not spare.isdisjoint(reach):
        return False
    probe = sched.probe
    if probe.active and probe.wants_balance:
        return False
    if sched.features.sanitize_coherence:
        verify_overload(spare, overloaded_rqs(sched))
    return True


def _check_nothing_found(
    sched: "Scheduler",
    domain: "SchedDomain",
    dst_cpu: int,
    now: int,
) -> None:
    """Sanitizer: a skipped attempt, run for real, finds no source CPU.

    Only probes that ignore balance records are attached when an attempt
    is skipped, so the dry run's records go unobserved.
    """
    busiest, _local = find_busiest_group(sched, domain, dst_cpu, now)
    src_cpu = (
        None if busiest is None
        else pick_busiest_cpu(sched, busiest, frozenset(), now)
    )
    verify_skipped_attempt(dst_cpu, domain.name, src_cpu)


def balance_domain(
    sched: "Scheduler",
    domain: "SchedDomain",
    dst_cpu: int,
    now: int,
) -> int:
    """One balancing attempt at one domain level (Lines 10-23).

    Skipped before any sampling when no CPU of the domain's non-local
    groups has a task to spare (see :func:`nothing_to_pull`).
    """
    if nothing_to_pull(sched, domain.remote_cpus(dst_cpu)):
        if sched.features.sanitize_coherence:
            _check_nothing_found(sched, domain, dst_cpu, now)
        return 0
    busiest, local = find_busiest_group(sched, domain, dst_cpu, now)
    probe = sched.probe
    active = probe.active
    if busiest is None:
        # The metric values feed only the probe record; an inert probe
        # (no consumer attached) skips computing them entirely.
        if active:
            probe.on_balance(
                now, dst_cpu, domain.name,
                group_metric(sched, local) if local is not None else 0.0,
                None, "balanced",
            )
        return 0
    # busiest is never returned without a local group.
    local_metric = group_metric(sched, local) if active else 0.0
    busiest_metric = group_metric(sched, busiest) if active else 0.0
    budget = compute_imbalance(sched, busiest, local)
    excluded: Set[int] = set()
    while True:
        src_cpu = pick_busiest_cpu(sched, busiest, frozenset(excluded), now)
        if src_cpu is None or src_cpu == dst_cpu:
            if active:
                probe.on_balance(
                    now, dst_cpu, domain.name, local_metric,
                    busiest_metric, "blocked",
                )
            return 0
        moved = move_tasks(
            sched, src_cpu, dst_cpu, now, f"balance:{domain.name}", budget
        )
        if moved:
            if active:
                probe.on_balance(
                    now, dst_cpu, domain.name, local_metric,
                    busiest_metric, f"moved:{moved}",
                )
            return moved
        # Lines 20-22: every candidate was pinned away from us; try the
        # next busiest CPU of the group.
        excluded.add(src_cpu)


def _elect_designated(sched: "Scheduler", group: "SchedGroup") -> int:
    # The designated-balancer election, the plain scan of Algorithm 1:
    # the reference path elects through it, and the fast path's memo
    # (VecState.designated_for) fills its misses from it and is checked
    # against it by tests/test_cross_path.py and the sanitizer.
    online = sorted(
        c for c in group.balance_mask() if sched.cpus[c].online
    )
    for candidate in online:
        if sched.cpus[candidate].is_idle:
            return candidate
    return online[0] if online else -1


def designated_cpu(
    sched: "Scheduler",
    domain: "SchedDomain",
    cpu_id: int,
) -> int:
    """The core responsible for balancing this domain (Lines 2-6).

    The first idle core of the balancing CPU's local group when one exists
    (its free cycles pay for the balancing), otherwise the group's first
    core -- the kernel's ``should_we_balance`` election.  Overlapping NUMA
    groups restrict the election to the group's balance mask: that is what
    allows an idle remote node to balance on its own behalf once the
    Scheduling Group Construction fix builds per-perspective groups.
    """
    try:
        local = domain.local_group(cpu_id)
    except ValueError:
        return -1
    return _elect_designated(sched, local)


def periodic_balance(
    sched: "Scheduler",
    cpu_id: int,
    now: int,
    force: bool = False,
) -> int:
    """Run Algorithm 1 for one CPU across all its domains, bottom-up.

    Honors the designated-core rule and each level's balancing interval
    unless ``force`` is set (used by tests and the NOHZ path's first kick).

    On the fast path the callers (:meth:`Scheduler.tick` and the NOHZ
    due-sweep below) have already consulted the CPU's balance gate and
    call this only for a CPU whose walk may do something; the walk
    re-arms the gate when it ends.
    """
    moved = 0
    cpu = sched.cpus[cpu_id]
    vec = sched.vec
    if vec is not None:
        # The gate: the mirror records, per CPU, the earliest
        # next-balance deadline among the levels the CPU currently wins,
        # and a caller skips the CPU while that sits in the future.  The
        # walk stamps its new earliest deadline at the end; ``force``
        # leaves the gate untouched (force only pushes deadlines later,
        # so the gate stays early).  set_gate refuses the stamp if the
        # CPU's arming epoch moved under the walk (its own migrations
        # flip idle states that may re-elect this very CPU).
        gate_tok = vec.gate_token(cpu_id)
        # Fast path: the per-level (domain, local group, solo
        # winner) triple never changes between topology rebuilds, so it
        # is planned once per domain generation and cached on the Cpu.
        # Single-CPU balance masks (every bottom-level group) elect
        # themselves without even a memo probe; wider masks go through
        # VecState's election memo, which re-elects only on real
        # idle<->busy transitions of a mask member and therefore
        # outlives the global idle epoch (which sleeper churn bumps
        # thousands of times a second).
        builder = sched.domain_builder
        plan = cpu.balance_plan
        if plan is None or cpu.balance_plan_gen != builder.generation:
            domains = builder.domains_of(cpu_id)
            while len(cpu.next_balance_us) < len(domains):
                cpu.next_balance_us.append(-1)
            plan = []
            for domain in domains:
                try:
                    local = domain.local_group(cpu_id)
                except ValueError:
                    plan.append((domain, None, -1))
                    continue
                mask = local.sorted_balance_mask()
                solo = mask[0] if len(mask) == 1 else -1
                plan.append((domain, local, solo))
            cpu.balance_plan = plan
            cpu.balance_plan_gen = builder.generation
        cpus = sched.cpus
        next_balance = cpu.next_balance_us
        gate = _NEVER_DUE
        for domain, local, solo in plan:
            if local is None:
                continue  # no local group here: never the winner
            # Election before the interval check (the reverse of the
            # reference loop): elections read only idle/online flags, are
            # memoized, and emit nothing, so the reorder is unobservable
            # -- and the gate needs the winner of non-due levels too.
            if solo >= 0:
                winner = solo if cpus[solo].online else -1
            else:
                winner = vec.designated_for(local)
            if cpu_id != winner:
                continue
            stamp = next_balance[domain.level]
            if not force and 0 <= stamp and now < stamp:
                if stamp < gate:
                    gate = stamp
                continue
            stamp = now + domain.balance_interval_us
            next_balance[domain.level] = stamp
            if stamp < gate:
                gate = stamp
            moved += balance_domain(sched, domain, cpu_id, now)
        if not force:
            vec.set_gate(cpu_id, gate, gate_tok)
        return moved
    domains = sched.domain_builder.domains_of(cpu_id)
    while len(cpu.next_balance_us) < len(domains):
        cpu.next_balance_us.append(-1)
    for domain in domains:
        # Interval gate first: a level that is not due yet skips the
        # designated-CPU election entirely (the election only reads
        # idle/online state, so skipping it is unobservable).  A level
        # never balanced before (stamp < 0) is immediately due: domains
        # were created long "before" the workload (the machine has been
        # up), so the first interval has long expired.
        stamp = cpu.next_balance_us[domain.level]
        if not force and 0 <= stamp and now < stamp:
            continue
        if cpu_id != designated_cpu(sched, domain, cpu_id):
            continue
        cpu.next_balance_us[domain.level] = now + domain.balance_interval_us
        moved += balance_domain(sched, domain, cpu_id, now)
    return moved


def check_gated_skip(sched: "Scheduler", cpu_id: int, now: int) -> None:
    """Sanitizer: re-elect every level of a gated CPU from scratch.

    Called by each caller that skips a CPU at its gate; raises
    :class:`~repro.sched.sanitizer.CoherenceError` if some level the CPU
    wins is due.
    """
    cpu = sched.cpus[cpu_id]
    stamps = cpu.next_balance_us
    levels = []
    for domain in sched.domain_builder.domains_of(cpu_id):
        try:
            local = domain.local_group(cpu_id)
        except ValueError:
            continue
        stamp = stamps[domain.level] if domain.level < len(stamps) else -1
        levels.append((domain.name, _elect_designated(sched, local), stamp))
    verify_gated_skip(cpu_id, now, levels)


def newidle_balance(sched: "Scheduler", cpu_id: int, now: int) -> int:
    """Emergency balancing when a core is about to go idle.

    Walks the domains bottom-up and stops at the first level that yields
    work.  Uses the same ``find_busiest_group`` logic -- and therefore
    inherits the same bugs.  Like the kernel it returns at once when no
    runqueue has a task to spare, before sampling anything.
    """
    if nothing_to_pull(sched):
        return 0
    moved = 0
    for domain in sched.domain_builder.domains_of(cpu_id):
        moved += balance_domain(sched, domain, cpu_id, now)
        if moved:
            break
    return moved


def nohz_kick_target(sched: "Scheduler") -> Optional[int]:
    """The tickless idle core to wake as the NOHZ balancer (lowest id)."""
    for cpu in sched.cpus:
        if cpu.is_idle and cpu.tickless:
            return cpu.cpu_id
    return None


def nohz_idle_balance(
    sched: "Scheduler",
    balancer_cpu: int,
    now: int,
) -> int:
    """Periodic balancing run by the NOHZ balancer for all tickless cores.

    The balancer core runs the load-balancing routine "for itself and on
    behalf of all tickless idle cores" -- each idle core is balanced from
    its own perspective (steals land on that core).  All those
    perspectives share one timestamp, so the fast path's mirror serves
    their group-stats reads from one sampling sweep.
    """
    sched.cpus[balancer_cpu].nohz_balancer = True
    moved = 0
    vec = sched.vec
    if vec is not None:
        # Due-reduction: the sweep walks only the CPUs whose gate has
        # expired (``balance_due``, one array reduction), in ascending id
        # order like the reference sweep; a gated CPU's walk would
        # attempt nothing, emit nothing and stamp nothing.  Offline/busy
        # CPUs may appear (gates are not maintained for them) and are
        # filtered exactly as below.  One wrinkle: a walk's migrations
        # can zero a *later* CPU's gate mid-sweep, which the lazy
        # reference would observe on reaching that CPU -- the mirror's
        # disarm counter detects that and the due set is recomputed for
        # the ids not yet visited.  The sanitizer re-elects every idle
        # CPU the sweep passes over.
        cpus = sched.cpus
        sanitize = sched.features.sanitize_coherence
        tok = vec.disarm_token()
        due = vec.balance_due(now)
        skipped_from = 0
        i = 0
        while i < len(due):
            cpu_id = due[i]
            i += 1
            if sanitize:
                _check_swept_past(sched, skipped_from, cpu_id, now)
                skipped_from = cpu_id + 1
            if not cpus[cpu_id].is_idle:
                continue
            moved += periodic_balance(sched, cpu_id, now)
            fresh = vec.disarm_token()
            if fresh != tok:
                tok = fresh
                due = [c for c in vec.balance_due(now) if c > cpu_id]
                i = 0
        if sanitize:
            _check_swept_past(sched, skipped_from, len(cpus), now)
        return moved
    for cpu in sched.cpus:
        if not cpu.is_idle:
            continue
        moved += periodic_balance(sched, cpu.cpu_id, now)
    return moved


def _check_swept_past(
    sched: "Scheduler", lo: int, hi: int, now: int
) -> None:
    """Sanitizer: verify the gate of each idle CPU in ``[lo, hi)``."""
    for cpu in sched.cpus[lo:hi]:
        if cpu.is_idle:
            check_gated_skip(sched, cpu.cpu_id, now)
