"""Wakeup and fork placement (``select_task_rq_fair``).

Home of the **Overload-on-Wakeup** bug (paper Section 3.3): on the mainline
path, when the waker runs on the same node where the sleeping thread last
ran, only that node's cores are considered -- for cache reuse -- so the
thread can wake on a busy core while other nodes have idle cores.

The fixed path (the paper's patch) wakes the thread on its previous core if
idle, otherwise on the core that has been idle the **longest** in the whole
system (constant-time: the kernel already keeps an idle-core list), and only
falls back to the original algorithm when no core is idle.  The fix steps
aside when the power policy allows deep idle states.

Fork placement walks ``find_idlest_group`` down the domain hierarchy, which
is why the Scheduling Group Construction bug also pins *new* threads to
their parent's node: the descent compares the same (buggy) group loads the
balancer uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.sched.sanitizer import verify_idle_sibling

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.domains import SchedDomain, SchedGroup
    from repro.sched.scheduler import Scheduler
    from repro.sched.task import Task


def select_task_rq_wake(
    sched: "Scheduler",
    task: "Task",
    waker_cpu: Optional[int],
    now: int,
) -> int:
    """Choose the CPU a woken task runs on."""
    prev = _usable_prev(sched, task, waker_cpu)

    if _fix_active(sched):
        prev_cpu_obj = sched.cpu(prev)
        if prev_cpu_obj.online and prev_cpu_obj.is_idle:
            return prev
        idle = _longest_idle_cpu(sched, task, now)
        if idle is not None:
            return idle
        # No idle core anywhere: fall back to the original algorithm.

    return _mainline_wake(sched, task, prev, waker_cpu, now)


def select_task_rq_fork(
    sched: "Scheduler",
    task: "Task",
    parent_cpu: int,
    now: int,
) -> int:
    """Choose the CPU a newly-forked task starts on.

    Linux spawns threads on the same core as their parent and lets
    ``find_idlest_group`` spread them; the descent inherits whatever group
    structure (buggy or fixed) the domain builder produced.
    """
    if not sched.cpu(parent_cpu).online:
        parent_cpu = _any_allowed_cpu(sched, task, parent_cpu)
    target = find_idlest_cpu(
        sched, task, parent_cpu, now, numa_levels=False
    )
    if task.can_run_on(target):
        return target
    return _any_allowed_cpu(sched, task, parent_cpu)


# ---------------------------------------------------------------------------
# mainline path
# ---------------------------------------------------------------------------


def _mainline_wake(
    sched: "Scheduler",
    task: "Task",
    prev: int,
    waker_cpu: Optional[int],
    now: int,
) -> int:
    """The cache-affine wakeup the paper found in kernels 2.6.32+.

    When waker and sleeper share a node, only that node is examined
    (``select_idle_sibling`` scoped to the LLC domain).  When they differ,
    ``wake_affine`` picks the less-loaded of the two ends and the idle-core
    search happens around it -- still a single node.
    """
    topo = sched.topology
    if waker_cpu is None or not sched.cpu(waker_cpu).online:
        target = prev
    elif topo.node_of(waker_cpu) == topo.node_of(prev):
        # The Overload-on-Wakeup trigger: stay on the shared node.
        target = prev
    else:
        waker_load = sched.cpu(waker_cpu).rq.load(now)
        prev_load = sched.cpu(prev).rq.load(now)
        target = waker_cpu if waker_load < prev_load else prev
        if not task.can_run_on(target):
            target = prev if task.can_run_on(prev) else target
    return _select_idle_sibling(sched, task, target, now)


def _select_idle_sibling(
    sched: "Scheduler", task: "Task", target: int, now: int
) -> int:
    """An idle allowed core in ``target``'s LLC domain, else ``target``.

    This never looks outside the node -- exactly the scoping that causes
    wakeups to pile onto busy cores while remote nodes sit idle.  The
    fast path answers from the topology's sorted sibling tuples without
    building the candidate list, which only a recording probe reads.
    """
    probe = sched.probe
    if sched.vec is None or (probe.active and probe.wants_balance()):
        return _scan_idle_sibling(sched, task, target, now)
    pick = _fast_idle_sibling(sched, task, target, now)
    if sched.features.sanitize_coherence:
        verify_idle_sibling(
            target, pick, _scan_idle_sibling(sched, task, target, now)
        )
    return pick


def _fast_idle_sibling(
    sched: "Scheduler", task: "Task", target: int, now: int
) -> int:
    """:func:`_scan_idle_sibling`'s answer, in its order, list-free."""
    cpus = sched.cpus
    topo = sched.topology
    allowed = task.can_run_on
    if allowed(target) and cpus[target].is_idle:
        return target
    # SMT siblings share the node, so the sorted sibling tuple visits
    # them in the LLC scan's order.
    for c in topo.sorted_smt_siblings(target):
        cpu = cpus[c]
        if cpu.online and cpu.rq._nr_running == 0 and allowed(c):
            return c
    llc = topo.sorted_llc_siblings(target)
    for c in llc:
        cpu = cpus[c]
        if cpu.online and cpu.rq._nr_running == 0 and allowed(c):
            return c
    if allowed(target):
        return target
    best = -1
    best_load = 0.0
    for c in llc:
        cpu = cpus[c]
        if cpu.online and allowed(c):
            load = cpu.rq.load(now)
            if best < 0 or load < best_load:
                best = c
                best_load = load
    if best >= 0:
        return best
    return _any_allowed_cpu(sched, task, target)


def _scan_idle_sibling(
    sched: "Scheduler", task: "Task", target: int, now: int
) -> int:
    """The reference idle-sibling search over the candidate list."""
    topo = sched.topology
    candidates = [
        c
        for c in sorted(topo.llc_siblings(target))
        if sched.cpu(c).online and task.can_run_on(c)
    ]
    probe = sched.probe
    if probe.active:
        probe.on_considered(now, target, "select_idle_sibling", candidates)
    if task.can_run_on(target) and sched.cpu(target).is_idle:
        return target
    # Prefer an idle SMT sibling (shared FPU, hottest cache), then any
    # idle core in the node.
    siblings = topo.smt_siblings(target)
    for cpu_id in candidates:
        if cpu_id in siblings and sched.cpu(cpu_id).is_idle:
            return cpu_id
    for cpu_id in candidates:
        if sched.cpu(cpu_id).is_idle:
            return cpu_id
    if task.can_run_on(target):
        return target
    if candidates:
        return min(candidates, key=lambda c: sched.cpu(c).rq.load(now))
    return _any_allowed_cpu(sched, task, target)


# ---------------------------------------------------------------------------
# fixed path
# ---------------------------------------------------------------------------


def _fix_active(sched: "Scheduler") -> bool:
    features = sched.features
    return features.fix_overload_on_wakeup and not features.power_aware_wakeup


def _longest_idle_cpu(
    sched: "Scheduler", task: "Task", now: int
) -> Optional[int]:
    """The allowed online core idle for the longest time, if any.

    The kernel keeps idle cores in a list ordered by idle entry, so taking
    the head is O(1); our scan is O(cpus) but equivalent in result.
    """
    best: Optional[int] = None
    best_since: Optional[int] = None
    considered: List[int] = []
    for cpu in sched.cpus:
        if not cpu.online or not cpu.is_idle:
            continue
        if not task.can_run_on(cpu.cpu_id):
            continue
        considered.append(cpu.cpu_id)
        since = cpu.idle_since_us if cpu.idle_since_us is not None else now
        if best_since is None or since < best_since:
            best = cpu.cpu_id
            best_since = since
    if considered and sched.probe.active:
        sched.probe.on_considered(
            now, considered[0], "wake_longest_idle", considered
        )
    return best


# ---------------------------------------------------------------------------
# find_idlest_group descent (fork / remote wake fallback)
# ---------------------------------------------------------------------------


def find_idlest_cpu(
    sched: "Scheduler",
    task: "Task",
    start_cpu: int,
    now: int,
    numa_levels: bool = True,
) -> int:
    """Walk the domain hierarchy top-down toward the idlest allowed CPU.

    ``numa_levels=False`` restricts the walk to intra-node domains (the
    fork path: NUMA levels carry no ``SD_BALANCE_FORK``), so a child starts
    on its parent's node no matter how loaded it is.
    """

    def eligible(domains: List["SchedDomain"]) -> List["SchedDomain"]:
        return [
            d for d in domains if numa_levels or not d.numa
        ]

    cpu_id = start_cpu
    domains = eligible(sched.domain_builder.domains_of(cpu_id))
    level = len(domains) - 1
    while level >= 0:
        domains = eligible(sched.domain_builder.domains_of(cpu_id))
        if level >= len(domains):
            level = len(domains) - 1
            continue
        domain = domains[level]
        group = _find_idlest_group(sched, domain, cpu_id, task, now)
        if group is not None:
            chosen = _idlest_cpu_in(sched, group.cpus, task, now)
            if chosen is not None:
                cpu_id = chosen
        level -= 1
    if task.can_run_on(cpu_id) and sched.cpu(cpu_id).online:
        return cpu_id
    return _any_allowed_cpu(sched, task, cpu_id)


def _find_idlest_group(
    sched: "Scheduler",
    domain: "SchedDomain",
    cpu_id: int,
    task: "Task",
    now: int,
) -> Optional["SchedGroup"]:
    """The group worth descending into, or None to stay local.

    Uses the same group-load metric as the balancer; the local group wins
    ties and small differences (the kernel's imbalance percentage), which is
    what keeps freshly-forked threads near their parent.
    """
    local: Optional[Tuple["SchedGroup", float]] = None
    best: Optional["SchedGroup"] = None
    best_load: Optional[float] = None
    examined: List[int] = []
    for group in domain.groups:
        allowed = [
            c
            for c in group.cpus
            if sched.cpu(c).online and task.can_run_on(c)
        ]
        if not allowed:
            continue
        examined.extend(allowed)
        load = _group_avg_load(sched, allowed, now)
        if cpu_id in group.cpus and local is None:
            local = (group, load)
            continue
        if best_load is None or load < best_load:
            best = group
            best_load = load
    if sched.probe.active:
        sched.probe.on_considered(now, cpu_id, "find_idlest_group", examined)
    if best is None:
        return local[0] if local is not None else None
    if local is None:
        return best
    local_group, local_load = local
    # Kernel imbalance margin (~12%): stay local unless clearly idler.
    if best_load is not None and best_load * 1.12 < local_load:
        return best
    return local_group


def _group_avg_load(
    sched: "Scheduler", cpus: Iterable[int], now: int
) -> float:
    cpus = list(cpus)
    if not cpus:
        return 0.0
    return sum(sched.cpu(c).rq.load(now) for c in cpus) / len(cpus)


def _idlest_cpu_in(
    sched: "Scheduler", cpus: Iterable[int], task: "Task", now: int
) -> Optional[int]:
    best: Optional[int] = None
    best_key: Optional[Tuple[int, float]] = None
    for cpu_id in sorted(cpus):
        cpu = sched.cpu(cpu_id)
        if not cpu.online or not task.can_run_on(cpu_id):
            continue
        key = (cpu.rq.nr_running, cpu.rq.load(now))
        if best_key is None or key < best_key:
            best = cpu_id
            best_key = key
    return best


def _usable_prev(
    sched: "Scheduler", task: "Task", waker_cpu: Optional[int]
) -> int:
    prev = task.prev_cpu
    if prev is None or not sched.cpu(prev).online or not task.can_run_on(prev):
        if waker_cpu is not None and task.can_run_on(waker_cpu) and sched.cpu(
            waker_cpu
        ).online:
            return waker_cpu
        return _any_allowed_cpu(sched, task, prev if prev is not None else 0)
    return prev


def _any_allowed_cpu(sched: "Scheduler", task: "Task", hint: int) -> int:
    """Deterministic fallback: the lowest-id online allowed CPU."""
    for cpu in sched.cpus:
        if cpu.online and task.can_run_on(cpu.cpu_id):
            return cpu.cpu_id
    raise RuntimeError(
        f"no online CPU allowed for task {task.tid} (hint {hint})"
    )
