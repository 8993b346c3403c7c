"""The scheduler facade: per-CPU CFS + domains + balancing + wakeup.

:class:`Scheduler` owns the per-CPU state (:class:`~repro.sched.cpu.Cpu`),
the domain hierarchy, and the cgroup manager, and exposes the decision
points the simulator drives:

* :meth:`place_new_task` / :meth:`wake_task` -- fork and wakeup placement;
* :meth:`pick_next_task` / :meth:`deschedule` -- context switching;
* :meth:`tick` -- 1 ms accounting, preemption checks, periodic and NOHZ
  balancing;
* :meth:`set_cpu_online` -- hotplug with domain regeneration.

The scheduler is simulation-agnostic: it never touches the event loop.  It
reports CPUs that need the simulator's attention through ``pending_dispatch``
(an idle CPU received work) and ``pending_resched`` (a running task must be
preempted), which the simulator drains after every call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sched import balance as lb
from repro.sched import cfs
from repro.sched import wakeup as wk
from repro.sched.cgroup import CGroupManager
from repro.sched.cpu import Cpu
from repro.sched.domains import DomainBuilder
from repro.sched.features import SchedFeatures
from repro.sched.load import LoadEpoch
from repro.sched.pickindex import PickIndex
from repro.sched.runqueue import OverloadCount
from repro.sched.task import Task, TaskState
from repro.sched.vecstate import VecState
from repro.topology.machine import MachineTopology
from repro.viz.events import Probe


class Scheduler:
    """The simulated kernel scheduler for one machine."""

    def __init__(
        self,
        topology: MachineTopology,
        features: Optional[SchedFeatures] = None,
        probe: Optional[Probe] = None,
        cgroups: Optional[CGroupManager] = None,
    ):
        self.topology = topology
        self.features = features or SchedFeatures()
        self.probe = probe or Probe()
        self.cgroups = cgroups or CGroupManager(
            autogroup_enabled=self.features.autogroup_enabled,
            metric=self.features.load_metric,
        )
        #: Machine-wide dirty counter for cached runqueue loads; shared by
        #: every runqueue and the cgroup manager (divisor changes dirty
        #: member loads without any runqueue event).
        self.load_epoch = LoadEpoch()
        #: Bumped only on idle<->busy transitions (and hotplug): the
        #: designated-balancer election reads nothing else, so its memo
        #: survives ordinary load churn.
        self.idle_epoch = LoadEpoch()
        #: Bumped when a cgroup divisor changes (attach/detach), dirtying
        #: per-queue load caches without any runqueue event.
        self.divisor_epoch = LoadEpoch()
        #: Runqueues with a task to spare (the kernel's ``rd->overload``,
        #: kept as an exact count by every runqueue): while it is zero no
        #: balancing attempt can move anything, so the balancers skip
        #: their walks (see ``repro.sched.balance.nothing_to_pull``).
        self.overload = OverloadCount()
        self.cgroups.bind_load_epoch(self.load_epoch, self.divisor_epoch)
        self.cpus: List[Cpu] = [
            Cpu(
                cpu_id,
                self.probe,
                load_epoch=self.load_epoch,
                load_cache=self.features.perf_load_cache,
                idle_epoch=self.idle_epoch,
                divisor_epoch=self.divisor_epoch,
                sanitize=self.features.sanitize_coherence,
                overload=self.overload,
            )
            for cpu_id in range(topology.num_cpus)
        ]
        self.domain_builder = DomainBuilder(topology, self.features)
        #: Persistent array-backed sampling layer (the vectorized core).
        #: It subsumes the per-pass BalancePass, so it is only built when
        #: the fast paths it replaces are on; every runqueue gets a
        #: write-through hook so mutations mark their mirror slot dirty.
        self.vec: Optional[VecState] = None
        if (
            self.features.perf_vectorized
            and self.features.perf_balance_stats
            and self.features.perf_load_cache
        ):
            self.vec = VecState(self)
            for cpu in self.cpus:
                cpu.rq.vec = self.vec
                # The array-backed pick index rides the same gate: the
                # rbtree stays authoritative, the index makes pick_next
                # a cached-min probe (argmin on stale-min misses).
                cpu.rq.pidx = PickIndex(self.vec.ops)
        #: Live tasks by tid.
        self.tasks: Dict[int, Task] = {}
        #: Idle CPUs that received work and need a dispatch.
        self.pending_dispatch: Set[int] = set()
        #: Busy CPUs whose running task should be preempted.
        self.pending_resched: Set[int] = set()
        #: Aggregate counters for experiments.
        self.total_migrations = 0
        self.balance_calls = 0

    # -- lookups -------------------------------------------------------------

    def cpu(self, cpu_id: int) -> Cpu:
        return self.cpus[cpu_id]

    def vec_pass(self, now: int) -> Optional[lb.SamplingPass]:
        """The sampling layer for one rebalance pass at ``now``.

        The persistent vectorized mirror when enabled (one instance, so
        the synchronized newidle bursts sharing a timestamp hit its
        memos), else a fresh per-pass :class:`~repro.sched.balance.
        BalancePass`, else None (the baseline recompute-everything mode).
        """
        if self.vec is not None:
            return self.vec.begin(now)
        if self.features.perf_balance_stats:
            return lb.BalancePass(self, now)
        return None

    def online_cpus(self) -> List[Cpu]:
        return [c for c in self.cpus if c.online]

    def idle_cpus(self) -> List[Cpu]:
        """Online idle CPUs, longest-idle first."""
        idle = [c for c in self.cpus if c.online and c.is_idle]
        idle.sort(
            key=lambda c: (
                c.idle_since_us if c.idle_since_us is not None else 1 << 62
            )
        )
        return idle

    def drain_pending(self) -> Tuple[Set[int], Set[int]]:
        """(dispatch, resched) CPU sets accumulated since the last drain."""
        dispatch, resched = self.pending_dispatch, self.pending_resched
        self.pending_dispatch = set()
        self.pending_resched = set()
        return dispatch, resched

    # -- task lifecycle --------------------------------------------------------

    def register_task(self, task: Task) -> None:
        """Track a task and attach it to its cgroup (root if unset)."""
        self.tasks[task.tid] = task
        if task.cgroup is None:
            self.cgroups.attach(task)

    def place_new_task(
        self, task: Task, parent_cpu: int, now: int
    ) -> int:
        """Fork-time placement: find the idlest CPU and enqueue there."""
        self.register_task(task)
        target = wk.select_task_rq_fork(self, task, parent_cpu, now)
        self.probe.on_lifecycle(now, task.tid, "fork", target)
        self._enqueue_on(task, target, now, wakeup=False)
        return target

    def enqueue_task_on(self, task: Task, cpu_id: int, now: int) -> None:
        """Force a task onto a specific runqueue (experiment setup).

        Bypasses placement decisions; affinity is still enforced.
        """
        if not task.can_run_on(cpu_id):
            raise ValueError(f"{task} affinity forbids cpu {cpu_id}")
        if task.tid not in self.tasks:
            self.register_task(task)
        self.probe.on_lifecycle(now, task.tid, "fork", cpu_id)
        self._enqueue_on(task, cpu_id, now, wakeup=False)

    def wake_task(
        self, task: Task, waker_cpu: Optional[int], now: int
    ) -> int:
        """Wakeup placement: run ``select_task_rq`` and enqueue.

        Sets ``pending_dispatch`` when the chosen CPU was idle, or
        ``pending_resched`` when the woken task should preempt.
        """
        if task.state not in (TaskState.SLEEPING, TaskState.BLOCKED,
                              TaskState.NEW):
            raise ValueError(f"cannot wake {task} in state {task.state}")
        target = wk.select_task_rq_wake(self, task, waker_cpu, now)
        was_idle = self.cpu(target).is_idle
        task.tracker.update(now, was_running=False)
        task.stats.wakeups += 1
        if not was_idle:
            task.stats.wakeups_on_busy_core += 1
        if task.prev_cpu is not None and task.prev_cpu != target:
            task.stats.migrations += 1
            self.total_migrations += 1
        self.probe.on_wakeup(now, task.tid, target, waker_cpu, was_idle)
        self._enqueue_on(task, target, now, wakeup=True)
        return target

    def task_exited(self, task: Task, now: int) -> None:
        """Tear down an exiting task (must not be enqueued anywhere)."""
        task.state = TaskState.EXITED
        task.stats.exit_time_us = now
        task.cpu = None
        self.cgroups.detach(task)
        self.probe.on_lifecycle(now, task.tid, "exit", task.prev_cpu)
        self.tasks.pop(task.tid, None)

    def _enqueue_on(
        self, task: Task, cpu_id: int, now: int, wakeup: bool
    ) -> None:
        cpu = self.cpus[cpu_id]
        if not cpu.online:
            raise ValueError(f"cpu {cpu_id} is offline")
        was_idle = cpu.is_idle
        cpu.rq.enqueue(task, now, wakeup=wakeup)
        if was_idle:
            self.pending_dispatch.add(cpu_id)
        elif (
            wakeup
            and self.features.wakeup_preemption_enabled
            and cfs.should_preempt_on_wakeup(self.features, cpu.rq.curr, task)
        ):
            self.pending_resched.add(cpu_id)

    # -- context switching -------------------------------------------------------

    def pick_next_task(self, cpu_id: int, now: int) -> Optional[Task]:
        """Pick the leftmost task; try newidle balancing before idling.

        The caller must have descheduled the previous task.  Returns None
        (and marks the CPU idle) when no work could be found or stolen.
        """
        cpu = self.cpus[cpu_id]
        if cpu.rq.curr is not None:
            raise RuntimeError(
                f"cpu {cpu_id} still runs {cpu.rq.curr}; deschedule first"
            )
        task = cpu.rq.pick_next()
        if (
            task is None
            and cpu.online
            and self.features.newidle_balance_enabled
            and cpu.avg_idle_us >= self.features.migration_cost_us
        ):
            # Short-term idle CPUs skip newidle balancing (avg_idle below
            # the migration cost), exactly like the kernel -- and exactly
            # why they are useless for recovering from wakeup pile-ups.
            lb.newidle_balance(self, cpu_id, now)
            task = cpu.rq.pick_next()
        if task is None:
            cpu.mark_idle(now)
            return None
        cpu.rq.take(task, now)
        cpu.rq.set_current(task, now)
        cpu.mark_busy(now)
        cpu.last_account_us = now
        task.exec_start_us = now
        task.stats.wait_time_us += max(0, now - task.stats.last_enqueue_us)
        self.pending_dispatch.discard(cpu_id)
        self.probe.on_sched_switch(now, cpu_id, None, task.tid, task.name)
        return task

    def account(self, cpu_id: int, now: int) -> int:
        """Charge runtime since the last accounting point; returns the delta."""
        cpu = self.cpus[cpu_id]
        delta = now - cpu.last_account_us
        if delta <= 0:
            return 0
        curr = cpu.rq.curr
        if curr is not None:
            cfs.account_runtime(curr, now, delta)
            cpu.busy_time_us += delta
        cpu.last_account_us = now
        cpu.rq.update_min_vruntime()
        return delta

    def deschedule(
        self, cpu_id: int, now: int, requeue: bool
    ) -> Optional[Task]:
        """Remove the running task from the CPU.

        ``requeue=True`` puts it back in the runqueue (preemption);
        ``requeue=False`` leaves it dequeued (sleep/block/exit -- the caller
        sets the final state).  Runtime is accounted first.
        """
        cpu = self.cpus[cpu_id]
        curr = cpu.rq.curr
        if curr is None:
            return None
        self.account(cpu_id, now)
        if requeue:
            cpu.rq.put_prev(curr, now)
            curr.stats.preemptions += 1
        else:
            cpu.rq.set_current(None, now)
            curr.cpu = None
        curr.exec_start_us = None
        self.probe.on_sched_switch(now, cpu_id, curr.tid, None)
        return curr

    def migrate_task(
        self, task: Task, src_cpu: int, dst_cpu: int, now: int, reason: str
    ) -> None:
        """Move a queued (not running) task between runqueues."""
        if task.state is not TaskState.RUNNABLE:
            raise ValueError(f"cannot migrate {task} in state {task.state}")
        src = self.cpu(src_cpu)
        dst = self.cpu(dst_cpu)
        src.rq.take(task, now)
        task.stats.migrations += 1
        self.total_migrations += 1
        self.probe.on_migration(now, task.tid, src_cpu, dst_cpu, reason)
        was_idle = dst.is_idle
        dst.rq.enqueue(task, now, wakeup=False)
        if was_idle:
            self.pending_dispatch.add(dst_cpu)

    # -- tick ---------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """The periodic scheduler tick (1 ms).

        Busy CPUs account runtime, check tick preemption, and run the
        periodic balancer (designated-core + interval rules apply).  Idle
        CPUs are tickless; if some CPU is overloaded, the first tickless
        idle CPU is kicked as the NOHZ balancer and balances on behalf of
        every idle CPU.
        """
        if self.vec is not None:
            self._tick_vec(now)
            return
        overloaded = False
        # One stats pass serves every CPU balanced this tick (and the NOHZ
        # sweep below): they all observe the same timestamp, so per-CPU
        # samples and folded group stats carry across until a migration
        # dirties the load epoch.
        bpass = self.vec_pass(now)
        for cpu in self.cpus:
            if not cpu.online:
                continue
            curr = cpu.rq.curr
            if curr is None:
                continue  # tickless idle: no tick runs here
            self.account(cpu.cpu_id, now)
            if cpu.rq.nr_running >= 2:
                overloaded = True
            started = curr.exec_start_us if curr.exec_start_us is not None else now
            ran = now - started
            if cfs.should_preempt_at_tick(self.features, cpu.rq, curr, ran):
                self.pending_resched.add(cpu.cpu_id)
            self.balance_calls += 1
            lb.periodic_balance(self, cpu.cpu_id, now, bpass=bpass)
        if overloaded and self.features.nohz_idle_balance_enabled:
            balancer = lb.nohz_kick_target(self)
            if balancer is not None:
                lb.nohz_idle_balance(self, balancer, now, bpass=bpass)

    def _tick_vec(self, now: int) -> None:
        """The tick body, batched over the busy-CPU cohort (vec gate).

        Two phases, digest-identical to the scalar loop above:

        **Gather** walks the busy CPUs once, hoisting each row's
        accounting inputs (account delta, vruntime, ran, slice operands,
        leftmost waiting vruntime) into flat arrays and running the
        vruntime/preempt arithmetic as one ``tick_batch`` kernel call.
        Rows whose tracker has not exactly converged (``util != 1.0``)
        fall back to the scalar ``account_runtime`` in-frame -- the
        cohort-divergence rule.  Hoisting account effects above earlier
        CPUs' balances is safe because balancing reads only queue loads
        (value-equal before/after an account at the same timestamp --
        ``LoadTracker.peek``/``update`` compute the same expression),
        ``nr_running``, affinity, and *queued* task keys; it never reads
        the running task's vruntime, tracker stamps, or busy time.

        **Apply** then replays the remaining per-CPU effects in exact
        scalar order: batch results land, ``update_min_vruntime`` runs at
        the scalar position (earlier CPUs' balances may have migrated
        tasks, changing the leftmost), the overloaded flag samples the
        post-balance queue depth, and the precomputed preempt verdict is
        honored only if the queue's private mutation counter is unchanged
        since the gather (else the scalar check reruns on live state).
        """
        vec = self.vec
        assert vec is not None  # routed here only under the vec gate
        feats = self.features
        bpass = vec.begin(now)
        latency = feats.sched_latency_us
        min_gran = feats.min_granularity_us
        wakeup_gran = feats.wakeup_granularity_us
        cohort: List[Tuple[Cpu, Task, int, int, bool]] = []
        deltas: List[int] = []
        weights: List[int] = []
        vrs: List[int] = []
        rans: List[int] = []
        nrs: List[int] = []
        tws: List[int] = []
        wait_vrs: List[int] = []
        muts: List[int] = []
        for cpu in self.cpus:
            if not cpu.online:
                continue
            rq = cpu.rq
            curr = rq.curr
            if curr is None:
                continue  # tickless idle: no tick runs here
            started = (
                curr.exec_start_us if curr.exec_start_us is not None else now
            )
            ran = now - started
            delta = now - cpu.last_account_us
            accounted = delta > 0
            slot = -1
            if accounted:
                # Raw util read is deliberate: testing exact convergence
                # (util == target), which decay cannot change -- the
                # batched row reproduces update()'s shortcut bit-for-bit.
                if curr.tracker.util == 1.0:  # repro: noqa[perf-load-bypass]
                    # Converged row: the tracker update is a pure
                    # timestamp re-stamp, so the whole account body is
                    # batchable integer arithmetic.
                    slot = len(deltas)
                    deltas.append(delta)
                    weights.append(curr.weight)
                    vrs.append(curr.vruntime)
                    rans.append(ran)
                    nrs.append(rq._nr_running)
                    tws.append(rq._total_weight)
                    waiting = rq.pick_next()
                    wait_vrs.append(
                        -1 if waiting is None else waiting.vruntime
                    )
                    muts.append(rq.mutations)
                else:
                    # Divergent row (tracker mid-decay): scalar account,
                    # minus update_min_vruntime, which phase 2 replays
                    # at the exact scalar position for every row.
                    cfs.account_runtime(curr, now, delta)
                    cpu.busy_time_us += delta
                    cpu.last_account_us = now
            cohort.append((cpu, curr, ran, slot, accounted))
        if deltas:
            new_vrs, preempts = vec.ops.tick_batch(
                deltas, weights, vrs, rans, nrs, tws, wait_vrs,
                latency, min_gran, wakeup_gran,
            )
        overloaded = False
        resched = self.pending_resched
        for cpu, curr, ran, slot, accounted in cohort:
            rq = cpu.rq
            if slot >= 0:
                delta = deltas[slot]
                curr.vruntime = new_vrs[slot]
                curr.stats.total_runtime_us += delta
                curr.tracker.last_update_us = now
                cpu.busy_time_us += delta
                cpu.last_account_us = now
            if accounted:
                rq.update_min_vruntime()
            if rq._nr_running >= 2:
                overloaded = True
            if slot >= 0 and rq.mutations == muts[slot]:
                preempt = preempts[slot]
            else:
                preempt = cfs.should_preempt_at_tick(feats, rq, curr, ran)
            if preempt:
                resched.add(cpu.cpu_id)
            self.balance_calls += 1
            lb.periodic_balance(self, cpu.cpu_id, now, bpass=bpass)
        if overloaded and feats.nohz_idle_balance_enabled:
            balancer = lb.nohz_kick_target(self)
            if balancer is not None:
                lb.nohz_idle_balance(self, balancer, now, bpass=bpass)

    # -- hotplug -------------------------------------------------------------------

    def set_cpu_online(self, cpu_id: int, online: bool, now: int) -> List[Task]:
        """Hotplug a CPU; returns tasks evicted from it (queued ones only).

        The caller (simulator) is responsible for stopping a task that was
        *running* there before calling this, and for re-placing the returned
        tasks via :meth:`wake_task`.
        """
        cpu = self.cpu(cpu_id)
        evicted: List[Task] = []
        if not online:
            if cpu.rq.curr is not None:
                raise RuntimeError(
                    f"cpu {cpu_id} still runs {cpu.rq.curr}; stop it first"
                )
            for task in list(cpu.rq.queued_tasks()):
                cpu.rq.take(task, now)
                task.state = TaskState.BLOCKED
                task.cpu = None
                evicted.append(task)
            cpu.online = False
            cpu.mark_idle(now)
        else:
            cpu.online = True
            cpu.idle_since_us = now
            cpu.tickless = True
        self.domain_builder.set_cpu_online(cpu_id, online)
        # Online-state changes alter designated-balancer elections.
        self.idle_epoch.bump()
        if self.vec is not None:
            # The rebuild dropped every interned group/domain object; the
            # mirror's id-keyed gather plans must go with them.
            self.vec.on_topology_change()
        return evicted

    # -- invariants ------------------------------------------------------------------

    def can_steal(self, idle_cpu: int, busy_cpu: int) -> bool:
        """Algorithm 2's ``can_steal``: some waiting task may move over."""
        if idle_cpu == busy_cpu:
            return False
        idle = self.cpu(idle_cpu)
        busy = self.cpu(busy_cpu)
        if not idle.online or not busy.online:
            return False
        return any(
            t.can_run_on(idle_cpu) for t in busy.rq.queued_tasks()
        )

    def runnable_count(self) -> int:
        """Total runnable (running + queued) tasks across the machine."""
        return sum(c.rq.nr_running for c in self.cpus if c.online)

    def __repr__(self) -> str:
        busy = sum(1 for c in self.cpus if c.online and not c.is_idle)
        return (
            f"Scheduler(cpus={len(self.cpus)}, busy={busy}, "
            f"tasks={len(self.tasks)}, features=[{self.features.describe()}])"
        )
