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
from repro.sched.task import Task, TaskState
from repro.sched.vecstate import SanitizedVecState, VecState
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
        #: Bumped when a cgroup divisor changes (attach/detach), dirtying
        #: per-queue load caches without any runqueue event.
        self.divisor_epoch = LoadEpoch()
        #: Ids of the CPUs whose runqueue has a task to spare (the
        #: kernel's ``rd->overload``, refined per CPU and kept exact by
        #: every runqueue).  An attempt whose domain holds no member
        #: outside its local group can move nothing, so the balancers
        #: skip it (see ``repro.sched.balance.nothing_to_pull``).
        self.overload: Set[int] = set()
        self.cgroups.bind_divisor_epoch(self.divisor_epoch)
        self.cpus: List[Cpu] = [
            Cpu(
                cpu_id,
                self.probe,
                load_cache=self.features.fastpath,
                divisor_epoch=self.divisor_epoch,
                sanitize=self.features.sanitize_coherence,
                overload=self.overload,
            )
            for cpu_id in range(topology.num_cpus)
        ]
        self.domain_builder = DomainBuilder(topology, self.features)
        #: Persistent array-backed sampling layer: the fast path's
        #: balancer (None on the reference path).  Every runqueue gets a
        #: write-through hook so mutations mark their mirror slot dirty.
        #: The sanitizer's mirror checks every selection it answers.
        self.vec: Optional[VecState] = None
        if self.features.fastpath:
            self.vec = (
                SanitizedVecState(self)
                if self.features.sanitize_coherence
                else VecState(self)
            )
            for cpu in self.cpus:
                cpu.rq.vec = self.vec
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
        target = self.wake_target(task, waker_cpu, now)
        was_idle = self.cpus[target].is_idle
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

    def wake_target(
        self, task: Task, waker_cpu: Optional[int], now: int
    ) -> int:
        """The CPU :meth:`wake_task` enqueues a woken task on.

        ``select_task_rq``; a scheduler with another placement policy
        overrides this method alone, so every wakeup keeps the state
        check and bookkeeping of :meth:`wake_task`.
        """
        return wk.select_task_rq_wake(self, task, waker_cpu, now)

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
            and cfs.should_preempt_on_wakeup(cpu.rq.curr, task)
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
        cpu.rq.dispatch(task, now)
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
            cpu.rq.clear_current(now)
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
        src = self.cpus[src_cpu]
        dst = self.cpus[dst_cpu]
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

        Two shortcuts leave every observable unchanged.  The preemption
        check runs only when a task waits (with none waiting it is always
        False).  On the fast path a CPU whose balance gate lies in the
        future is skipped without calling ``periodic_balance``: its walk
        would attempt nothing (see ``VecState.gate_token``).  It still
        counts in ``balance_calls``, and the sanitizer re-elects every
        level of each skipped CPU.
        """
        overloaded = False
        # Every CPU balanced this tick (and the NOHZ sweep below)
        # observes the same timestamp, so the mirror's per-CPU samples
        # and folded group stats are reused until a migration dirties
        # them.
        vec = self.vec
        sanitize = self.features.sanitize_coherence
        for cpu in self.cpus:
            if not cpu.online:
                continue
            rq = cpu.rq
            curr = rq.curr
            if curr is None:
                continue  # tickless idle: no tick runs here
            cpu_id = cpu.cpu_id
            self.account(cpu_id, now)
            if rq.nr_running >= 2:
                overloaded = True
                started = curr.exec_start_us
                ran = now - (started if started is not None else now)
                if cfs.should_preempt_at_tick(self.features, rq, curr, ran):
                    self.pending_resched.add(cpu_id)
            self.balance_calls += 1
            if vec is not None:
                # Earlier walks this tick may have queued idle flips that
                # disarm this CPU's gate: reconcile before reading it.
                if vec._idle_q:
                    vec._reconcile()
                if vec._gate[cpu_id] > now:
                    if sanitize:
                        lb.check_gated_skip(self, cpu_id, now)
                    continue
            lb.periodic_balance(self, cpu_id, now)
        if overloaded and self.features.nohz_idle_balance_enabled:
            balancer = lb.nohz_kick_target(self)
            if balancer is not None:
                lb.nohz_idle_balance(self, balancer, now)

    # -- hotplug -------------------------------------------------------------------

    def set_cpu_online(self, cpu_id: int, online: bool, now: int) -> List[Task]:
        """Hotplug a CPU; returns tasks evicted from it (queued ones only).

        The caller (simulator) is responsible for stopping a task that was
        *running* there before calling this, and for re-placing the returned
        tasks via :meth:`wake_task`.  A call that does not change the
        CPU's online state is a no-op.
        """
        cpu = self.cpus[cpu_id]
        evicted: List[Task] = []
        if cpu.online == online:
            return evicted
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
            cpu.set_online(False)
            cpu.mark_idle(now)
        else:
            cpu.set_online(True)
            cpu.idle_since_us = now
            cpu.tickless = True
        self.domain_builder.set_cpu_online(cpu_id, online)
        if self.vec is not None:
            # The rebuild swapped in another (possibly shared, previously
            # seen) domain table; the mirror's id-keyed gather plans and
            # memos were planned against the old one and must go.
            self.vec.on_topology_change()
        return evicted

    # -- invariants ------------------------------------------------------------------

    def can_steal(self, idle_cpu: int, busy_cpu: int) -> bool:
        """Algorithm 2's ``can_steal``: some waiting task may move over."""
        if idle_cpu == busy_cpu:
            return False
        idle = self.cpus[idle_cpu]
        busy = self.cpus[busy_cpu]
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
