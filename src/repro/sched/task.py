"""Tasks (threads) and their scheduling state.

A :class:`Task` carries exactly the state the scheduler decisions in the
paper depend on: weight (nice), vruntime, decaying utilization, cgroup
membership, CPU affinity (taskset), and the CPU it last ran on.  Workload
behavior (what the thread *does*) is attached as a generator program and
driven by the simulator's executor; the scheduler never looks inside it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, FrozenSet, Iterator, Optional

from repro.sched.load import LoadTracker, task_load
from repro.sched.weights import weight_for_nice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.cgroup import CGroup

_next_tid = itertools.count(1)


class TaskState(enum.Enum):
    """Lifecycle of a task, as the scheduler sees it."""

    #: Created but not yet enqueued anywhere.
    NEW = "new"
    #: Waiting in a runqueue.
    RUNNABLE = "runnable"
    #: Executing on a CPU.
    RUNNING = "running"
    #: Off the runqueue with a timer wakeup pending.
    SLEEPING = "sleeping"
    #: Off the runqueue waiting on a synchronization object or I/O.
    BLOCKED = "blocked"
    #: Finished; never scheduled again.
    EXITED = "exited"


@dataclass
class TaskStats:
    """Counters used by the experiments and the test-suite."""

    total_runtime_us: int = 0
    spin_time_us: int = 0
    wait_time_us: int = 0
    sleep_time_us: int = 0
    migrations: int = 0
    wakeups: int = 0
    wakeups_on_busy_core: int = 0
    preemptions: int = 0
    last_enqueue_us: int = 0
    exit_time_us: Optional[int] = None


class Task:
    """One schedulable thread."""

    def __init__(
        self,
        name: str,
        nice: int = 0,
        program: Optional[Iterator[Any]] = None,
        allowed_cpus: Optional[FrozenSet[int]] = None,
        now: int = 0,
        tid: Optional[int] = None,
    ):
        self.tid = tid if tid is not None else next(_next_tid)
        self.name = name
        self.nice = nice
        self.weight = weight_for_nice(nice)
        self.state = TaskState.NEW
        self.vruntime = 0
        #: CPU currently hosting the task (running or enqueued); None while
        #: sleeping/blocked/new.
        self.cpu: Optional[int] = None
        #: CPU the task last ran on; wakeup placement starts from here.
        self.prev_cpu: Optional[int] = None
        #: Taskset/cpuset affinity mask; None means "all CPUs allowed".
        self.allowed_cpus = allowed_cpus
        self.cgroup: Optional["CGroup"] = None
        self.tracker = LoadTracker(now)
        self.stats = TaskStats()

        # --- executor state (owned by repro.sim, opaque to the scheduler) --
        #: Generator yielding workload phases.
        self.program = program
        #: Phase currently being executed (set by the executor).
        self.current_phase: Any = None
        #: Remaining run time of the current phase, microseconds.
        self.phase_left_us = 0
        #: Synchronization object the task is spinning on, if any.
        self.spinning_on: Any = None
        #: Timestamp execution last (re)started, for runtime accounting.
        self.exec_start_us: Optional[int] = None
        #: Timestamp the current Run phase last (re)started on a CPU.
        self.phase_started_us: Optional[int] = None
        #: Timestamp the current on-CPU spin episode started.
        self.spin_started_us: Optional[int] = None
        #: Barrier generation observed when this task started spin-waiting.
        self.barrier_generation = 0
        #: Spin-flag threshold this task is waiting to reach.
        self.flag_threshold = 0

    # -- affinity ----------------------------------------------------------

    def can_run_on(self, cpu_id: int) -> bool:
        """True when affinity allows this task on ``cpu_id``."""
        return self.allowed_cpus is None or cpu_id in self.allowed_cpus

    def set_affinity(self, allowed_cpus: Optional[FrozenSet[int]]) -> None:
        """Pin the task to a CPU set (``taskset``); ``None`` unpins."""
        if allowed_cpus is not None and not allowed_cpus:
            raise ValueError("affinity mask must not be empty")
        self.allowed_cpus = (
            None if allowed_cpus is None else frozenset(allowed_cpus)
        )

    # -- load ----------------------------------------------------------------

    def load(self, now: Optional[int] = None) -> float:
        """Current balancing load: weight x utilization / cgroup divisor."""
        divisor = self.cgroup.load_divisor if self.cgroup is not None else 1
        if now is None:
            util = self.tracker.util
        else:
            util = self.tracker.peek(now, self.state is TaskState.RUNNING)
        return task_load(self.weight, util, divisor)

    # -- state helpers -------------------------------------------------------

    @property
    def on_rq(self) -> bool:
        """True when the task occupies a runqueue slot (running or waiting)."""
        return self.state in (TaskState.RUNNABLE, TaskState.RUNNING)

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.EXITED

    def __repr__(self) -> str:
        return (
            f"Task(tid={self.tid}, name={self.name!r}, "
            f"state={self.state.value}, cpu={self.cpu}, "
            f"vruntime={self.vruntime})"
        )


def reset_tid_counter(start: int = 1) -> None:
    """Restart tid allocation (tests and deterministic experiment setup)."""
    global _next_tid
    _next_tid = itertools.count(start)
