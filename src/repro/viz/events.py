"""Scheduler event records, probes, and the fixed-size trace buffer.

The scheduler reports into a :class:`Probe`, and so do the event loop,
the sanity checker and the idle-overload sampler of the same system: the
probe is a system's one observer channel.  ``Probe`` itself is a no-op
(zero overhead when profiling is off, like the paper's tool);
:class:`TraceProbe` appends records to a :class:`TraceBuffer`;
:class:`FanoutProbe` multiplexes to several consumers (e.g. a trace buffer
plus the sanity checker's monitoring window).

The three record types mirror the paper's instrumentation exactly:
runqueue-size changes (``add_nr_running``/``sub_nr_running``), runqueue-load
changes (``account_entity_enqueue``), and considered-core bitfields
(``select_idle_sibling``, ``update_sg_lb_stats``, ``find_busiest_queue``,
``find_idlest_group``).  Migration and wakeup records are additions that the
offline analyzer uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class NrRunningEvent:
    """Runqueue size changed on a core."""

    time_us: int
    cpu: int
    nr_running: int


@dataclass(frozen=True)
class LoadEvent:
    """Runqueue combined load changed on a core."""

    time_us: int
    cpu: int
    load: float


@dataclass(frozen=True)
class ConsideredEvent:
    """A balancing/wakeup decision examined a set of cores.

    ``op`` names the decision point (``"load_balance"``,
    ``"select_idle_sibling"``, ``"find_idlest_group"``, ...); ``cpu`` is the
    core making the decision; ``considered`` is the bitfield of examined
    cores, stored as a frozenset.
    """

    time_us: int
    cpu: int
    op: str
    considered: frozenset


@dataclass(frozen=True)
class MigrationEvent:
    """A task moved between runqueues."""

    time_us: int
    tid: int
    src_cpu: int
    dst_cpu: int
    reason: str


@dataclass(frozen=True)
class WakeupEvent:
    """A task was woken and placed on a core."""

    time_us: int
    tid: int
    cpu: int
    waker_cpu: Optional[int]
    was_idle: bool


@dataclass(frozen=True)
class BalanceEvent:
    """Outcome of one load-balancing attempt at one domain level.

    ``outcome`` is ``"balanced"`` (busiest not above local -- nothing to
    do), ``"moved:N"`` (N tasks migrated), or ``"blocked"`` (an imbalance
    was seen but no task could move, e.g. all candidates pinned away).
    """

    time_us: int
    cpu: int
    domain: str
    local_metric: float
    busiest_metric: Optional[float]
    outcome: str


@dataclass(frozen=True)
class LifecycleEvent:
    """A task was forked or exited (the checker monitors these)."""

    time_us: int
    tid: int
    kind: str  # "fork" | "exit"
    cpu: Optional[int]


@dataclass(frozen=True)
class SchedSwitchEvent:
    """A CPU switched what it executes (the kernel's ``sched_switch``).

    ``next_tid`` is ``None`` when the CPU stops executing (the previous
    task slept, blocked, exited, or was preempted off); ``prev_tid`` is
    ``None`` when the CPU picks up work after being empty.  The obs trace
    exporter reconstructs per-core running-task slices from this stream.
    """

    time_us: int
    cpu: int
    prev_tid: Optional[int]
    next_tid: Optional[int]
    next_name: str = ""


class Probe:
    """No-op probe: a system's instrumentation hooks.

    Subclasses override the calls they care about.  All hooks must stay
    cheap; they run on the simulator's hottest paths.
    """

    #: False only on this no-op base class: the hottest call sites
    #: (runqueue notification, balance outcomes) check the flag and skip
    #: the hook call -- and the argument computation feeding it --
    #: entirely when nothing listens.  Every subclass is assumed to
    #: listen; one that wants the skip too can set ``active = False``
    #: in its class body.
    active = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "active" not in cls.__dict__:
            cls.active = True

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        """Runqueue size changed."""

    def on_rq_load(self, now: int, cpu: int, load: float) -> None:
        """Runqueue load changed."""

    def wants_rq_load(self) -> bool:
        """True when :meth:`on_rq_load` actually consumes its samples.

        Computing a queue's load is the expensive half of a notification;
        the runqueue asks first and skips the summation when nobody
        listens.  The default detects an overridden ``on_rq_load``, so
        custom probes get load samples without doing anything; probes that
        can say "not right now" (a trace probe with ``record_load=False``,
        an empty fanout) override this to decline.
        """
        return type(self).on_rq_load is not Probe.on_rq_load

    def on_considered(
        self, now: int, cpu: int, op: str, considered: Iterable[int]
    ) -> None:
        """A decision examined a set of cores."""

    def wants_balance(self) -> bool:
        """True when :meth:`on_considered` or :meth:`on_balance` consumes
        its records.

        While no runqueue has a task to spare, a balancing walk's only
        output is its considered-cores and balance-outcome records; the
        balancer asks first and skips the walk when nobody listens.  The
        default detects an override of either hook, like
        :meth:`wants_rq_load`.

        A probe that answers True also turns off two fast-path shortcuts,
        ``wakeup._fast_idle_sibling`` and the nothing-to-pull gate
        (``balance.nothing_to_pull``), so the run takes the reference
        scans there.  A check that compares the fast path with the
        reference path must therefore trace with
        ``TraceProbe(record_considered=False)``, or it never reaches them.
        """
        cls = type(self)
        return (
            cls.on_considered is not Probe.on_considered
            or cls.on_balance is not Probe.on_balance
        )

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        """A task migrated between runqueues."""

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        """A task woke up on ``cpu``."""

    def on_lifecycle(
        self, now: int, tid: int, kind: str, cpu: Optional[int]
    ) -> None:
        """A task forked or exited."""

    def on_balance(
        self,
        now: int,
        cpu: int,
        domain: str,
        local_metric: float,
        busiest_metric: Optional[float],
        outcome: str,
    ) -> None:
        """A load-balancing attempt concluded."""

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        """A CPU switched what it executes (either tid may be ``None``)."""

    def on_callback(self, now: int, label: str, tag: Optional[int]) -> None:
        """The event loop is about to run the callback labelled ``label``
        (``tag`` is the event's int tag, such as a tid, or ``None``)."""

    def wants_callback(self) -> bool:
        """True when :meth:`on_callback` consumes its labels.

        The system hands the event loop this probe's :meth:`on_callback`
        only while this answers True, so runs nobody traces make no call
        per event.  The default detects an override, like
        :meth:`wants_rq_load`.
        """
        return type(self).on_callback is not Probe.on_callback

    def on_checker(
        self, now: int, event: str, fields: Mapping[str, object]
    ) -> None:
        """The sanity checker ran a check or changed state.

        ``event`` is ``check``, ``violation_detected``, ``transient``,
        ``bug_confirmed`` or ``profile_done``; ``fields`` describe it.
        """

    def on_violation_tick(self, now: int) -> None:
        """The idle-overload sampler saw the invariant violated."""


class TraceBuffer:
    """Fixed-capacity in-memory event array.

    The paper stores events in "a large global array in memory of a static
    size" (~20 bytes/event, 3.6 MB/s on their machine).  We keep the same
    contract: appends past capacity are dropped and counted, never resized.
    """

    def __init__(self, capacity: int = 1_000_000):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: List[object] = []
        self.dropped = 0

    def append(self, event: object) -> None:
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[object]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def of_type(self, event_type: type) -> List[object]:
        """All recorded events of one record type, in order."""
        return [e for e in self._events if isinstance(e, event_type)]

    def time_span(self) -> Tuple[int, int]:
        """(first, last) event timestamps; (0, 0) when empty."""
        if not self._events:
            return (0, 0)
        times = [e.time_us for e in self._events]  # type: ignore[attr-defined]
        return (min(times), max(times))


class TraceProbe(Probe):
    """Probe that records every hook invocation into a trace buffer.

    Individual record classes can be disabled to keep traces small (the
    considered-core stream is by far the densest, as in the paper).
    """

    def __init__(
        self,
        buffer: Optional[TraceBuffer] = None,
        record_nr_running: bool = True,
        record_load: bool = True,
        record_considered: bool = True,
        record_migrations: bool = True,
        record_wakeups: bool = True,
        record_lifecycle: bool = True,
        record_switches: bool = True,
    ):
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.record_nr_running = record_nr_running
        self.record_load = record_load
        self.record_considered = record_considered
        self.record_migrations = record_migrations
        self.record_wakeups = record_wakeups
        self.record_lifecycle = record_lifecycle
        self.record_switches = record_switches

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        if self.record_nr_running:
            self.buffer.append(NrRunningEvent(now, cpu, nr_running))

    def on_rq_load(self, now: int, cpu: int, load: float) -> None:
        if self.record_load:
            self.buffer.append(LoadEvent(now, cpu, load))

    def wants_rq_load(self) -> bool:
        return self.record_load

    def wants_balance(self) -> bool:
        return self.record_considered

    def on_considered(
        self, now: int, cpu: int, op: str, considered: Iterable[int]
    ) -> None:
        if self.record_considered:
            self.buffer.append(
                ConsideredEvent(now, cpu, op, frozenset(considered))
            )

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        if self.record_migrations:
            self.buffer.append(
                MigrationEvent(now, tid, src_cpu, dst_cpu, reason)
            )

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        if self.record_wakeups:
            self.buffer.append(WakeupEvent(now, tid, cpu, waker_cpu, was_idle))

    def on_lifecycle(
        self, now: int, tid: int, kind: str, cpu: Optional[int]
    ) -> None:
        if self.record_lifecycle:
            self.buffer.append(LifecycleEvent(now, tid, kind, cpu))

    def on_balance(
        self,
        now: int,
        cpu: int,
        domain: str,
        local_metric: float,
        busiest_metric: Optional[float],
        outcome: str,
    ) -> None:
        if self.record_considered:
            self.buffer.append(
                BalanceEvent(
                    now, cpu, domain, local_metric, busiest_metric, outcome
                )
            )

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        if self.record_switches:
            self.buffer.append(
                SchedSwitchEvent(now, cpu, prev_tid, next_tid, next_name)
            )


class FanoutProbe(Probe):
    """Forwards every hook to an ordered list of probes.

    An *empty* fanout -- the default wiring of a :class:`System` nobody
    instrumented -- reports ``active = False`` (an instance attribute
    shadowing the subclass default), so the hot-path gates skip hook
    calls entirely until the first consumer is attached.
    """

    def __init__(self, probes: Iterable[Probe] = ()):
        self.probes: List[Probe] = list(probes)
        self.active = bool(self.probes)

    def add(self, probe: Probe) -> None:
        self.probes.append(probe)
        self.active = True

    def remove(self, probe: Probe) -> None:
        self.probes.remove(probe)
        self.active = bool(self.probes)

    def on_nr_running(self, now: int, cpu: int, nr_running: int) -> None:
        for probe in self.probes:
            probe.on_nr_running(now, cpu, nr_running)

    def on_rq_load(self, now: int, cpu: int, load: float) -> None:
        for probe in self.probes:
            probe.on_rq_load(now, cpu, load)

    def wants_rq_load(self) -> bool:
        # Plain loop, not any(genexp): this runs on every runqueue
        # notification and a generator allocation per call is measurable.
        for probe in self.probes:
            if probe.wants_rq_load():
                return True
        return False

    def wants_balance(self) -> bool:
        for probe in self.probes:
            if probe.wants_balance():
                return True
        return False

    def on_considered(
        self, now: int, cpu: int, op: str, considered: Iterable[int]
    ) -> None:
        considered = frozenset(considered)
        for probe in self.probes:
            probe.on_considered(now, cpu, op, considered)

    def on_migration(
        self, now: int, tid: int, src_cpu: int, dst_cpu: int, reason: str
    ) -> None:
        for probe in self.probes:
            probe.on_migration(now, tid, src_cpu, dst_cpu, reason)

    def on_wakeup(
        self,
        now: int,
        tid: int,
        cpu: int,
        waker_cpu: Optional[int],
        was_idle: bool,
    ) -> None:
        for probe in self.probes:
            probe.on_wakeup(now, tid, cpu, waker_cpu, was_idle)

    def on_lifecycle(
        self, now: int, tid: int, kind: str, cpu: Optional[int]
    ) -> None:
        for probe in self.probes:
            probe.on_lifecycle(now, tid, kind, cpu)

    def on_balance(
        self,
        now: int,
        cpu: int,
        domain: str,
        local_metric: float,
        busiest_metric: Optional[float],
        outcome: str,
    ) -> None:
        for probe in self.probes:
            probe.on_balance(
                now, cpu, domain, local_metric, busiest_metric, outcome
            )

    def on_sched_switch(
        self,
        now: int,
        cpu: int,
        prev_tid: Optional[int],
        next_tid: Optional[int],
        next_name: str = "",
    ) -> None:
        for probe in self.probes:
            probe.on_sched_switch(now, cpu, prev_tid, next_tid, next_name)

    def on_callback(self, now: int, label: str, tag: Optional[int]) -> None:
        for probe in self.probes:
            probe.on_callback(now, label, tag)

    def wants_callback(self) -> bool:
        for probe in self.probes:
            if probe.wants_callback():
                return True
        return False

    def on_checker(
        self, now: int, event: str, fields: Mapping[str, object]
    ) -> None:
        for probe in self.probes:
            probe.on_checker(now, event, fields)

    def on_violation_tick(self, now: int) -> None:
        for probe in self.probes:
            probe.on_violation_tick(now)
