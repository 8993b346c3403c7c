"""Scheduling domains and scheduling groups.

CFS organizes cores in a hierarchy (the paper's Figure 1): SMT pairs, then
cores sharing an LLC (a NUMA node), then nodes one hop apart, then nodes two
hops apart, and so on up to the machine.  Each level is a *scheduling
domain*; inside a domain, load balancing moves work between *scheduling
groups*.

Two of the paper's bugs live here:

* **Scheduling Group Construction** (Section 3.2): on the buggy path, the
  groups of the cross-node levels are constructed from the perspective of
  core 0 and shared by every core.  On an asymmetric interconnect two nodes
  that are two hops apart (nodes 1 and 2 on the paper's machine) can end up
  together in *every* group, making their relative imbalance invisible.
  The fixed path builds groups from each core's own perspective.

* **Missing Scheduling Domains** (Section 3.4): regenerating domains after
  CPU hotplug is a two-step process -- inside nodes, then across nodes.  The
  buggy path drops the second step (as the refactored kernel code did), so
  after any core is disabled and re-enabled no domain spans multiple nodes
  and NUMA load balancing stops entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.sched.features import SchedFeatures
from repro.sched.sanitizer import verify_domain_table
from repro.sched.timebase import BALANCE_INTERVAL_GROWTH
from repro.topology.interconnect import hop_levels
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class SchedGroup:
    """A set of CPUs balanced as a unit within a domain.

    ``balance_cpus`` is the group's *balance mask*: the CPUs eligible to be
    the designated balancer when this is the local group.  For ordinary
    (non-overlapping) groups it is the whole group.  For overlapping NUMA
    groups built per-perspective (the Scheduling Group Construction fix) it
    is the seed node's CPUs -- the CPUs whose perspective produced the
    group -- which is what lets an idle remote node elect its own balancer
    instead of deferring forever to an idle CPU of another node.
    """

    cpus: FrozenSet[int]
    balance_cpus: Optional[FrozenSet[int]] = None

    def __contains__(self, cpu_id: int) -> bool:
        return cpu_id in self.cpus

    def __len__(self) -> int:
        return len(self.cpus)

    @cached_property
    def _cpus_sorted(self) -> Tuple[int, ...]:
        # cached_property writes the instance __dict__ directly, which is
        # legal on a frozen dataclass and safe here: ``cpus`` is immutable,
        # so the cached tuple is a pure function of the group and stays
        # valid however many rebuilds and schedulers share the object
        # (see the table memo in DomainBuilder.rebuild).
        return tuple(sorted(self.cpus))

    @cached_property
    def _balance_mask_sorted(self) -> Tuple[int, ...]:
        return tuple(sorted(self.balance_mask()))

    def sorted_cpus(self) -> Tuple[int, ...]:
        return self._cpus_sorted

    def sorted_balance_mask(self) -> Tuple[int, ...]:
        """The balance mask in CPU order (cached; hot in the balancer)."""
        return self._balance_mask_sorted

    def balance_mask(self) -> FrozenSet[int]:
        """CPUs that may act as this group's designated balancer."""
        return self.balance_cpus if self.balance_cpus is not None else self.cpus

    def __repr__(self) -> str:
        return f"SchedGroup({self.sorted_cpus()})"


@dataclass(frozen=True)
class SchedDomain:
    """One level of the hierarchy, as seen from a particular CPU.

    ``span`` is every CPU in the domain; ``groups`` partitions (or, on the
    buggy construction path, *covers* -- possibly with overlap) the span.
    ``level`` indexes the domain bottom-up, and ``balance_interval_us`` is
    the periodic-balance period at this level.
    """

    name: str
    level: int
    span: FrozenSet[int]
    groups: Tuple[SchedGroup, ...]
    balance_interval_us: int
    #: True for cross-node levels; fork/exec placement does not descend
    #: these (no ``SD_BALANCE_FORK``), so children stay on the parent's
    #: node and only load balancing moves threads across nodes.
    numa: bool = False
    #: Kernel ``sd->imbalance_pct`` (as a ratio): the busiest group must
    #: exceed the local group by this factor before a steal is worthwhile;
    #: damps migration ping-pong when loads cannot divide evenly.
    imbalance_ratio: float = 1.17

    @cached_property
    def _group_by_cpu(self) -> Dict[int, SchedGroup]:
        # First-wins over the groups tuple, preserving the "first group
        # containing the CPU" rule for overlapping NUMA groups.  Cached on
        # the frozen instance (see SchedGroup._cpus_sorted for why that is
        # safe): local_group is called on every balancing attempt.
        mapping: Dict[int, SchedGroup] = {}
        for group in self.groups:
            for c in group.cpus:
                if c not in mapping:
                    mapping[c] = group
        return mapping

    def local_group(self, cpu_id: int) -> SchedGroup:
        """The group containing ``cpu_id`` (the first one, on overlap)."""
        group = self._group_by_cpu.get(cpu_id)
        if group is None:
            raise ValueError(f"cpu {cpu_id} not in domain {self.name}")
        return group

    @cached_property
    def _remote_by_cpu(self) -> Dict[int, FrozenSet[int]]:
        # One union per local group (index of the first group containing
        # the CPU), shared by every CPU of that group.  The union of the
        # *other* groups, not the span minus the local group: NUMA
        # groups overlap, so a CPU of the local group may also sit in a
        # group the balancer can pick as busiest.
        by_local: Dict[int, FrozenSet[int]] = {}
        mapping: Dict[int, FrozenSet[int]] = {}
        for idx, group in enumerate(self.groups):
            for c in group.cpus:
                if c in mapping:
                    continue
                remote = by_local.get(idx)
                if remote is None:
                    remote = frozenset(
                        cpu
                        for j, other in enumerate(self.groups) if j != idx
                        for cpu in other.cpus
                    )
                    by_local[idx] = remote
                mapping[c] = remote
        return mapping

    def remote_cpus(self, cpu_id: int) -> FrozenSet[int]:
        """Every CPU of the groups other than ``cpu_id``'s local group.

        A balancing attempt from ``cpu_id`` can only pull from these CPUs
        (the busiest group is never the local one); empty when the CPU
        is not in the domain, where an attempt finds no local group.
        """
        return self._remote_by_cpu.get(cpu_id, frozenset())

    def __repr__(self) -> str:
        return (
            f"SchedDomain({self.name!r}, level={self.level}, "
            f"span={sorted(self.span)}, groups={len(self.groups)})"
        )


#: One finished per-CPU domain table: bottom-up domain lists by CPU.
DomainTable = Dict[int, List[SchedDomain]]

#: Bound of the process-local table memo.  A full ``repro report`` needs
#: five distinct tables; the bound only caps long hotplug sweeps.
TABLE_MEMO_SIZE = 32

#: Finished tables keyed by everything ``DomainBuilder._build_table``
#: reads (see ``DomainBuilder._table_key``), least recently used first.
#: A table is a pure function of its key and every object in it is
#: immutable, so one table is shared by every builder -- across systems,
#: schedulers and hotplug events -- that asks for the same key.
_TABLES: "OrderedDict[Tuple[object, ...], DomainTable]" = OrderedDict()


class DomainBuilder:
    """Builds per-CPU scheduling-domain lists from a machine topology.

    The builder is also the hotplug bookkeeper: it tracks which CPUs are
    online and whether a hotplug event has occurred (which is what arms the
    Missing Scheduling Domains bug).
    """

    def __init__(self, topology: MachineTopology, features: SchedFeatures):
        self.topology = topology
        self.features = features
        self._online: Set[int] = set(range(topology.num_cpus))
        #: True once any core was disabled then re-enabled; the buggy
        #: regeneration path truncates domains from that point on.
        self.hotplug_happened = False
        #: Per-CPU bottom-up domain lists; possibly shared with other
        #: builders through the table memo, so never mutated in place.
        self._domains: DomainTable = {}
        #: Build-scoped intern pool of groups, keyed by membership.
        self._group_pool: Dict[
            Tuple[FrozenSet[int], Optional[FrozenSet[int]]], SchedGroup
        ] = {}
        #: Build-scoped intern pool of domains: every CPU of a node sees
        #: identical (name, level, span, groups) at the shared levels, so
        #: one SchedDomain object serves them all and id-keyed caches (the
        #: vectorized mirror's per-domain gather plans) are shared across
        #: perspectives instead of built per CPU.
        self._domain_pool: Dict[object, SchedDomain] = {}
        #: Bumped by every rebuild; consumers caching per-CPU domain
        #: plans (``Cpu.balance_plan``) key their validity off it.
        self.generation = 0
        self.rebuild()

    # -- hotplug -----------------------------------------------------------

    def online_cpus(self) -> FrozenSet[int]:
        return frozenset(self._online)

    def is_online(self, cpu_id: int) -> bool:
        return cpu_id in self._online

    def set_cpu_online(self, cpu_id: int, online: bool) -> None:
        """Hotplug a CPU and regenerate domains (the /proc interface path).

        A call that does not change the CPU's online state is a no-op: no
        rebuild, no generation bump.
        """
        if not 0 <= cpu_id < self.topology.num_cpus:
            raise ValueError(f"cpu {cpu_id} out of range")
        if online == (cpu_id in self._online):
            return
        if online:
            self._online.add(cpu_id)
        else:
            if len(self._online) == 1:
                raise ValueError("cannot offline the last CPU")
            self._online.discard(cpu_id)
        self.hotplug_happened = True
        self.rebuild()

    # -- construction ------------------------------------------------------

    def _table_key(self) -> Tuple[object, ...]:
        """Everything :meth:`_build_table` reads, as a hashable key."""
        topo = self.topology
        return (
            topo.num_nodes,
            topo.cores_per_node,
            topo.smt_width,
            tuple(topo.interconnect.links()),
            self.features.fix_group_construction,
            self.features.balance_base_us,
            frozenset(self._online),
            self.hotplug_happened and not self.features.fix_missing_domains,
        )

    def rebuild(self) -> None:
        """Regenerate every CPU's domain list.

        The finished table is memoized process-wide on :meth:`_table_key`,
        so :meth:`_build_table` runs once per distinct key; the coherence
        sanitizer rebuilds on every memo hit and compares.  ``generation``
        moves on every call, hit or miss.
        """
        self.generation += 1
        key = self._table_key()
        table = _TABLES.get(key)
        if table is None:
            table = self._build_table()
            _TABLES[key] = table
            if len(_TABLES) > TABLE_MEMO_SIZE:
                _TABLES.popitem(last=False)
        else:
            _TABLES.move_to_end(key)
            if self.features.sanitize_coherence:
                verify_domain_table(table, self._build_table())
        self._domains = table

    def _build_table(self) -> DomainTable:
        """Construct every online CPU's domain list from scratch.

        Mirrors the kernel's two-step regeneration: intra-node levels first,
        then the cross-node levels.  When the Missing Scheduling Domains bug
        is active (no ``fix_missing_domains``) and a hotplug has happened,
        the second step is skipped -- exactly the dropped function call the
        paper describes.
        """
        table: DomainTable = {}
        # Equal groups are interned to one shared object per build:
        # every CPU of a node sees the *same* group instances, so
        # per-object caches (sorted tuples, balance-pass memos) are shared
        # across perspectives instead of recomputed 64 times.  The objects
        # are immutable, so the finished table may be shared across
        # rebuilds and schedulers; the pools only live for one build.
        self._group_pool = {}
        self._domain_pool = {}
        drop_numa_levels = (
            self.hotplug_happened and not self.features.fix_missing_domains
        )
        for cpu_id in sorted(self._online):
            domains = self._build_intra_node(cpu_id)
            if not drop_numa_levels:
                domains.extend(self._build_cross_node(cpu_id, len(domains)))
            table[cpu_id] = domains
        self._group_pool = {}
        self._domain_pool = {}
        return table

    def _make_group(
        self,
        cpus: FrozenSet[int],
        balance_cpus: Optional[FrozenSet[int]] = None,
    ) -> SchedGroup:
        """Create-or-reuse a group with this exact membership."""
        key = (cpus, balance_cpus)
        group = self._group_pool.get(key)
        if group is None:
            group = SchedGroup(cpus, balance_cpus)
            self._group_pool[key] = group
        return group

    def _make_domain(
        self,
        name: str,
        level: int,
        span: FrozenSet[int],
        groups: Tuple[SchedGroup, ...],
        interval: int,
        numa: bool = False,
        imbalance_ratio: float = 1.17,
    ) -> SchedDomain:
        """Create-or-reuse a domain with these exact parameters.

        Groups are already interned within the build, so the tuple
        compares by the shared objects.  The instances are immutable and
        their cached properties are pure functions of their fields, so
        they stay valid in every table that shares them.
        """
        key = (name, level, span, groups, interval, numa, imbalance_ratio)
        domain = self._domain_pool.get(key)
        if domain is None:
            domain = SchedDomain(
                name, level, span, groups, interval,
                numa=numa, imbalance_ratio=imbalance_ratio,
            )
            self._domain_pool[key] = domain
        return domain

    def domains_of(self, cpu_id: int) -> List[SchedDomain]:
        """Bottom-up domain list of one CPU (empty when offline)."""
        return self._domains.get(cpu_id, [])

    def top_level_span(self, cpu_id: int) -> FrozenSet[int]:
        """Widest CPU set this CPU's balancing can ever reach."""
        domains = self.domains_of(cpu_id)
        if not domains:
            return frozenset()
        return domains[-1].span

    def _interval(self, level: int) -> int:
        base = self.features.balance_base_us
        return base * (BALANCE_INTERVAL_GROWTH ** level)

    def _online_in(self, cpus: Sequence[int]) -> FrozenSet[int]:
        return frozenset(c for c in cpus if c in self._online)

    def _build_intra_node(self, cpu_id: int) -> List[SchedDomain]:
        """SMT-pair level (when the machine has SMT) and the LLC/node level."""
        topo = self.topology
        domains: List[SchedDomain] = []
        level = 0

        smt_span = self._online_in(sorted(topo.smt_siblings(cpu_id)))
        if topo.smt_width > 1 and len(smt_span) > 1:
            groups = tuple(
                self._make_group(frozenset([c])) for c in sorted(smt_span)
            )
            domains.append(
                self._make_domain(
                    "SMT", level, smt_span, groups, self._interval(level),
                    imbalance_ratio=1.05,
                )
            )
            level += 1

        node_cpus = self._online_in(topo.llc_siblings(cpu_id))
        if len(node_cpus) > 1:
            if topo.smt_width > 1:
                # Groups are the SMT sibling sets inside the node.
                seen: Set[int] = set()
                group_list = []
                for c in sorted(node_cpus):
                    if c in seen:
                        continue
                    sibs = self._online_in(topo.smt_siblings(c)) & node_cpus
                    seen.update(sibs)
                    group_list.append(self._make_group(sibs))
            else:
                group_list = [
                    self._make_group(frozenset([c]))
                    for c in sorted(node_cpus)
                ]
            domains.append(
                self._make_domain(
                    "MC", level, node_cpus, tuple(group_list),
                    self._interval(level), imbalance_ratio=1.10,
                )
            )
            level += 1
        return domains

    def _build_cross_node(
        self, cpu_id: int, start_level: int
    ) -> List[SchedDomain]:
        """One domain per hop distance present in the interconnect."""
        topo = self.topology
        if topo.num_nodes <= 1:
            return []
        domains: List[SchedDomain] = []
        own_node = topo.node_of(cpu_id)
        level = start_level
        for hops in hop_levels(topo.interconnect):
            span_nodes = topo.interconnect.nodes_within(own_node, hops)
            span = self._online_in(topo.cpus_of_nodes(sorted(span_nodes)))
            if len(span) <= 1:
                level += 1
                continue
            groups = self._numa_groups(cpu_id, span_nodes, hops)
            # Skip degenerate levels that add no balancing scope.
            if domains and span == domains[-1].span:
                continue
            domains.append(
                self._make_domain(
                    f"NUMA-{hops}hop", level, span, groups,
                    self._interval(level), numa=True,
                    imbalance_ratio=1.05,
                )
            )
            level += 1
        return domains

    def _numa_groups(
        self,
        cpu_id: int,
        span_nodes: FrozenSet[int],
        hops: int,
    ) -> Tuple[SchedGroup, ...]:
        """Groups of a cross-node domain.

        Each group is "a seed node plus every node within ``hops - 1`` hops
        of it", i.e. the span of the level below, clipped to this domain.
        Seeds are chosen until every node in the domain is covered.

        * Buggy path: seeds are taken in ascending global node order --
          the "perspective of core 0" construction.  On asymmetric
          interconnects the produced groups can overlap such that two
          distant nodes appear together in every group.
        * Fixed path: the first seed is the perspective CPU's own node, so
          the local group never hides a distant node behind overlap.
        """
        topo = self.topology
        own_node = topo.node_of(cpu_id)
        if self.features.fix_group_construction:
            seed_order = [own_node] + [
                n for n in sorted(span_nodes) if n != own_node
            ]
        else:
            seed_order = sorted(span_nodes)

        groups: List[SchedGroup] = []
        covered: Set[int] = set()
        for seed in seed_order:
            if seed in covered:
                continue
            member_nodes = (
                topo.interconnect.nodes_within(seed, hops - 1) & span_nodes
            )
            cpus = self._online_in(topo.cpus_of_nodes(sorted(member_nodes)))
            if not cpus:
                covered.add(seed)
                continue
            covered.update(member_nodes)
            if self.features.fix_group_construction:
                # Per-perspective groups carry a balance mask: only the
                # seed node's CPUs may act as designated balancer.
                mask = self._online_in(topo.cpus_of_node(seed)) or cpus
                groups.append(self._make_group(cpus, balance_cpus=mask))
            else:
                groups.append(self._make_group(cpus))
        return tuple(groups)


def describe_domains(builder: DomainBuilder, cpu_id: int) -> str:
    """Readable dump of one CPU's hierarchy (Figure 1-style)."""
    lines = [f"scheduling domains of cpu {cpu_id}:"]
    for domain in builder.domains_of(cpu_id):
        lines.append(
            f"  level {domain.level} [{domain.name}] "
            f"span={sorted(domain.span)}"
        )
        for group in domain.groups:
            lines.append(f"    group {list(group.sorted_cpus())}")
    return "\n".join(lines)
