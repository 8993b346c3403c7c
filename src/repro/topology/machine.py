"""Machine model: cores, SMT siblings, LLC/NUMA nodes.

The model mirrors what the Linux scheduler sees through the architecture
topology hooks: for each logical CPU, which CPUs share functional units (SMT
siblings), which share the last-level cache (on the paper's machine, an LLC
is a NUMA node of eight cores), and how the NUMA nodes are wired together
(:class:`~repro.topology.interconnect.Interconnect`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.topology.interconnect import Interconnect


@dataclass(frozen=True)
class Core:
    """One logical CPU.

    Attributes
    ----------
    cpu_id:
        Global core number, dense from 0.
    node_id:
        NUMA node (= LLC domain) this core belongs to.
    smt_id:
        Index of the SMT sibling group within the node; cores with the same
        ``(node_id, smt_id)`` share functional units.
    """

    cpu_id: int
    node_id: int
    smt_id: int


@dataclass(frozen=True)
class Node:
    """One NUMA node: a set of cores sharing a last-level cache."""

    node_id: int
    cpu_ids: Tuple[int, ...]

    def __contains__(self, cpu_id: int) -> bool:
        return cpu_id in self.cpu_ids


@dataclass
class MachineSpec:
    """Human-readable description of a machine (the paper's Table 5)."""

    name: str = "generic"
    clock_ghz: float = 2.1
    memory_gb: int = 512
    interconnect_name: str = "HyperTransport 3.0"
    caches: str = "768 KB L1, 16 MB L2, 12 MB L3 per CPU"
    extra: Dict[str, str] = field(default_factory=dict)


_SiblingTables = Tuple[
    Tuple[Tuple[int, ...], ...],
    Tuple[FrozenSet[int], ...],
    Tuple[Tuple[int, ...], ...],
    Tuple[FrozenSet[int], ...],
]


@lru_cache(maxsize=None)
def _sibling_tables(
    nodes: int, cores_per_node: int, smt_width: int
) -> _SiblingTables:
    """Per-CPU (SMT tuple, SMT set, LLC tuple, LLC set), ascending.

    A pure function of the machine's shape, so every topology of one
    shape -- every scheduler and simulation built on it -- shares one
    copy of these immutable answers.
    """
    smt: List[Tuple[int, ...]] = []
    llc: List[Tuple[int, ...]] = []
    for node_id in range(nodes):
        first = node_id * cores_per_node
        last = first + cores_per_node
        for base in range(first, last, smt_width):
            smt.extend([tuple(range(base, base + smt_width))] * smt_width)
        llc.extend([tuple(range(first, last))] * cores_per_node)
    sets: Dict[Tuple[int, ...], FrozenSet[int]] = {}
    for cpus in smt + llc:
        if cpus not in sets:
            sets[cpus] = frozenset(cpus)
    return (
        tuple(smt),
        tuple(sets[cpus] for cpus in smt),
        tuple(llc),
        tuple(sets[cpus] for cpus in llc),
    )


class MachineTopology:
    """Cores grouped into SMT pairs and NUMA nodes over an interconnect.

    Parameters
    ----------
    nodes:
        Number of NUMA nodes.
    cores_per_node:
        Cores in each node (all nodes are homogeneous).
    smt_width:
        Number of cores sharing functional units (2 on the paper's
        Bulldozer machine: "pairs of cores share an FPU").  Use 1 to disable
        the SMT level.
    interconnect:
        Link graph between nodes; defaults to fully connected.
    spec:
        Optional hardware description used only for reporting.
    """

    def __init__(
        self,
        nodes: int,
        cores_per_node: int,
        smt_width: int = 1,
        interconnect: Optional[Interconnect] = None,
        spec: Optional[MachineSpec] = None,
    ):
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        if cores_per_node <= 0:
            raise ValueError(
                f"cores_per_node must be positive, got {cores_per_node}"
            )
        if smt_width <= 0:
            raise ValueError(f"smt_width must be positive, got {smt_width}")
        if cores_per_node % smt_width != 0:
            raise ValueError(
                f"cores_per_node ({cores_per_node}) must be a multiple of "
                f"smt_width ({smt_width})"
            )
        if interconnect is None:
            interconnect = Interconnect.fully_connected(max(nodes, 1))
        if interconnect.num_nodes != nodes:
            raise ValueError(
                f"interconnect has {interconnect.num_nodes} nodes, "
                f"topology has {nodes}"
            )
        interconnect.validate()

        self.num_nodes = nodes
        self.cores_per_node = cores_per_node
        self.smt_width = smt_width
        self.interconnect = interconnect
        self.spec = spec or MachineSpec()

        self.cores: List[Core] = []
        self.nodes: List[Node] = []
        for node_id in range(nodes):
            cpu_ids = []
            for local in range(cores_per_node):
                cpu_id = node_id * cores_per_node + local
                smt_id = local // smt_width
                self.cores.append(Core(cpu_id, node_id, smt_id))
                cpu_ids.append(cpu_id)
            self.nodes.append(Node(node_id, tuple(cpu_ids)))
        self._smt, self._smt_sets, self._llc, self._llc_sets = _sibling_tables(
            nodes, cores_per_node, smt_width
        )

    @property
    def num_cpus(self) -> int:
        """Total number of logical CPUs."""
        return self.num_nodes * self.cores_per_node

    def core(self, cpu_id: int) -> Core:
        """The :class:`Core` record for ``cpu_id``."""
        if not 0 <= cpu_id < self.num_cpus:
            raise ValueError(f"cpu {cpu_id} out of range [0, {self.num_cpus})")
        return self.cores[cpu_id]

    def node_of(self, cpu_id: int) -> int:
        """NUMA node id of a CPU."""
        return self.core(cpu_id).node_id

    def cpus_of_node(self, node_id: int) -> Tuple[int, ...]:
        """All CPU ids in a node, ascending."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(
                f"node {node_id} out of range [0, {self.num_nodes})"
            )
        return self.nodes[node_id].cpu_ids

    def cpus_of_nodes(self, node_ids: Sequence[int]) -> FrozenSet[int]:
        """Union of the CPU sets of several nodes."""
        cpus: set = set()
        for node_id in node_ids:
            cpus.update(self.cpus_of_node(node_id))
        return frozenset(cpus)

    def smt_siblings(self, cpu_id: int) -> FrozenSet[int]:
        """CPUs sharing functional units with ``cpu_id`` (including it)."""
        return self._smt_sets[self.core(cpu_id).cpu_id]

    def sorted_smt_siblings(self, cpu_id: int) -> Tuple[int, ...]:
        """:meth:`smt_siblings` as an ascending tuple."""
        return self._smt[self.core(cpu_id).cpu_id]

    def llc_siblings(self, cpu_id: int) -> FrozenSet[int]:
        """CPUs sharing the last-level cache (= the node) with ``cpu_id``."""
        return self._llc_sets[self.core(cpu_id).cpu_id]

    def sorted_llc_siblings(self, cpu_id: int) -> Tuple[int, ...]:
        """:meth:`llc_siblings` as an ascending tuple."""
        return self._llc[self.core(cpu_id).cpu_id]

    def all_cpus(self) -> FrozenSet[int]:
        """The full CPU set of the machine."""
        return frozenset(range(self.num_cpus))

    def node_distance(self, cpu_a: int, cpu_b: int) -> int:
        """Hop distance between the nodes hosting two CPUs."""
        return self.interconnect.distance(
            self.node_of(cpu_a), self.node_of(cpu_b)
        )

    def shares_llc(self, cpu_a: int, cpu_b: int) -> bool:
        """True when two CPUs share a last-level cache."""
        return self.node_of(cpu_a) == self.node_of(cpu_b)

    def describe(self) -> str:
        """Multi-line human-readable summary (Table 5 style)."""
        lines = [
            f"Machine: {self.spec.name}",
            f"CPUs: {self.num_cpus} "
            f"({self.num_nodes} nodes x {self.cores_per_node} cores, "
            f"SMT width {self.smt_width})",
            f"Clock frequency: {self.spec.clock_ghz} GHz",
            f"Caches: {self.spec.caches}",
            f"Memory: {self.spec.memory_gb} GB",
            f"Interconnect: {self.spec.interconnect_name} "
            f"(diameter {self.interconnect.diameter()} hop(s))",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MachineTopology(nodes={self.num_nodes}, "
            f"cores_per_node={self.cores_per_node}, "
            f"smt_width={self.smt_width})"
        )
