"""Table 5, Figure 1 and Figure 4: the machine and its domain hierarchy.

These are descriptive artifacts: the experimental machine's spec sheet
(Table 5), the scheduling-domain hierarchy as seen from core 0 (Figure 1's
structure, on the 64-core machine), and the NUMA interconnect with its
one-hop neighborhoods (Figure 4).
"""

from __future__ import annotations

from typing import Optional

from repro.sched.domains import DomainBuilder, describe_domains
from repro.sched.features import SchedFeatures
from repro.topology import (
    MachineTopology,
    amd_bulldozer_64,
    paper_figure1_machine,
)
from repro.topology.interconnect import hop_levels


def format_table5(topo: Optional[MachineTopology] = None) -> str:
    """The hardware description (paper Table 5).

    ``topo`` defaults to a fresh :func:`amd_bulldozer_64`; a caller that
    also renders Figure 4 passes one machine to both.
    """
    return (topo if topo is not None else amd_bulldozer_64()).describe()


def format_figure4(topo: Optional[MachineTopology] = None) -> str:
    """The interconnect: links and one-hop neighborhoods (paper Figure 4).

    ``topo`` defaults to a fresh :func:`amd_bulldozer_64`.
    """
    if topo is None:
        topo = amd_bulldozer_64()
    ic = topo.interconnect
    lines = ["Figure 4: topology of the 8-node AMD Bulldozer machine"]
    lines.append(f"links: {ic.links()}")
    for node in range(ic.num_nodes):
        lines.append(
            f"  node {node}: one hop -> {sorted(ic.neighbors(node))}"
        )
    lines.append(f"hop levels: {list(hop_levels(ic))} "
                 f"(diameter {ic.diameter()})")
    lines.append(
        "nodes 1 and 2 are two hops apart: "
        f"distance = {ic.distance(1, 2)}"
    )
    return "\n".join(lines)


def format_figure1(fixed_groups: bool = False) -> str:
    """The domain hierarchy from core 0's perspective (paper Figure 1).

    Rendered on the Figure 1 example machine (32 cores, 4 nodes); pass
    ``fixed_groups=True`` to see the per-perspective construction.
    """
    topo = paper_figure1_machine()
    features = SchedFeatures()
    if fixed_groups:
        features = features.with_fixes("group_construction")
    builder = DomainBuilder(topo, features)
    header = (
        "Figure 1: scheduling domains of the first core "
        f"({'fixed' if fixed_groups else 'mainline'} group construction)"
    )
    return header + "\n" + describe_domains(builder, 0)


def format_bulldozer_domains(cpu: int = 0, fixed_groups: bool = False) -> str:
    """The same dump on the experimental 64-core machine."""
    topo = amd_bulldozer_64()
    features = SchedFeatures()
    if fixed_groups:
        features = features.with_fixes("group_construction")
    builder = DomainBuilder(topo, features)
    return describe_domains(builder, cpu)
