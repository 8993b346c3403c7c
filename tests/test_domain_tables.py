"""Tests for the process-wide domain-table memo behind DomainBuilder.rebuild.

A rebuild looks its finished per-CPU table up by everything the build
reads and constructs it only on a miss.  These tests hold the memo to a
fresh ``_build_table()`` along random hotplug sequences, check that equal
keys share one table within the memo's bound, and check that no consumer
mutates a shared table during a long run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import domains as domains_mod
from repro.sched.domains import TABLE_MEMO_SIZE, DomainBuilder
from repro.sched.features import SchedFeatures
from repro.sched.sanitizer import CoherenceError
from repro.sim.timebase import SEC
from repro.topology import (
    amd_bulldozer_64,
    paper_figure1_machine,
    single_node,
    two_nodes,
)
from tests.conftest import build_soak64

TOPOLOGIES = {
    "amd_bulldozer_64": amd_bulldozer_64,
    "paper_figure1_machine": paper_figure1_machine,
    "two_nodes": two_nodes,
    "single_node": single_node,
}

#: The four fix_group_construction x fix_missing_domains combinations.
FEATURE_COMBOS = [
    SchedFeatures(),
    SchedFeatures().with_fixes("group_construction"),
    SchedFeatures().with_fixes("missing_domains"),
    SchedFeatures().with_fixes("group_construction", "missing_domains"),
]


def assert_matches_fresh_build(builder):
    fresh = builder._build_table()
    for cpu_id in range(builder.topology.num_cpus):
        assert builder.domains_of(cpu_id) == fresh.get(cpu_id, [])


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_memoized_tables_match_fresh_builds(topo_name, data):
    topo = TOPOLOGIES[topo_name]()
    features = data.draw(st.sampled_from(FEATURE_COMBOS), label="features")
    builder = DomainBuilder(topo, features)
    assert_matches_fresh_build(builder)
    cpu = st.integers(0, topo.num_cpus - 1)
    steps = data.draw(
        st.lists(st.tuples(cpu, st.booleans()), max_size=5), label="steps"
    )
    for cpu_id, online in steps:
        if not online and builder.online_cpus() == {cpu_id}:
            continue  # offlining the last CPU is refused
        generation = builder.generation
        changed = online != builder.is_online(cpu_id)
        builder.set_cpu_online(cpu_id, online)
        assert builder.generation == generation + changed
        assert_matches_fresh_build(builder)


def test_equal_keys_share_one_table():
    a = DomainBuilder(two_nodes(), SchedFeatures())
    # Features outside the key (fast paths, sanitizer) do not split it.
    b = DomainBuilder(two_nodes(), SchedFeatures().with_fastpath(True))
    assert a._domains is b._domains
    assert a.domains_of(3) is b.domains_of(3)
    # Another topology, or a fix that changes the groups, is another key.
    fixed = SchedFeatures().with_fixes("group_construction")
    assert DomainBuilder(two_nodes(), fixed)._domains is not a._domains
    assert DomainBuilder(single_node(8), SchedFeatures())._domains is not (
        a._domains
    )


def test_hotplug_round_trip_reuses_the_boot_table():
    builder = DomainBuilder(two_nodes(), SchedFeatures().with_fixes(
        "missing_domains"
    ))
    boot = builder._domains
    builder.set_cpu_online(5, False)
    assert builder._domains is not boot
    builder.set_cpu_online(5, True)
    # Same key as at boot: the boot table comes back, generation moves on.
    assert builder._domains is boot
    assert builder.generation == 3


def test_memo_stays_within_its_bound():
    topo = single_node(TABLE_MEMO_SIZE + 8)
    builder = DomainBuilder(topo, SchedFeatures())
    for cpu_id in range(1, topo.num_cpus):
        builder.set_cpu_online(cpu_id, False)
        builder.set_cpu_online(cpu_id, True)
        assert len(domains_mod._TABLES) <= TABLE_MEMO_SIZE
    assert_matches_fresh_build(builder)


def test_sanitizer_checks_memo_hits(monkeypatch):
    features = SchedFeatures().with_sanitizer()
    builder = DomainBuilder(two_nodes(), features)
    key = builder._table_key()
    poisoned = dict(domains_mod._TABLES[key])
    poisoned[0] = poisoned[0][:-1]
    monkeypatch.setitem(domains_mod._TABLES, key, poisoned)
    with pytest.raises(CoherenceError) as info:
        DomainBuilder(two_nodes(), features)
    assert info.value.accessor == "domain-table"
    assert info.value.field == "cpu 0 domains"
    # Without the sanitizer a hit is trusted as is.
    assert DomainBuilder(two_nodes(), SchedFeatures())._domains is poisoned


def test_long_run_leaves_shared_tables_unmutated():
    system = build_soak64()
    builder = system.scheduler.domain_builder
    table = builder._domains
    before = {
        cpu_id: (id(domains), tuple(domains))
        for cpu_id, domains in table.items()
    }
    system.run_for(1 * SEC)
    assert builder._domains is table
    after = {
        cpu_id: (id(domains), tuple(domains))
        for cpu_id, domains in table.items()
    }
    assert after == before
    for domains in table.values():
        assert type(domains) is list
    assert_matches_fresh_build(builder)
