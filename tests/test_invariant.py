"""Tests for the work-conserving invariant (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariant import find_violations, has_violation, violation_pairs
from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.topology import single_node

FEATURES = SchedFeatures().without_autogroup()


def make_sched(cpus=4):
    return Scheduler(single_node(cpus), FEATURES)


def overload(sched, cpu_id, queued=1, allowed=None):
    """Put one running + N queued tasks on a CPU."""
    runner = Task(f"run{cpu_id}")
    sched.register_task(runner)
    sched.enqueue_task_on(runner, cpu_id, 0)
    sched.pick_next_task(cpu_id, 0)
    tasks = []
    for i in range(queued):
        t = Task(f"q{cpu_id}.{i}", allowed_cpus=allowed)
        sched.register_task(t)
        sched.enqueue_task_on(t, cpu_id, 0)
        tasks.append(t)
    sched.drain_pending()
    return tasks


def test_no_violation_when_all_idle():
    sched = make_sched()
    assert find_violations(sched, 0) == []
    assert not has_violation(sched, 0)


def test_no_violation_when_balanced():
    sched = make_sched(2)
    overload(sched, 0, queued=0)
    overload(sched, 1, queued=0)
    assert not has_violation(sched, 0)


def test_violation_idle_plus_overloaded():
    sched = make_sched(2)
    overload(sched, 0, queued=1)
    violations = find_violations(sched, 123)
    assert len(violations) == 1
    v = violations[0]
    assert v.idle_cpu == 1
    assert v.busy_cpu == 0
    assert v.busy_nr_running == 2
    assert v.time_us == 123
    assert len(v.stealable_tids) == 1
    assert has_violation(sched, 123)


def test_single_running_task_is_not_overload():
    sched = make_sched(2)
    overload(sched, 0, queued=0)
    assert not has_violation(sched, 0)


def test_affinity_blocks_violation():
    """A pinned waiting task does not violate the invariant."""
    sched = make_sched(2)
    overload(sched, 0, queued=1, allowed=frozenset({0}))
    assert find_violations(sched, 0) == []
    assert not has_violation(sched, 0)


def test_offline_cpu_not_a_violation_party():
    sched = make_sched(3)
    overload(sched, 0, queued=1)
    sched.set_cpu_online(1, False, 0)
    sched.set_cpu_online(2, False, 0)
    assert find_violations(sched, 0) == []


def test_multiple_pairs_reported():
    sched = make_sched(4)
    overload(sched, 0, queued=2)
    overload(sched, 1, queued=1)
    pairs = violation_pairs(find_violations(sched, 0))
    assert (2, 0) in pairs
    assert (3, 0) in pairs
    assert (2, 1) in pairs
    assert (3, 1) in pairs


def test_describe():
    sched = make_sched(2)
    overload(sched, 0, queued=1)
    text = find_violations(sched, 55)[0].describe()
    assert "cpu 1 idle" in text
    assert "t=55us" in text


# Per CPU: online?, then per task (at most three): pinned?, extra CPUs
# its affinity allows besides this one, and whether one task runs.
_CPU_STATE = st.tuples(
    st.booleans(),
    st.lists(
        st.tuples(st.booleans(), st.frozensets(st.integers(0, 5))),
        max_size=3,
    ),
    st.booleans(),
)


@pytest.mark.parametrize("fastpath", [True, False])
@settings(max_examples=150, deadline=None)
@given(states=st.lists(_CPU_STATE, min_size=6, max_size=6))
def test_has_violation_agrees_with_find_violations(fastpath, states):
    """The early-exit check answers exactly what Algorithm 2 finds, on
    random mixes of idle, busy, overloaded and offline CPUs with pinned
    and unpinned waiting tasks."""
    sched = Scheduler(single_node(6), FEATURES.with_fastpath(fastpath))
    for cpu_id, (online, tasks, run_one) in enumerate(states):
        if not online and cpu_id > 0:  # CPU 0 stays online
            sched.set_cpu_online(cpu_id, False, 0)
            continue
        for i, (pinned, extra) in enumerate(tasks):
            allowed = extra | {cpu_id} if pinned else None
            sched.enqueue_task_on(
                Task(f"t{cpu_id}.{i}", allowed_cpus=allowed), cpu_id, 0
            )
        if run_one and tasks:
            sched.pick_next_task(cpu_id, 0)
    assert has_violation(sched, 0) == bool(find_violations(sched, 0))
