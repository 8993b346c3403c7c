"""ObsSession + MetricsRecorder against live simulated runs."""

import pytest

from repro.experiments.scenarios import build_bug_scenario
from repro.obs import ObsSession
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology.presets import single_node, two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec


def _sleeper(name, rounds=5, run_us=2 * MS, sleep_us=1 * MS):
    def factory():
        def program():
            for _ in range(rounds):
                yield Run(run_us)
                yield Sleep(sleep_us)

        return program()

    return TaskSpec(name, factory)


def _run_observed(trace=False, tasks=6, duration_us=200 * MS):
    system = System(single_node(cores=4))
    obs = ObsSession.attach_to(system, trace=trace)
    for i in range(tasks):
        system.spawn(_sleeper(f"t{i}"))
    system.run_for(duration_us)
    obs.close()
    return system, obs


class TestSessionLifecycle:
    def test_attach_to_wires_probe_and_close_detaches(self):
        system, obs = _run_observed()
        switches = obs.metrics.get("sched_switches_total")
        before = switches.total()
        # After close, further simulation must not be recorded.
        system.run_for(50 * MS)
        assert switches.total() == before

    def test_close_is_idempotent(self):
        _, obs = _run_observed()
        obs.close()

    def test_write_chrome_trace_requires_trace_mode(self):
        _, obs = _run_observed(trace=False)
        with pytest.raises(RuntimeError):
            obs.write_chrome_trace("/tmp/never-written.json")

    def test_sessions_are_isolated_per_system(self):
        # Two bug scenarios in one process, each with its own session:
        # running B must reach A's session through none of the channels
        # that bypass the scheduler (engine, checker, sampler).
        sessions = {}

        def build(key):
            def instrument(system):
                sessions[key] = ObsSession.attach_to(system)

            return build_bug_scenario(
                "group-imbalance", "buggy", instrument=instrument
            )

        build("a")
        scenario_b = build("b")
        scenario_b.run(300 * MS)
        for obs in sessions.values():
            obs.close()
        quiet, heard = sessions["a"].metrics, sessions["b"].metrics
        for name in (
            "engine_callbacks_total",
            "checker_events_total",
            "stats_violation_ticks_total",
        ):
            assert quiet.get(name).total() == 0, name
            assert heard.get(name).total() > 0, name


class TestRecorderMetrics:
    def test_wakeup_latency_recorded_for_every_switch_in_after_wakeup(self):
        _, obs = _run_observed()
        latency = obs.recorder.wakeup_latency
        assert latency.count() > 0
        # Forks arm a sample too (sched_wakeup_new analog): at least one
        # sample per spawned task.
        assert latency.count() >= 6

    def test_switch_and_fork_exit_counters(self):
        _, obs = _run_observed()
        m = obs.metrics
        assert m.get("sched_forks_total").total() == 6
        assert m.get("sched_exits_total").total() == 6
        assert m.get("sched_switches_total").total() > 0

    def test_wakeups_split_by_landing(self):
        _, obs = _run_observed()
        wakeups = obs.metrics.get("sched_wakeups_total")
        assert wakeups.total() > 0
        landings = {k for key in wakeups.label_keys() for k in dict(key)}
        assert landings == {"landing"}

    def test_engine_callbacks_counted_by_event_label(self):
        system, obs = _run_observed()
        engine = obs.metrics.get("engine_callbacks_total")
        assert engine.total() == system.loop.events_fired
        labels = {dict(key)["label"] for key in engine.label_keys()}
        assert labels == {"tick", "phase-end", "wake"}

    def test_balance_outcomes_by_domain(self):
        system = System(two_nodes(cores_per_node=2))
        obs = ObsSession.attach_to(system)
        for i in range(8):
            system.spawn(_sleeper(f"t{i}", rounds=20))
        system.run_for(300 * MS)
        obs.close()
        balance = obs.metrics.get("sched_balance_total")
        assert balance.total() > 0
        domains = {dict(key)["domain"] for key in balance.label_keys()}
        assert domains  # per-domain labels present (MC and/or NUMA levels)

    def test_idle_gaps_recorded(self):
        _, obs = _run_observed()
        gaps = obs.metrics.get("sched_idle_gap_us")
        assert gaps.count() > 0

    def test_latency_line_renders(self):
        _, obs = _run_observed()
        assert "wakeup-to-run latency" in obs.recorder.latency_line()
        assert "p99=" in obs.recorder.latency_line()

    def test_double_attach_rejected(self):
        from repro.obs.recorder import MetricsRecorder

        system = System(single_node(cores=2))
        recorder = MetricsRecorder()
        system.attach_probe(recorder)
        with pytest.raises(RuntimeError):
            system.attach_probe(recorder)
        system.detach_probe(recorder)
        system.attach_probe(recorder)  # re-attach after detach is fine
        system.detach_probe(recorder)


class TestHarnessObsPath:
    def test_build_system_attaches_session(self):
        from repro.experiments.harness import ExperimentConfig
        from repro.sched.features import SchedFeatures

        config = ExperimentConfig(SchedFeatures(), obs=True)
        system = config.build_system()
        assert system.obs is not None
        plain = ExperimentConfig(SchedFeatures()).build_system()
        assert plain.obs is None

    def test_with_obs_copy(self):
        from repro.experiments.harness import ExperimentConfig
        from repro.sched.features import SchedFeatures

        config = ExperimentConfig(SchedFeatures())
        assert config.with_obs().obs and not config.obs

    def test_table1_obs_rows_carry_latency(self):
        from repro.experiments.table1 import format_table1, run_table1

        rows = run_table1(scale=0.02, apps=["cg"], obs=True)
        (row,) = rows
        assert row.bug_wakeup_p99_us is not None
        assert row.fix_wakeup_p99_us is not None
        assert row.bug_wakeup_p99_us >= row.bug_wakeup_p50_us
        table = format_table1(rows)
        assert "wake p50/p99" in table

    def test_table1_without_obs_has_no_latency_columns(self):
        from repro.experiments.table1 import format_table1, run_table1

        rows = run_table1(scale=0.02, apps=["cg"])
        assert rows[0].bug_wakeup_p99_us is None
        assert "wake p50/p99" not in format_table1(rows)
