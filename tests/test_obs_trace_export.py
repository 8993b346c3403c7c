"""Chrome trace-event export: builder unit tests + the CLI acceptance run."""

import json

import pytest

from repro.obs.trace_export import CHECKER_PID, ENGINE_PID, ChromeTraceBuilder
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import single_node
from repro.viz.events import Probe
from repro.workloads.base import Exit, Run, Sleep, TaskSpec


def _builder(num_cpus=2, **kwargs):
    return ChromeTraceBuilder(num_cpus, **kwargs)


def _events(builder):
    return builder.to_json()["traceEvents"]


class TestBuilderUnits:
    def test_metadata_names_every_cpu_track(self):
        builder = _builder(num_cpus=3)
        names = {
            e["args"]["name"]
            for e in _events(builder)
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"cpu 0", "cpu 1", "cpu 2", "sanity-checker",
                "engine"} <= names

    def test_switch_pair_produces_complete_slice(self):
        builder = _builder()
        builder.on_sched_switch(100, 0, None, 7, "lu-0")
        builder.on_sched_switch(400, 0, 7, None, "")
        (slice_,) = [e for e in _events(builder) if e.get("cat") == "task"]
        assert slice_["ph"] == "X"
        assert slice_["ts"] == 100 and slice_["dur"] == 300
        assert slice_["name"] == "lu-0" and slice_["pid"] == 0

    def test_back_to_back_switch_closes_previous_slice(self):
        builder = _builder()
        builder.on_sched_switch(0, 0, None, 1, "a")
        builder.on_sched_switch(50, 0, 1, 2, "b")
        builder.finish(80)
        slices = [e for e in _events(builder) if e.get("cat") == "task"]
        assert [(s["name"], s["ts"], s["dur"]) for s in slices] == [
            ("a", 0, 50), ("b", 50, 30),
        ]

    def test_migration_emits_flow_pair(self):
        builder = _builder()
        builder.on_migration(
            10, tid=3, src_cpu=0, dst_cpu=1, reason="balance:MC"
        )
        flows = [e for e in _events(builder) if e.get("cat") == "migration"]
        assert [e["ph"] for e in flows] == ["s", "f"]
        start, finish = flows
        assert start["pid"] == 0 and finish["pid"] == 1
        assert start["id"] == finish["id"]
        assert "balance:MC" in start["name"]

    def test_checker_events_become_instants(self):
        builder = _builder()
        builder.on_checker(1000, "violation_detected", {
            "violations": 2, "pairs": ((0, 1),), "window_us": 50_000,
        })
        builder.on_checker(2000, "bug_confirmed", {
            "detected_at_us": 1000, "violations": 2, "migrations": 0,
            "forks": 0, "exits": 0, "wakeups": 3,
        })
        instants = [e for e in _events(builder) if e.get("cat") == "checker"]
        assert len(instants) == 2
        assert all(e["ph"] == "i" and e["pid"] == CHECKER_PID
                   for e in instants)
        assert all(e["s"] == "g" for e in instants)  # global scope

    def test_checker_check_tracepoint_not_rendered(self):
        builder = _builder()
        builder.on_checker(1000, "check", {"violations": 0})
        assert not [e for e in _events(builder) if e.get("cat") == "checker"]

    def test_engine_labels_surface_as_instants(self):
        builder = _builder()
        builder.on_callback(5, "phase-end:17")
        builder.on_callback(6, "")
        instants = [e for e in _events(builder) if e.get("cat") == "engine"]
        assert [e["name"] for e in instants] == ["phase-end:17", "callback"]
        assert all(e["pid"] == ENGINE_PID for e in instants)

    def test_real_run_emits_tick_phase_end_and_wake_labels(self):
        """The labels a real System run hands ``Probe.on_callback``,
        including for events scheduled before tracing was enabled."""

        def program():
            yield Run(1500)
            yield Sleep(2000)
            yield Run(500)
            yield Exit()

        labels = []

        class Sink(Probe):
            def on_callback(self, now, label):
                labels.append((now, label))

        system = System(single_node(2), SchedFeatures(), seed=1)
        task = system.spawn(TaskSpec("worker", program))
        system.run_for(MS // 2)  # the first phase-end is already queued
        assert system.loop.on_callback is None
        sink = Sink()
        system.attach_probe(sink)
        system.run_for(10 * MS - MS // 2)
        system.detach_probe(sink)
        assert system.loop.on_callback is None
        tid = task.tid
        assert [entry for entry in labels if entry[1] != "tick"] == [
            (1500, f"phase-end:{tid}"),
            (3500, f"wake:{tid}"),
            (4000, f"phase-end:{tid}"),
        ]
        assert [now for now, label in labels if label == "tick"] == [
            k * MS for k in range(1, 11)
        ]

    def test_nr_running_becomes_counter_track(self):
        builder = _builder()
        builder.on_nr_running(7, cpu=1, nr_running=3)
        (counter,) = [e for e in _events(builder) if e["ph"] == "C"]
        assert counter["args"]["nr"] == 3 and counter["pid"] == 1

    def test_finish_closes_open_slices(self):
        builder = _builder()
        builder.on_sched_switch(0, 1, None, 9, "hog")
        builder.finish(500)
        (slice_,) = [e for e in _events(builder) if e.get("cat") == "task"]
        assert slice_["dur"] == 500

    def test_max_events_drops_and_counts(self):
        builder = _builder(max_events=10)  # metadata already uses 8
        for t in range(5):
            builder.on_nr_running(t, cpu=0, nr_running=1)
        data = builder.to_json()
        assert len(data["traceEvents"]) == 10
        assert data["otherData"]["dropped_events"] == 3

    def test_write_produces_valid_json(self, tmp_path):
        builder = _builder()
        builder.on_sched_switch(0, 0, None, 1, "t")
        path = tmp_path / "trace.json"
        count = builder.write(str(path), end_us=100)
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) == count

    def test_double_attach_rejected(self):
        system = System(single_node(2), SchedFeatures(), seed=1)
        builder = _builder()
        system.attach_probe(builder)
        with pytest.raises(RuntimeError):
            system.attach_probe(builder)


class TestCliAcceptance:
    """ISSUE acceptance: `repro trace group_imbalance --out /tmp/t.json`."""

    @pytest.fixture(scope="class")
    def trace_data(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("obs") / "t.json"
        assert main(["trace", "group_imbalance", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    def test_valid_chrome_trace_json(self, trace_data):
        assert isinstance(trace_data["traceEvents"], list)
        assert trace_data["traceEvents"]

    def test_per_core_tracks(self, trace_data):
        events = trace_data["traceEvents"]
        named = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # The group-imbalance scenario runs on the 2-node, 8-CPU machine.
        assert {f"cpu {i}" for i in range(8)} <= set(named)
        task_pids = {e["pid"] for e in events if e.get("cat") == "task"}
        assert len(task_pids) >= 2  # slices on several cores

    def test_at_least_one_migration_flow(self, trace_data):
        flows = [
            e for e in trace_data["traceEvents"]
            if e.get("cat") == "migration" and e["ph"] == "s"
        ]
        assert flows

    def test_at_least_one_checker_instant(self, trace_data):
        instants = [
            e for e in trace_data["traceEvents"]
            if e.get("cat") == "checker" and e["ph"] == "i"
        ]
        assert instants

    def test_metrics_subcommand_renders_table(self, capsys):
        from repro.cli import main

        assert main(
            ["metrics", "overload-on-wakeup", "--duration-us", "200000"]
        ) == 0
        out = capsys.readouterr().out
        assert "sched_wakeup_to_run_latency_us" in out
        assert "wakeup-to-run latency" in out

    def test_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out
