"""Per-rule positive and negative tests over the lint fixture corpus.

Each ``*_bad.py`` fixture must trip its rule (the positive half proves the
rule actually fires -- the suite fails if the rule is deleted or gutted),
and each ``*_ok.py`` twin must stay silent (the negative half pins the
false-positive rate at zero for the idioms the codebase actually uses).

Fixtures live outside any package, so they are analyzed under assumed
module names (``repro.sched.<stem>`` etc.) to land inside rule scopes --
the same override hook ``Analyzer.run(modules=...)`` exposes to users.
"""

from pathlib import Path

from repro.analysis import Analyzer, default_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SRC = Path(__file__).resolve().parents[1] / "src"


def lint_fixture(name, module):
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {path}"
    analyzer = Analyzer(default_rules())
    return analyzer.run([path], modules={path: module})


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------- determinism


def test_unseeded_random_bad():
    findings = lint_fixture(
        "det_unseeded_random_bad.py", "repro.sched.det_unseeded_random_bad"
    )
    assert rule_ids(findings) == ["det-unseeded-random"] * 2


def test_unseeded_random_ok():
    findings = lint_fixture(
        "det_unseeded_random_ok.py", "repro.sched.det_unseeded_random_ok"
    )
    assert findings == []


def test_wallclock_bad():
    findings = lint_fixture(
        "det_wallclock_bad.py", "repro.sched.det_wallclock_bad"
    )
    assert rule_ids(findings) == ["det-wallclock"] * 3


def test_wallclock_ignored_outside_hot_scope():
    # The same file analyzed as a viz module is allowed to read the clock.
    findings = lint_fixture(
        "det_wallclock_bad.py", "repro.viz.det_wallclock_bad"
    )
    assert findings == []


def test_wallclock_ok():
    findings = lint_fixture(
        "det_wallclock_ok.py", "repro.sched.det_wallclock_ok"
    )
    assert findings == []


def test_set_iteration_bad():
    findings = lint_fixture(
        "det_set_iteration_bad.py", "repro.sched.det_set_iteration_bad"
    )
    assert rule_ids(findings) == ["det-set-iteration"] * 4


def test_set_iteration_ok():
    findings = lint_fixture(
        "det_set_iteration_ok.py", "repro.sched.det_set_iteration_ok"
    )
    assert findings == []


def test_seeded_vs_wallclock_regression_pair():
    """Acceptance: the sanitizer catches a seeded->wall-clock regression.

    ``regression_seeded.py`` and ``regression_wallclock.py`` implement the
    same jitter helper; only the second trades the virtual clock and the
    caller-seeded generator for ``time.time()`` and the global ``random``
    module.  The diff between the two is exactly the regression class the
    determinism rules exist to stop, and lint must flag only the bad half.
    """
    clean = lint_fixture(
        "regression_seeded.py", "repro.sched.regression_seeded"
    )
    assert clean == []

    regressed = lint_fixture(
        "regression_wallclock.py", "repro.sched.regression_wallclock"
    )
    assert sorted(rule_ids(regressed)) == [
        "det-unseeded-random",
        "det-wallclock",
    ]


def test_float_sum_bad():
    findings = lint_fixture(
        "det_float_sum_bad.py", "repro.sched.det_float_sum_bad"
    )
    assert rule_ids(findings) == ["det-float-sum"] * 4
    assert all("load_sum" in f.message for f in findings)
    assert "math.fsum" in findings[-1].message


def test_float_sum_ok():
    findings = lint_fixture(
        "det_float_sum_ok.py", "repro.sched.det_float_sum_ok"
    )
    assert findings == []


def test_float_sum_ignored_outside_sched_and_sim():
    findings = lint_fixture(
        "det_float_sum_bad.py", "repro.experiments.det_float_sum_bad"
    )
    assert findings == []


def test_float_sum_catches_builtin_sum_in_real_tree():
    """A builtin ``sum`` planted back into the scheduler is flagged.

    The wakeup path's group average is a float load sum; undoing its
    ``load_sum`` call re-creates the shape that made schedules differ
    between Python 3.11 and 3.12.
    """
    source = (SRC / "repro" / "sched" / "wakeup.py").read_text()
    assert source.count("load_sum([") == 1
    planted = source.replace("load_sum([", "sum([")
    line = next(
        i for i, text in enumerate(planted.splitlines(), start=1)
        if "return sum([" in text
    )
    findings = Analyzer(default_rules()).check_source(
        planted, module="repro.sched.wakeup"
    )
    hits = [f for f in findings if f.rule_id == "det-float-sum"]
    assert [f.line for f in hits] == [line], [f.format() for f in findings]


# ------------------------------------------------------------------- layering


def test_layering_bad():
    findings = lint_fixture("layering_bad.py", "repro.sched.layering_bad")
    assert sorted(rule_ids(findings)) == [
        "layer-sched-obs",
        "layer-sched-sim",
        "layer-sched-sim",
    ]


def test_layering_ok():
    findings = lint_fixture("layering_ok.py", "repro.sched.layering_ok")
    assert findings == []


def test_layering_inert_outside_source_layer():
    # sim importing sim is never a layering violation.
    findings = lint_fixture("layering_bad.py", "repro.sim.layering_bad")
    assert [r for r in rule_ids(findings) if r.startswith("layer-")] == []


# ----------------------------------------------------------------- flag rules


def test_flags_bad():
    findings = lint_fixture("flags_bad.py", "repro.sched.flags_bad")
    assert rule_ids(findings) == ["flag-discipline"] * 5


def test_flags_ok():
    findings = lint_fixture("flags_ok.py", "repro.sched.flags_ok")
    assert findings == []


# ------------------------------------------------------------ load fast paths


def test_perf_load_bypass_bad():
    findings = lint_fixture(
        "perf_load_bypass_bad.py", "repro.sched.perf_load_bypass_bad"
    )
    # .tracker.util, .tracker.last_update_us, _cached_load, _cached_load_now
    assert rule_ids(findings) == ["perf-load-bypass"] * 4


def test_perf_load_bypass_ok():
    findings = lint_fixture(
        "perf_load_bypass_ok.py", "repro.sched.perf_load_bypass_ok"
    )
    assert findings == []


def test_perf_load_bypass_owners_exempt():
    # The representation owners may read their own fields.
    findings = lint_fixture("perf_load_bypass_bad.py", "repro.sched.task")
    assert rule_ids(findings) == ["perf-load-bypass"] * 2  # cache cells only
    findings = lint_fixture("perf_load_bypass_bad.py", "repro.sched.runqueue")
    assert rule_ids(findings) == ["perf-load-bypass"] * 2  # tracker only


def test_perf_load_bypass_out_of_scope():
    # Experiments/analysis code may inspect whatever it likes.
    findings = lint_fixture(
        "perf_load_bypass_bad.py", "repro.experiments.perf_load_bypass_bad"
    )
    assert findings == []


def test_perf_load_bypass_alias_bad():
    # tr.util, rq.tracker.util, t.last_update_us, walrus tr.util
    findings = lint_fixture(
        "perf_load_alias_bad.py", "repro.sched.perf_load_alias_bad"
    )
    assert rule_ids(findings) == ["perf-load-bypass"] * 4


def test_perf_load_bypass_alias_ok():
    findings = lint_fixture(
        "perf_load_alias_ok.py", "repro.sched.perf_load_alias_ok"
    )
    assert findings == []


# ------------------------------------------------------ orchestrator safety


def test_orchestrator_fork_safety_bad():
    # Module-level RNG, module-level MetricsRegistry, mutated module dict.
    findings = lint_fixture(
        "orchestrator_fork_bad.py",
        "repro.experiments.orchestrator_fork_bad",
    )
    assert rule_ids(findings) == ["orchestrator-fork-safety"] * 3
    assert "_RNG" in findings[0].message
    assert "MetricsRegistry" in findings[1].message
    assert "_RESULTS" in findings[2].message


def test_orchestrator_fork_safety_ok():
    findings = lint_fixture(
        "orchestrator_fork_ok.py",
        "repro.experiments.orchestrator_fork_ok",
    )
    assert findings == []


def test_orchestrator_fork_safety_out_of_scope():
    # Workload/sim modules never run inside pool workers as trial code.
    findings = lint_fixture(
        "orchestrator_fork_bad.py",
        "repro.workloads.orchestrator_fork_bad",
    )
    assert findings == []
