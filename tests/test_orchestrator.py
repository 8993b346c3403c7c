"""The sharded trial orchestrator: specs, pool, cache, determinism.

The contract under test is the one ``repro report --jobs N`` relies on:

* a :class:`TrialSpec` is plain picklable data whose fingerprint is its
  identity (execution policy excluded);
* the pool merges results in spec order, so any worker count -- and both
  the ``fork`` and ``spawn`` start methods -- produces rows and schedule
  digests byte-identical to a serial run;
* the content-addressed cache is keyed by spec fingerprint *and* source
  digest: editing scheduler code invalidates every entry, editing
  documentation invalidates nothing, and corrupt entries degrade to
  misses instead of errors.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random

import pytest

from repro.perf.orchestrator import (
    ResultCache,
    TrialResult,
    TrialSpec,
    build_features,
    feature_tokens,
    resolve_jobs,
    resolve_kind,
    resolve_start_method,
    run_trials,
    source_tree_digest,
)
from repro.sched.features import SchedFeatures

#: This module doubles as the trial-kind target for pool tests: specs
#: reference it by name, and spawned workers re-import it from sys.path.
FIXTURE_KIND = "tests.test_orchestrator:fixture_trial"


def fixture_trial(spec: TrialSpec) -> TrialResult:
    """A tiny deterministic trial: output depends only on the spec."""
    rng = random.Random(spec.seed)
    value = sum(rng.randrange(1000) for _ in range(32))
    row = {
        "scenario": spec.scenario,
        "value": value,
        "level": spec.param("level", "0"),
    }
    digest = hashlib.sha256(
        json.dumps(row, sort_keys=True).encode()
    ).hexdigest()
    return TrialResult(
        row=row, schedule_digest=digest, stats={"draws": 32}
    )


def fixture_specs(n: int = 6, cache: bool = True):
    return [
        TrialSpec(
            kind=FIXTURE_KIND,
            scenario=f"fixture-{i}",
            seed=100 + i,
            params=(("level", str(i % 3)),),
            cache=cache,
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------- spec layer


def test_spec_fingerprint_is_identity():
    a = TrialSpec(kind=FIXTURE_KIND, scenario="s", seed=1)
    same = TrialSpec(kind=FIXTURE_KIND, scenario="s", seed=1)
    assert a.fingerprint() == same.fingerprint()
    assert a.fingerprint() != TrialSpec(
        kind=FIXTURE_KIND, scenario="s", seed=2
    ).fingerprint()
    assert a.fingerprint() != TrialSpec(
        kind=FIXTURE_KIND, scenario="s", seed=1, params=(("k", "v"),)
    ).fingerprint()
    assert a.fingerprint() != TrialSpec(
        kind=FIXTURE_KIND, scenario="s", seed=1, features=("no_autogroup",)
    ).fingerprint()


def test_spec_cache_flag_is_policy_not_identity():
    cached = TrialSpec(kind=FIXTURE_KIND, scenario="s", seed=1, cache=True)
    uncached = TrialSpec(kind=FIXTURE_KIND, scenario="s", seed=1, cache=False)
    assert cached.fingerprint() == uncached.fingerprint()
    assert "cache" not in cached.canonical()


def test_spec_param_lookup_and_label():
    spec = TrialSpec(
        kind=FIXTURE_KIND,
        scenario="make",
        seed=7,
        params=(("app", "lu"), ("trace", "1")),
    )
    assert spec.param("app") == "lu"
    assert spec.param("absent", "dflt") == "dflt"
    assert spec.kind_name == "fixture_trial"
    assert spec.label == "fixture_trial:make"


def test_report_trial_labels_are_unique():
    """A buggy/fixed pair of one scenario gets two labels, not one."""
    from repro.experiments.reportgen import report_sections

    specs = [spec for _, section in report_sections(0.02) for spec in section]
    labels = [spec.label for spec in specs]
    assert len(set(labels)) == len(labels)
    assert any("+fix:" in label for label in labels)


def test_report_spec_fingerprint_is_pinned():
    """The cache key of one report trial, as the parent encoder wrote it.

    Every ``.repro-cache`` entry and every worker's scrubbed RNG seed is
    derived from this digest; an encoder change that moves it orphans
    every cache on disk.
    """
    spec = TrialSpec(
        kind="repro.experiments.table1:nas_pinned_trial",
        scenario="table1:bt",
        seed=42,
        features=("no_autogroup",),
        scale=0.02,
        deadline_us=600_000_000,
        params=(("app", "bt"),),
    )
    assert spec.fingerprint() == (
        "6532c093b93ef2b1a0ff0cdd3dddfd9bfbbef90f4b0edeb999843a501327ee34"
    )


@pytest.mark.parametrize(
    "spec",
    [
        TrialSpec(kind=FIXTURE_KIND, scenario="plain", seed=0),
        TrialSpec(
            kind=FIXTURE_KIND, scenario="caf\u00e9 \"quoted\"\n", seed=-7,
            features=("v43", "fix:group_imbalance"), scale=1e-7,
            deadline_us=1, params=(("z", "1"), ("a", "\u2603")),
        ),
    ],
    ids=["plain", "escapes"],
)
def test_fingerprint_is_sorted_key_json_dumps(spec):
    payload = json.dumps(spec.canonical(), sort_keys=True)
    assert spec.fingerprint() == hashlib.sha256(
        payload.encode("utf-8")
    ).hexdigest()


def test_warm_report_reads_each_entry_once_and_builds_one_machine(
    tmp_path, monkeypatch
):
    """A warm report opens each of its entries once and builds the
    64-core machine once, for Table 5 and Figure 4 together."""
    from repro import topology
    from repro.experiments import figures_topology
    from repro.experiments.reportgen import generate_report, report_sections
    from repro.perf.orchestrator import cache as cache_module

    specs = [s for _, section in report_sections(0.02) for s in section]
    cold = generate_report(scale=0.02, jobs=1, cache=_cache(tmp_path))

    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    machines = []
    real_machine = topology.amd_bulldozer_64

    def counting_machine():
        machines.append(1)
        return real_machine()

    monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
    monkeypatch.setattr(topology, "amd_bulldozer_64", counting_machine)
    monkeypatch.setattr(
        figures_topology, "amd_bulldozer_64", counting_machine
    )
    cache = _cache(tmp_path)
    warm = generate_report(scale=0.02, jobs=1, cache=cache)

    assert len(specs) == 50
    assert cache.hits == 50 and cache.misses == 0
    assert sorted(opened) == sorted(
        str(cache.entry_path(spec)) for spec in specs
    )
    assert len(machines) == 1
    assert warm.markdown == cold.markdown
    assert warm.digests == cold.digests


def test_resolve_kind_errors():
    assert resolve_kind(FIXTURE_KIND) is fixture_trial
    with pytest.raises(ValueError, match="module:function"):
        resolve_kind("no-colon")
    with pytest.raises(ValueError, match="no trial function"):
        resolve_kind("tests.test_orchestrator:does_not_exist")


def test_feature_tokens_round_trip():
    tokens = feature_tokens("group_imbalance", autogroup=False)
    features = build_features(tokens)
    assert features.fix_group_imbalance
    assert not features.fix_group_construction
    assert not features.autogroup_enabled
    with pytest.raises(ValueError, match="unknown feature token"):
        build_features(("warp_drive",))
    # Tokens apply on top of a caller's base (the SLO bug-scenario path).
    base = SchedFeatures().with_fixes("missing_domains")
    stacked = build_features(("fix:group_imbalance", "fastpath_off"), base)
    assert stacked.fix_missing_domains and stacked.fix_group_imbalance
    assert not stacked.fastpath
    with pytest.raises(ValueError, match="unknown feature token"):
        build_features(("warp_drive",), base)


# ----------------------------------------------------------------- pool layer


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1  # default stays serial
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # one per core
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 4
    assert resolve_jobs(2) == 2  # explicit beats the environment
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
        resolve_jobs(None)
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        resolve_jobs(-1)


def test_resolve_start_method(monkeypatch):
    monkeypatch.delenv("REPRO_START_METHOD", raising=False)
    assert resolve_start_method(None) is None
    available = multiprocessing.get_all_start_methods()
    assert resolve_start_method(available[0]) == available[0]
    with pytest.raises(ValueError, match="not available"):
        resolve_start_method("teleport")


def test_run_trials_serial():
    specs = fixture_specs()
    run = run_trials(specs, jobs=1)
    assert [o.spec for o in run.outcomes] == specs
    assert all(o.worker == "serial" and not o.cached for o in run.outcomes)
    assert run.stats.jobs == 1
    assert run.stats.executed == len(specs)
    assert run.stats.cache_hits == 0


@pytest.mark.parametrize(
    "start_method",
    [m for m in ("fork", "spawn")
     if m in multiprocessing.get_all_start_methods()],
)
def test_parallel_matches_serial(start_method):
    """Rows and digests are identical for -j1 and -j3, fork and spawn."""
    specs = fixture_specs()
    serial = run_trials(specs, jobs=1)
    parallel = run_trials(specs, jobs=3, start_method=start_method)
    assert parallel.rows() == serial.rows()
    assert parallel.digests() == serial.digests()
    workers = {o.worker for o in parallel.outcomes}
    assert "serial" not in workers  # really ran through the pool
    assert parallel.stats.jobs == 3


def test_progress_callback_runs_in_spec_order():
    seen = []
    run_trials(
        fixture_specs(4),
        jobs=1,
        progress=lambda done, total, outcome: seen.append(
            (done, total, outcome.spec.scenario)
        ),
    )
    assert [s[0] for s in seen] == [1, 2, 3, 4]
    assert all(s[1] == 4 for s in seen)


# ---------------------------------------------------------------- cache layer


def _cache(tmp_path, digest="0" * 64):
    return ResultCache(root=tmp_path / "cache", code_digest=digest)


def test_cache_round_trip(tmp_path):
    cache = _cache(tmp_path)
    specs = fixture_specs()
    cold = run_trials(specs, jobs=1, cache=cache)
    assert cache.entry_count() == len(specs)
    assert all(not o.cached for o in cold.outcomes)

    warm_cache = _cache(tmp_path)
    warm = run_trials(specs, jobs=1, cache=warm_cache)
    assert all(o.cached and o.worker == "cache" for o in warm.outcomes)
    assert warm.rows() == cold.rows()
    assert warm.digests() == cold.digests()
    assert warm_cache.hits == len(specs)
    assert warm.stats.cache_hits == len(specs)
    assert warm.stats.executed == 0


def test_cache_respects_spec_policy(tmp_path):
    cache = _cache(tmp_path)
    specs = fixture_specs(cache=False)
    run_trials(specs, jobs=1, cache=cache)
    assert cache.entry_count() == 0  # opt-out specs never cached
    rerun = run_trials(specs, jobs=1, cache=_cache(tmp_path))
    assert all(not o.cached for o in rerun.outcomes)


def test_cache_code_digest_invalidates(tmp_path):
    spec = fixture_specs(1)[0]
    before = _cache(tmp_path, digest="a" * 64)
    run_trials([spec], jobs=1, cache=before)
    assert before.get(spec) is not None

    # A different source digest addresses a different shard: miss.
    after = _cache(tmp_path, digest="b" * 64)
    assert after.get(spec) is None
    assert after.misses == 1


@pytest.mark.parametrize(
    "payload",
    ["{torn write", "[]", "null", "3", b"\xff\xfe{",
     '{"schedule_digest": "d"}', '{"row": {}, "schedule_digest": 1}'],
    ids=["torn-write", "list", "null", "int", "not-utf8", "no-row",
         "bad-digest"],
)
def test_cache_corrupt_entry_is_a_miss(tmp_path, payload):
    # Valid JSON that is not an object is as corrupt as a torn write, and
    # so are bytes that do not decode as UTF-8.
    cache = _cache(tmp_path)
    spec = fixture_specs(1)[0]
    run_trials([spec], jobs=1, cache=cache)
    if isinstance(payload, bytes):
        cache.entry_path(spec).write_bytes(payload)
    else:
        cache.entry_path(spec).write_text(payload, encoding="utf-8")
    fresh = _cache(tmp_path)
    assert fresh.get(spec) is None  # no exception, just re-executed
    rerun = run_trials([spec], jobs=1, cache=_cache(tmp_path))
    assert not rerun.outcomes[0].cached


def test_cache_hit_keeps_only_integer_stats(tmp_path):
    # Booleans are ints to ``isinstance``: they are kept, as they always
    # were; floats, strings and nulls are dropped.
    cache = _cache(tmp_path)
    spec = fixture_specs(1)[0]
    run_trials([spec], jobs=1, cache=cache)
    path = cache.entry_path(spec)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["stats"] = {"n": 3, "flag": True, "f": 1.5, "s": "7", "z": None}
    path.write_text(json.dumps(entry), encoding="utf-8")
    hit = _cache(tmp_path).get(spec)
    assert hit is not None
    assert hit.stats == {"n": 3, "flag": True}
    assert hit.row == entry["row"]


def test_source_tree_digest_tracks_code_not_docs(tmp_path):
    pkg = tmp_path / "sched"
    pkg.mkdir()
    (pkg / "core.py").write_text("WEIGHT = 1024\n")
    (pkg / "README.md").write_text("scheduler notes\n")
    base = source_tree_digest(root=tmp_path, packages=("sched",))
    assert base == source_tree_digest(root=tmp_path, packages=("sched",))

    # Doc edits leave the digest (and so every cache entry) alone.
    (pkg / "README.md").write_text("rewritten notes\n")
    assert source_tree_digest(root=tmp_path, packages=("sched",)) == base

    # Code edits change it: every cached trial silently misses.
    (pkg / "core.py").write_text("WEIGHT = 1048\n")
    edited = source_tree_digest(root=tmp_path, packages=("sched",))
    assert edited != base

    # Packages outside the result-relevant set do not participate.
    other = tmp_path / "analysis"
    other.mkdir()
    (other / "lint.py").write_text("RULES = ()\n")
    assert source_tree_digest(root=tmp_path, packages=("sched",)) == edited


def test_utilization_summary(tmp_path):
    run = run_trials(fixture_specs(4), jobs=1, cache=_cache(tmp_path))
    stats = run.stats
    assert 0.0 <= stats.utilization <= 1.0
    payload = stats.to_json()
    assert payload["total"] == 4
    assert payload["executed"] == 4
    assert payload["cache_hits"] == 0
    assert "serial" in payload["workers"]
    assert "utilization" in stats.summary()
