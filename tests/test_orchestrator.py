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


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = _cache(tmp_path)
    spec = fixture_specs(1)[0]
    run_trials([spec], jobs=1, cache=cache)
    cache.entry_path(spec).write_text("{torn write", encoding="utf-8")
    fresh = _cache(tmp_path)
    assert fresh.get(spec) is None  # no exception, just re-executed
    rerun = run_trials([spec], jobs=1, cache=_cache(tmp_path))
    assert not rerun.outcomes[0].cached


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
