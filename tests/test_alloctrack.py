"""The runtime allocation tracker: declared classes vs observed churn.

Mirrors the effect sanitizer's test shape: a clean soak over a real
fast-path scenario (zero divergences -- the shipped declarations are
sound for what the demos execute), a tampered-declaration run proving
the detector actually fires, and hook/patch hygiene checks.
"""

import sys
import tracemalloc

import pytest

from repro.analysis.alloctrack import (
    AllocCheckSession,
    AllocDivergence,
)

_ENGINE = None


def make_session(**kwargs):
    global _ENGINE
    if _ENGINE is None:
        from repro.analysis.effectcheck import installed_files
        from repro.analysis.effects import EffectEngine

        _ENGINE = EffectEngine(installed_files())
    return AllocCheckSession(engine=_ENGINE, **kwargs)


def short_scenario_run(session, duration_us=100_000):
    from repro.experiments.scenarios import build_bug_scenario

    with session:
        scenario = build_bug_scenario("group-imbalance", "buggy")
        scenario.run(duration_us)
    return session


def test_clean_soak_has_no_divergences():
    session = short_scenario_run(make_session())
    observed = [s for s in session.stats.values() if s.calls]
    assert observed, "no hot-root window ever opened"
    # The scalar fallbacks and the vec mirror both ran.
    assert session.stats["runqueue-load"].calls > 0
    assert session.stats["vec-fold"].calls > 0
    assert session.divergences() == []
    session.check()  # must not raise
    assert "0 divergences" in session.summary()


def test_calibration_cancels_hook_self_noise():
    # The enforced tier's soundness hinges on this: a declared
    # alloc-free root that truly allocates nothing must read zero
    # events even though the profile hook materializes frames inside
    # its windows.
    session = short_scenario_run(make_session())
    assert session.noise_floor > 0  # calibration actually ran
    stats = session.stats["designated-election"]
    assert stats.declared == "alloc-free"
    assert stats.calls > 0
    assert stats.events == 0, session.summary()


def test_tampered_declaration_is_detected():
    from repro.sched.allocdecl import DECLARED_ALLOC

    # RunQueue.load rebuilds its cache on staleness misses: declaring
    # it alloc-free is a lie the runtime must catch.
    tampered = {**DECLARED_ALLOC, "runqueue-load": "alloc-free"}
    session = short_scenario_run(make_session(declared=tampered))
    problems = session.divergences()
    assert len(problems) == 1
    assert "runqueue-load" in problems[0]
    assert "declared alloc-free but allocated" in problems[0]
    with pytest.raises(AllocDivergence) as excinfo:
        session.check()
    assert "runqueue-load" in str(excinfo.value)


def test_install_uninstall_restores_hooks():
    session = make_session()
    assert sys.getprofile() is None
    assert not tracemalloc.is_tracing()
    session.install()
    try:
        assert sys.getprofile() is not None
        assert tracemalloc.is_tracing()
        session.install()  # idempotent
    finally:
        session.uninstall()
    assert sys.getprofile() is None
    assert not tracemalloc.is_tracing()
    session.uninstall()  # idempotent
    # Calibration cleans up after itself.
    assert "__calib__" not in session.stats


def test_unindexed_frames_open_no_window():
    session = make_session()
    with session:
        # This test file is not a hot root: nothing may be billed.
        sum([1, 2, 3])
    assert all(s.calls == 0 for s in session.stats.values())
