"""Tier-1 guard for the census of planted faults (``tests/census``).

The census itself is slow (two pytest runs per plant) and runs in CI's
``census`` job.  These checks are cheap and run on every tier-1 pass, so
a refactor that moves a guarded line or renames a named test fails here
at once instead of at the next census run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.census.plants import PLANTS
from tests.census.run import CAUGHT, ERROR, MISSED, site_lines, verdict

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("plant", PLANTS, ids=[p.name for p in PLANTS])
def test_planted_line_occurs_once_in_its_site(plant):
    _path, hits = site_lines(ROOT, plant)
    assert len(hits) == 1, f"{plant.site}: {plant.line!r} found {len(hits)}x"


def test_plant_names_are_unique():
    names = [p.name for p in PLANTS]
    assert len(set(names)) == len(names)


def _collected(session, named):
    """The ``named`` node ids pytest collects.

    A full tier-1 run has collected them all already; whatever this
    session did not collect (a run of this file alone, or ``-k``) is
    looked up with one ``--collect-only`` run over the files involved.
    """
    ids = {item.nodeid for item in session.items} & named
    files = sorted({t.split("::")[0] for t in named - ids})
    if files:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-o", "addopts=",
             "-p", "no:cacheprovider", *files],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        ids.update(line.strip() for line in proc.stdout.splitlines())
    return ids & named


def test_every_named_test_is_collected(request):
    assert all(plant.tests for plant in PLANTS)
    named = {t for plant in PLANTS for t in plant.tests}
    assert sorted(named - _collected(request.session, named)) == []


NAMED = ("tests/test_a.py::test_one", "tests/test_b.py::test_two[x]")


@pytest.mark.parametrize(
    "code, failed, expected",
    [
        (1, set(NAMED), CAUGHT),
        (1, set(NAMED) | {"tests/test_c.py::test_other"}, CAUGHT),
        # Exit 1 with one named test still passing: that test no longer
        # catches the plant, so the plant is a miss.
        (1, {NAMED[0]}, MISSED),
        (1, set(), MISSED),
        (0, set(), MISSED),
        (2, set(), ERROR),
        (4, set(NAMED), ERROR),
    ],
    ids=["all-failed", "extra-failure", "one-still-passing",
         "only-unnamed-failed", "all-passed", "interrupted", "usage-error"],
)
def test_verdict_is_caught_only_when_every_named_test_fails(
    code, failed, expected
):
    got, detail = verdict(code, failed, NAMED)
    assert got == expected, detail
    if expected == MISSED and code == 1:
        missing = [t for t in NAMED if t not in failed]
        assert detail == f"still passing: {', '.join(missing)}"
