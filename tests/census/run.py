"""Run the census of planted invalidation faults.

Usage (from the repository root)::

    python -m tests.census.run            # every plant
    python -m tests.census.run -k take    # plants whose name matches

For each plant in :mod:`tests.census.plants` the runner copies ``src/``
and ``tests/`` into a fresh temporary directory, runs the plant's tests
there (they must pass), applies the plant and runs them again.  The plant
is *caught* only when that run fails with pytest's exit code 1 and every
named test is among the failures; a named test that still passes with
the plant in makes the plant a miss, as does a planted run that passes.
Exit codes 2-5 (a node id that no longer exists, a usage or collection
error) are census errors, as are an unplanted run that does not pass and
a planted line that is not exactly once in its function.

Exit status: 0 when every plant is caught, 1 when some plant got
through, 2 on any census error.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from tests.census.plants import PLANTS, Plant

ROOT = Path(__file__).resolve().parents[2]

CAUGHT, MISSED, ERROR = "caught", "MISSED", "CENSUS ERROR"


def site_lines(root: Path, plant: Plant) -> Tuple[Path, List[int]]:
    """The plant's file and the 0-based indexes of its line in its site.

    The site's function is found by qualified name with :mod:`ast`; an
    unknown name yields no indexes.
    """
    rel, qualname = plant.site.split("::")
    path = root / rel
    source = path.read_text(encoding="utf-8")
    span = _function_span(ast.parse(source), qualname)
    if span is None:
        return path, []
    lines = source.splitlines()
    first, last = span
    return path, [
        i for i in range(first - 1, last) if lines[i].strip() == plant.line
    ]


def _function_span(
    tree: ast.Module, qualname: str
) -> Optional[Tuple[int, int]]:
    parts = qualname.split(".")
    body = tree.body
    node = None
    for part in parts:
        node = next(
            (
                n for n in body
                if isinstance(
                    n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and n.name == part
            ),
            None,
        )
        if node is None:
            return None
        body = node.body
    return node.lineno, node.end_lineno


def apply(root: Path, plant: Plant) -> None:
    """Replace the plant's line under ``root``, keeping its indentation."""
    path, hits = site_lines(root, plant)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    (i,) = hits
    old = lines[i]
    indent = old[: len(old) - len(old.lstrip())]
    lines[i] = f"{indent}{plant.replacement}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(root: Path, tests: Sequence[str]) -> Tuple[int, Set[str], str]:
    """Run ``tests`` under ``root``: exit code, failed ids, output."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-o", "addopts=",
         "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = (proc.stdout + proc.stderr).splitlines()
    failed = {
        line.split()[1] for line in lines if line.startswith("FAILED ")
    }
    return proc.returncode, failed, "\n".join(lines[-15:])


def check(plant: Plant) -> Tuple[str, str]:
    """Census one plant: (verdict, detail)."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        _path, hits = site_lines(root, plant)
        if len(hits) != 1:
            return ERROR, f"line found {len(hits)} times in its site"
        if not plant.tests:
            return ERROR, "no tests named"
        code, _failed, out = _pytest(root, plant.tests)
        if code != 0:
            return ERROR, f"unplanted run exited {code}\n{out}"
        apply(root, plant)
        code, failed, out = _pytest(root, plant.tests)
    return verdict(code, failed, plant.tests, out)


def verdict(
    code: int, failed: Set[str], tests: Sequence[str], out: str = ""
) -> Tuple[str, str]:
    """The census verdict on a planted run of ``tests``: (verdict, detail).

    ``code`` is pytest's exit code and ``failed`` the node ids it
    reported as failed.  Caught means exit 1 with every named test
    failed; a named test that still passes makes the plant a miss.
    """
    if code == 0:
        return MISSED, "every named test passed with the plant in"
    if code != 1:
        return ERROR, f"planted run exited {code}\n{out}"
    passed = [t for t in tests if t not in failed]
    if passed:
        return MISSED, f"still passing: {', '.join(passed)}"
    return CAUGHT, f"{len(tests)} failed"


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.census.run")
    parser.add_argument(
        "-k", dest="match", default="",
        help="only plants whose name contains this text",
    )
    args = parser.parse_args(argv)
    plants = [p for p in PLANTS if args.match in p.name]
    verdicts = []
    for plant in plants:
        start = time.perf_counter()
        verdict, detail = check(plant)
        took = time.perf_counter() - start
        verdicts.append(verdict)
        print(f"{verdict:12} {took:5.1f}s  {plant.name}  ({detail})",
              flush=True)
    print(
        f"{verdicts.count(CAUGHT)}/{len(plants)} plants caught, "
        f"{verdicts.count(MISSED)} missed, {verdicts.count(ERROR)} errors"
    )
    if ERROR in verdicts or not plants:
        return 2
    return 1 if MISSED in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
