"""Import guards: loading a module loads only what that module needs.

Every ``repro`` command, benchmark process and spawn-started pool worker
first pays for its imports.  The package facades (``repro``,
``repro.core``, ``repro.viz``, ``repro.obs``, ``repro.stats``,
``repro.experiments``) re-export lazily, so these checks run a fresh
interpreter per entry point (other tests' imports stay out of it) and
list the modules it ended up with.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: What a command that only parses its arguments must not load.
HEAVY = (
    "repro.sim",
    "repro.sched",
    "repro.viz.heatmap",
    "repro.core.offline",
    "repro.obs",
)

FACADES = (
    "repro",
    "repro.core",
    "repro.viz",
    "repro.obs",
    "repro.stats",
    "repro.experiments",
)


def _loaded_after(code: str):
    """The modules a fresh interpreter holds after running ``code``."""
    prog = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules, prefixes):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


VERSION = (
    "import runpy, sys\n"
    "sys.argv = ['repro', '--version']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
)


@pytest.mark.parametrize(
    "code",
    ["import repro", "import repro.cli", VERSION],
    ids=["import-repro", "import-repro-cli", "version"],
)
def test_entry_points_load_no_simulator_or_renderer(code):
    assert _under(_loaded_after(code), HEAVY) == []


def test_orchestrator_loads_neither_multiprocessing_nor_obs():
    loaded = _loaded_after("import repro.perf.orchestrator")
    assert _under(loaded, ("multiprocessing", "repro.obs")) == []


@pytest.mark.parametrize("package", FACADES)
def test_facade_names_are_the_defining_modules_objects(package):
    facade = importlib.import_module(package)
    exports = facade._EXPORTS
    names = [name for names in exports.values() for name in names]
    assert sorted(set(facade.__all__) - {"__version__"}) == sorted(names)
    listed = dir(facade)
    for module_name, module_names in exports.items():
        module = importlib.import_module(module_name)
        for name in module_names:
            value = getattr(facade, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module_name, name
            assert name in vars(facade), f"{name} not cached"
            assert name in listed, f"{name} missing from dir()"


def test_facade_reaches_submodules_and_rejects_unknown_names():
    import repro.viz

    assert repro.viz.heatmap is importlib.import_module("repro.viz.heatmap")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.viz.no_such_name
