"""Lazy package facades (PEP 562).

A package ``__init__`` lists what it re-exports and the module each name
is defined in; nothing is imported until a name is first read.  A
process that imports one submodule (``repro.perf.orchestrator``, say)
then no longer pays for every sibling its parent packages re-export --
the simulator, the renderers, the trace exporter -- which was most of
the start-up time of a short command or a spawn-started pool worker.
"""

from __future__ import annotations

import importlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Sequence,
    Tuple,
)


def lazy_exports(
    namespace: MutableMapping[str, Any],
    exports: Mapping[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module to the names the package re-exports from it.  A name
    is imported from its module on first access and stored in the
    package's globals, so later reads are plain lookups of the defining
    module's object.  Any other attribute is looked up as a submodule
    (``import repro.viz; repro.viz.heatmap``).
    """
    package = namespace["__name__"]
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
