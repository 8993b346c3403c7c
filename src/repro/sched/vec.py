"""Name of the vectorized core's array backend.

The vectorized layer (:mod:`repro.sched.vecstate`) folds and scans its
flat mirrors with in-frame Python loops, so the backend is always
``"python"``.
"""

from __future__ import annotations


class _PythonOps:
    """The backend descriptor: a name for host fingerprints."""

    name = "python"


def make_ops(backend: str = "auto") -> _PythonOps:
    """The backend descriptor (``"auto"`` and ``"python"`` are accepted).

    Only caller: the end-to-end benchmark's host fingerprint
    (``benchmarks/e2e/run.py``), which records ``make_ops("auto").name``.
    """
    if backend not in ("auto", "python"):
        raise ValueError(f"unknown vec backend {backend!r}")
    return _PythonOps()
