"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes a ``run_*`` function returning a structured result and
a ``format_*`` helper that prints the paper-style table.  The benchmark
suite under ``benchmarks/`` wraps these; ``EXPERIMENTS.md`` records
paper-vs-measured values.

Scaling: the simulations are sized via a ``scale`` parameter so the full
suite runs in minutes.  Factors and percentages are scale-invariant (they
compare two configurations of the same workload).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "repro.experiments.harness": (
        "ExperimentConfig",
        "averaged",
        "quick_scale",
    ),
    "repro.experiments.report": ("Table", "format_table"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
