"""Run metrics: utilization, idle-while-overloaded time, energy, tasks."""

from repro._exports import lazy_exports

_EXPORTS = {
    "repro.stats.energy": (
        "EnergyReport",
        "PowerModel",
        "energy_waste_vs",
        "measure_energy",
    ),
    "repro.stats.metrics": (
        "IdleOverloadSampler",
        "TaskSummary",
        "machine_utilization",
        "node_busy_times",
        "summarize_tasks",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
