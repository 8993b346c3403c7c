"""One-call wiring of the obs consumers onto a simulated system.

:class:`ObsSession` owns the metrics recorder and (optionally) the Chrome
trace builder, and attaches/detaches them to one system's probe fanout
as a unit:

.. code-block:: python

    obs = ObsSession.attach_to(system, trace=True)
    try:
        ...  # run the experiment
    finally:
        obs.close()
    obs.write_chrome_trace("trace.json")
    print(obs.metrics.snapshot().render())

Sessions are observation-only: attaching one must not perturb the
schedule (``tests/test_obs_overhead.py`` asserts identical migration
counts with and without a session).  The probe carries the scheduler's
hooks and the system's event-loop callbacks, sanity-checker events and
idle-overload sampler ticks, so a session hears exactly its own system:
two systems in one process never hear each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import MetricsRecorder
from repro.obs.trace_export import ChromeTraceBuilder

if TYPE_CHECKING:  # keep importing repro.obs free of the simulator
    from repro.sim.system import System


class ObsSession:
    """Bundles recorder (+ trace builder) for one observed run."""

    def __init__(self, num_cpus: int, trace: bool = False):
        self.recorder = MetricsRecorder()
        self.trace_builder: Optional[ChromeTraceBuilder] = (
            ChromeTraceBuilder(num_cpus) if trace else None
        )
        self._system: Optional["System"] = None

    @property
    def metrics(self) -> MetricsRegistry:
        return self.recorder.metrics

    # -- wiring --------------------------------------------------------------

    @classmethod
    def attach_to(cls, system: "System", trace: bool = False) -> "ObsSession":
        """Create a session and plug it into a system's probe fanout."""
        session = cls(system.topology.num_cpus, trace=trace)
        system.attach_probe(session.recorder)
        if session.trace_builder is not None:
            system.attach_probe(session.trace_builder)
        session._system = system
        return session

    def close(self) -> None:
        """Detach everything; idempotent.  Call before reading results."""
        if self._system is None:
            return
        system, self._system = self._system, None
        system.detach_probe(self.recorder)
        if self.trace_builder is not None:
            system.detach_probe(self.trace_builder)
            self.trace_builder.finish(system.now)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def write_chrome_trace(self, path: str) -> int:
        """Write the collected trace; returns the number of events."""
        if self.trace_builder is None:
            raise RuntimeError(
                "session was created without trace=True; nothing to write"
            )
        if self._system is not None:
            self.trace_builder.finish(self._system.now)
        return self.trace_builder.write(path)
