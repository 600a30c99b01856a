"""Deterministic discrete-event simulation kernel.

The kernel is the substrate on which every protocol in this repository runs.
It provides:

- :class:`~repro.sim.kernel.Simulator`: a priority-queue event loop with
  deterministic tie-breaking, cancellable timers and quiescence detection.
- :class:`~repro.sim.clock.DriftingClock`: per-replica local clocks with
  configurable offset and rate, used for Bayou's timestamps.
- :class:`~repro.sim.process.Process`: a base class for protocol state
  machines that react to scheduled events.
- :class:`~repro.sim.rng.SeededRngRegistry`: independent, reproducible random
  streams per component.

The paper reasons about *schedules* of events (delayed local execution in
Figure 1, partitions in Section 2.3); a deterministic simulator lets us
realise any such schedule reproducibly.
"""

from repro.sim.clock import DriftingClock, PerfectClock
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Process
from repro.sim.rng import SeededRngRegistry

__all__ = [
    "DriftingClock",
    "PerfectClock",
    "Process",
    "ScheduledEvent",
    "SeededRngRegistry",
    "Simulator",
]
