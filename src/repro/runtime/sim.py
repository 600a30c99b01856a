"""The deterministic backend: a thin adapter over ``Simulator`` + ``Network``.

``SimRuntime`` is a pure pass-through — every ``schedule`` lands on the
simulator's event queue exactly as a direct ``sim.schedule`` call would
(same sequence numbers, same tie-breaking), and every ``send`` goes through
the simulated network's latency/partition/filter machinery untouched. The
deterministic suite is therefore bit-identical whether components talk to
the simulator directly (the pre-runtime code) or through this adapter.

The :class:`~repro.net.network.Network` stops being a public dependency of
protocol code here: it is this backend's *delivery engine*, reached only
through the :class:`~repro.runtime.base.Runtime` surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.runtime.base import Runtime, RuntimeTimer
from repro.sim.kernel import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

# ScheduledEvent already satisfies the RuntimeTimer contract (cancel() +
# .cancelled) — make isinstance agree without subclassing it.
RuntimeTimer.register(ScheduledEvent)


class SimRuntime(Runtime):
    """Deterministic runtime over a :class:`Simulator` and its network.

    The ``network`` is optional: a bare ``SimRuntime(sim)`` supports
    clock + timers only, which is all a standalone
    :class:`~repro.sim.process.Process` needs.
    """

    def __init__(self, sim: "Simulator", network: Optional["Network"] = None) -> None:
        #: The underlying kernel; sim-only harness code (clusters,
        #: scenario builders) may reach through this, protocol code must not.
        self.sim = sim
        #: The delivery engine; ``None`` for timer-only runtimes.
        self.network = network

    def now(self) -> float:
        return self.sim.now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> "ScheduledEvent":
        return self.sim.schedule(delay, callback, *args, label=label)

    def send(self, sender: int, receiver: int, payload: Any) -> None:
        if self.network is None:
            raise RuntimeError("this SimRuntime has no network attached")
        self.network.send(sender, receiver, payload)

    def broadcast(
        self, sender: int, payload: Any, *, include_self: bool = False
    ) -> None:
        if self.network is None:
            raise RuntimeError("this SimRuntime has no network attached")
        self.network.broadcast(sender, payload, include_self=include_self)

    def register(self, process: "Process") -> None:
        if self.network is not None:
            self.network.register(process)

    @property
    def n_processes(self) -> int:
        if self.network is None:
            return 1
        return self.network.n_processes
