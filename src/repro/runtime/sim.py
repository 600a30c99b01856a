"""The deterministic backend: ``Simulator`` + ``Network`` behind the seam.

``SimRuntime`` adds nothing to a call. When it is built it binds the
kernel's ``schedule`` and the network's ``send`` / ``broadcast`` onto the
instance, so ``runtime.schedule(...)`` *is* ``sim.schedule(...)`` and
``runtime.send(...)`` *is* ``network.send(...)`` — no runtime frame sits
between protocol code and the kernel on the per-event path. Every event
lands on the simulator's queue exactly as a direct ``sim.schedule`` call
would (same sequence numbers, same tie-breaking), and every send goes
through the simulated network's latency/partition/filter machinery
untouched, so the deterministic suite is bit-identical whether components
talk to the simulator directly or through this adapter.

The methods of the same names stay on the class: they are what a
network-less runtime answers (``send`` / ``broadcast`` raise), and what
outside code that wraps methods by name finds. Because the bound methods
are taken at construction, a wrapper installed on ``Simulator.schedule``
or ``Network.send`` / ``Network.broadcast`` *before* the runtime is built
sees every event and every send.

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
        # The per-event calls go straight to their engines (module doc).
        self.schedule = sim.schedule  # type: ignore[method-assign]
        if network is not None:
            self.send = network.send  # type: ignore[method-assign]
            self.broadcast = network.broadcast  # type: ignore[method-assign]

    def now(self) -> float:
        return self.sim.now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> "ScheduledEvent":
        return self.sim.schedule(delay, callback, *args, label=label)

    # With a network, the instance's bound ``network.send`` /
    # ``network.broadcast`` shadow these two: they run only without one.
    def send(self, sender: int, receiver: int, payload: Any) -> None:
        raise RuntimeError("this SimRuntime has no network attached")

    def broadcast(
        self, sender: int, payload: Any, *, include_self: bool = False
    ) -> None:
        raise RuntimeError("this SimRuntime has no network attached")

    def register(self, process: "Process") -> None:
        if self.network is not None:
            self.network.register(process)

    @property
    def n_processes(self) -> int:
        if self.network is None:
            return 1
        return self.network.n_processes
