"""The execution-runtime seam.

Every protocol component in this repository — the Bayou replica, the
dissemination endpoints (RB, anti-entropy), the TOB engines (sequencer,
Multi-Paxos), the Ω failure detector — interacts with the outside world
through exactly four capabilities: reading a clock, arming timers, sending
point-to-point messages, and being delivered messages. :class:`Runtime`
names that contract. Code written against it runs unchanged on either
backend:

- :class:`~repro.runtime.sim.SimRuntime` — the deterministic discrete-event
  kernel (:class:`~repro.sim.kernel.Simulator` +
  :class:`~repro.net.network.Network`). Every test, experiment and formal
  check runs here; scheduling order is bit-reproducible.
- :class:`~repro.runtime.asyncio_net.AsyncioRuntime` — a real asyncio event
  loop; messages travel as length-prefixed JSON frames over TCP sockets
  between operating-system processes. Nothing is deterministic beyond what
  the protocols themselves guarantee; this is the backend that produces
  honest wall-clock throughput numbers (experiment E15).

The interface is deliberately narrow. ``now()`` is *the backend's* notion
of time (simulated units or seconds since runtime start) — protocol code
may compare and subtract these values but must not assume a unit.
``schedule(delay, callback, *args)`` returns a :class:`RuntimeTimer`, whose
``cancel()`` is the one and only way to retire a pending callback;
cancellation must be honoured by every backend (see the ``ProcessTimer``
regression tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


class RuntimeTimer(ABC):
    """Handle for a scheduled callback; the contract is ``cancel()``.

    A cancelled timer never runs its callback, on any backend. Backends
    may subclass or simply return any object with this surface (the sim
    backend returns its :class:`~repro.sim.kernel.ScheduledEvent`, which
    already conforms).
    """

    @abstractmethod
    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""

    @property
    def cancelled(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class Runtime(ABC):
    """Clock + timers + transport: everything a protocol process needs."""

    @abstractmethod
    def now(self) -> float:
        """The backend's current time (sim units or wall seconds)."""

    @abstractmethod
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> RuntimeTimer:
        """Run ``callback(*args)`` once, ``delay`` time units from now (the
        arguments ride along as on ``loop.call_later``: no closure per timer)."""

    def spawn(
        self, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> RuntimeTimer:
        """Run ``callback(*args)`` as soon as possible (a zero-delay schedule)."""
        return self.schedule(0.0, callback, *args, label=label)

    @abstractmethod
    def send(self, sender: int, receiver: int, payload: Any) -> None:
        """Send ``payload`` from process ``sender`` to process ``receiver``.

        Best-effort FIFO per link; delivery reaches the receiving
        process's ``on_message(sender, payload)`` unless it is crashed.
        Payloads must survive the backend's codec — on the sim they pass
        by reference, on asyncio they round-trip through the durability
        codec registry (:mod:`repro.runtime.wire`), so anything a replica
        persists is also sendable.
        """

    def broadcast(
        self, sender: int, payload: Any, *, include_self: bool = False
    ) -> None:
        """Send ``payload`` to every process (optionally the sender too)."""
        for pid in range(self.n_processes):
            if pid == sender and not include_self:
                continue
            self.send(sender, pid, payload)

    @abstractmethod
    def register(self, process: "Process") -> None:
        """Attach a process so inbound messages reach it."""

    @property
    @abstractmethod
    def n_processes(self) -> int:
        """Number of processes in the deployment (local + remote)."""

    @property
    def timeview(self) -> "RuntimeTimeView":
        """A ``Simulator``-shaped view of this runtime's clock.

        :class:`~repro.sim.clock.DriftingClock` reads time through an
        object exposing a ``.now`` *property*; this adapter lets the same
        clock code run over any runtime.
        """
        return RuntimeTimeView(self)


class RuntimeTimeView:
    """Adapter giving a :class:`Runtime` the ``.now`` property shape."""

    __slots__ = ("_runtime",)

    def __init__(self, runtime: Runtime) -> None:
        self._runtime = runtime

    @property
    def now(self) -> float:
        return self._runtime.now()
