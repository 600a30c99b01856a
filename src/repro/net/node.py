"""Routing nodes: processes hosting multiple protocol components.

A replica in this repository is one :class:`RoutingNode` hosting several
components (reliable broadcast, total order broadcast, failure detector, the
Bayou state machine). Messages on the wire are ``(component_tag, payload)``
pairs; the node dispatches them to the registered component handler.

The node talks to the world only through its injected
:class:`~repro.runtime.base.Runtime` — on the deterministic backend that is
a :class:`~repro.runtime.sim.SimRuntime` whose delivery engine is the
simulated :class:`~repro.net.network.Network`; on the real-socket backend
it is an :class:`~repro.runtime.asyncio_net.AsyncioRuntime` speaking
length-prefixed frames over TCP. Components built on the node (everything
under :mod:`repro.broadcast`, the replica itself) are therefore
backend-agnostic: they see ``send_component`` / ``broadcast_component`` /
``set_timer`` / ``now`` and nothing else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.runtime.base import Runtime
from repro.sim.process import Process

ComponentHandler = Callable[[int, Any], None]


class RoutingNode(Process):
    """A process that routes tagged messages to registered components."""

    def __init__(
        self, runtime: Runtime, pid: int, name: Optional[str] = None
    ) -> None:
        super().__init__(runtime, pid, name)
        self._components: Dict[str, ComponentHandler] = {}
        self.runtime.register(self)

    @property
    def network(self):
        """The sim backend's delivery engine (sim-only harness code)."""
        return self.runtime.network  # type: ignore[attr-defined]

    @property
    def n_processes(self) -> int:
        """Number of processes in the deployment, on any backend."""
        return self.runtime.n_processes

    def register_component(self, tag: str, handler: ComponentHandler) -> None:
        """Register ``handler`` for messages tagged ``tag``."""
        if tag in self._components:
            raise ValueError(f"component tag {tag!r} already registered")
        self._components[tag] = handler

    def on_message(self, sender: int, message: Any) -> None:
        tag, payload = message
        handler = self._components.get(tag)
        if handler is None:
            raise KeyError(f"{self.name}: no component for tag {tag!r}")
        handler(sender, payload)

    def send_component(self, receiver: int, tag: str, payload: Any) -> None:
        """Send a tagged message to one process (possibly ourselves)."""
        self.runtime.send(self.pid, receiver, (tag, payload))

    def broadcast_component(
        self, tag: str, payload: Any, *, include_self: bool = False
    ) -> None:
        """Send a tagged message to every process."""
        self.runtime.broadcast(self.pid, (tag, payload), include_self=include_self)
