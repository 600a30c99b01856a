"""Eager reliable broadcast (RB).

Implements the classic eager algorithm from Guerraoui & Rodrigues: on first
delivery of a message, relay it to everyone except itself and the node it
came from before delivering locally. That node logged the payload before it
sent it, so a relay back would carry nothing new.
This gives *uniform* reliability under crash-stop faults: if any correct
process delivers a message, every correct process eventually delivers it —
even if the original sender crashed mid-broadcast. Combined with the
network's buffer-across-partitions behaviour, RB-cast messages reach every
replica in the sender's partition immediately and the rest after healing,
exactly the dissemination behaviour Section 2.1 of the paper describes.

Deduplication is by an application-supplied hashable ``key`` (Bayou uses the
request ``dot``), so a payload re-broadcast by relays is delivered once.

Crash–recovery (this repository's extension): eager RB alone cannot bring a
*recovered* process up to date — relays sent during its downtime were
silently lost, and nothing re-sends them. With a
:class:`~repro.core.durability.DurableStore`, the endpoint keeps a durable
log of every ``(key, payload)`` it cast or delivered; on recovery it
reloads the log and runs one **recovery sync**: it broadcasts its key set,
peers push back everything it is missing (``repair``) and ask for anything
it holds that they lack (``want``). Repairs go through the normal
first-delivery path (relay included), so uniformity is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.net.node import RoutingNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → broadcast)
    from repro.core.durability import DurableStore

DeliverFn = Callable[[Hashable, Any], None]

_TAG = "rb"


class ReliableBroadcast:
    """Per-node reliable broadcast endpoint.

    Parameters
    ----------
    node:
        The hosting :class:`RoutingNode`.
    deliver:
        Callback invoked exactly once per message key, as ``deliver(key,
        payload)``. Local delivery of a node's own broadcast is *not*
        performed here; Bayou simulates immediate local RB-delivery inside
        ``invoke`` (Algorithm 1, line 14), so the endpoint marks the key as
        delivered without invoking the callback for the sender.
    store:
        Optional stable storage; enables the recovery sync described in the
        module docstring.
    """

    def __init__(
        self,
        node: RoutingNode,
        deliver: DeliverFn,
        *,
        store: Optional["DurableStore"] = None,
    ) -> None:
        self.node = node
        self._deliver = deliver
        #: key -> payload for everything cast or delivered here.
        self._log: Dict[Hashable, Any] = {}
        self.store = store
        node.register_component(_TAG, self._on_message)
        node.register_crash_hooks(on_recover=self._on_node_recover)
        if store is not None:
            self._reload()

    @property
    def delivered_keys(self) -> Set[Hashable]:
        """The set of message keys delivered (or locally originated) so far."""
        return set(self._log)

    def rb_cast(self, key: Hashable, payload: Any) -> None:
        """Broadcast ``payload`` reliably under ``key``."""
        if key in self._log:
            return
        self._absorb(key, payload)
        self.node.broadcast_component(_TAG, ("cast", key, payload))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, sender: int, message: Tuple) -> None:
        kind = message[0]
        if kind == "cast":
            self._handle_cast(sender, message[1], message[2])
        elif kind == "sync":
            self._handle_sync(sender, message[1])
        elif kind == "want":
            self._handle_want(sender, message[1])
        elif kind == "repair":
            for key, payload in message[1]:
                self._handle_cast(sender, key, payload)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown RB message {kind!r}")

    def _handle_cast(self, sender: int, key: Hashable, payload: Any) -> None:
        if key in self._log:
            return
        self._absorb(key, payload)
        # Relay before delivering: uniform reliability despite sender crashes.
        message = ("cast", key, payload)
        for pid in range(self.node.n_processes):
            if pid != self.node.pid and pid != sender:
                self.node.send_component(pid, _TAG, message)
        self._deliver(key, payload)

    def _absorb(self, key: Hashable, payload: Any) -> None:
        self._log[key] = payload
        if self.store is not None:
            self.store.log(f"{_TAG}.log").append((key, payload))

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _reload(self) -> None:
        self._log = {
            key: payload
            for key, payload in self.store.log(f"{_TAG}.log").records()
        }

    def _on_node_recover(self) -> None:
        """Reload the durable log and re-announce for catch-up.

        Without a store this is the seed behaviour (in-memory state kept);
        the sync round still runs, because messages relayed during the
        downtime are lost either way.
        """
        if self.store is not None:
            self._reload()
        self.announce_recovery()

    def announce_recovery(self) -> None:
        """Broadcast our key set so peers repair us (and we repair them)."""
        self.node.broadcast_component(_TAG, ("sync", sorted(self._log, key=repr)))

    def _handle_sync(self, sender: int, keys: List[Hashable]) -> None:
        known = set(keys)
        missing_there = [
            (key, payload) for key, payload in self._log.items() if key not in known
        ]
        if missing_there:
            self.node.send_component(sender, _TAG, ("repair", missing_there))
        missing_here = [key for key in keys if key not in self._log]
        if missing_here:
            self.node.send_component(sender, _TAG, ("want", missing_here))

    def _handle_want(self, sender: int, keys: List[Hashable]) -> None:
        available = [(key, self._log[key]) for key in keys if key in self._log]
        if available:
            self.node.send_component(sender, _TAG, ("repair", available))
