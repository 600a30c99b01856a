"""Fixed-sequencer Total Order Broadcast.

The simplest TOB engine from the classic taxonomy (Défago, Schiper & Urbán):
all messages are forwarded to a designated sequencer which assigns global
sequence numbers and re-broadcasts; endpoints deliver in sequence-number
order through a hold-back queue.

Properties relative to the paper's contract:

- total order and FIFO-per-sender hold because links are FIFO and the
  sequencer orders proposals in arrival order;
- in stable runs every proposal reaches the sequencer (possibly after a
  partition heals) so agreement holds;
- the engine is *not* tolerant of a sequencer crash — that is precisely the
  fault-tolerance gap the paper points out about primary-based Bayou, and
  why :mod:`repro.broadcast.paxos` exists. A sequencer isolated by a
  partition stalls TOB for everyone else, which is how experiment E6 creates
  the paper's asynchronous runs.

Crash–recovery (this repository's extension): the sequencer keeps its
assignment log, and every endpoint its delivered prefix, in the node's
:class:`~repro.core.durability.DurableStore` when one is configured. A
recovered endpoint reloads its prefix and asks the sequencer to ``replay``
everything from its first missing sequence number — order broadcasts sent
during the downtime were silently lost, and nothing else re-sends them. A
recovered *sequencer* reloads its assignment log so it neither reuses
sequence numbers nor re-orders keys it already placed (proposals lost
during its downtime still need client-level retransmission,
``BayouConfig.retransmit_interval``, to get ordered at all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.broadcast.total_order import DeliverFn, TotalOrderBroadcast
from repro.net.node import RoutingNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → broadcast)
    from repro.core.durability import DurableStore

_TAG = "seqtob"


class SequencerTOB(TotalOrderBroadcast):
    """Per-node endpoint of the fixed-sequencer TOB."""

    def __init__(
        self,
        node: RoutingNode,
        deliver: DeliverFn,
        *,
        sequencer_pid: int = 0,
        store: Optional["DurableStore"] = None,
        tag: str = _TAG,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node = node
        self._deliver = deliver
        self.sequencer_pid = sequencer_pid
        self.telemetry = telemetry
        if telemetry is not None:
            self._m_casts = telemetry.counter("repro_tob_casts", engine="sequencer")
            self._m_delivers = telemetry.counter(
                "repro_tob_delivers", engine="sequencer"
            )
        self.store = store
        self.tag = tag
        # Sequencer-side state: the assignment log, ordered by seqno.
        self._order_log: List[Tuple[Hashable, Any]] = []
        self._ordered_keys: Set[Hashable] = set()
        # Endpoint-side state.
        self._holdback: Dict[int, Tuple[Hashable, Any]] = {}
        self._next_to_deliver = 0
        self._delivered: List[Hashable] = []
        node.register_component(tag, self._on_message)
        node.register_crash_hooks(on_recover=self._on_node_recover)
        if store is not None:
            self._reload()

    @property
    def delivered_sequence(self) -> List[Hashable]:
        return list(self._delivered)

    @property
    def _next_seqno(self) -> int:
        return len(self._order_log)

    def tob_cast(self, key: Hashable, payload: Any) -> None:
        """Forward the message to the sequencer for global ordering."""
        self.node.send_component(
            self.sequencer_pid, self.tag, ("propose", key, payload)
        )
        if self.telemetry:
            self._m_casts.inc()
            if isinstance(key, tuple):
                # Dot-keyed messages (every replica request, including
                # migration barriers — those are invoked as ops) join the
                # op's trace; any other key is counted only.
                self.telemetry.op_span(
                    self.node.now, self.node.pid, "tob.cast", key,
                    "tob.cast", "root",
                )

    def stop(self) -> None:
        """No periodic activity to stop in this engine."""

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, sender: int, message: Tuple) -> None:
        kind = message[0]
        if kind == "propose":
            self._sequencer_handle_propose(message[1], message[2])
        elif kind == "order":
            self._endpoint_handle_order(message[1], message[2], message[3])
        elif kind == "replay":
            self._sequencer_handle_replay(sender, message[1])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown sequencer-TOB message {kind!r}")

    def _sequencer_handle_propose(self, key: Hashable, payload: Any) -> None:
        if self.node.pid != self.sequencer_pid:
            # A stale proposal addressed to a former sequencer; ignore.
            return
        if key in self._ordered_keys:
            return
        self._ordered_keys.add(key)
        seqno = self._next_seqno
        self._order_log.append((key, payload))
        if self.store is not None:
            self.store.log(f"{self.tag}.order").append((key, payload))
        self.node.broadcast_component(
            self.tag, ("order", seqno, key, payload), include_self=True
        )

    def _sequencer_handle_replay(self, sender: int, from_seqno: int) -> None:
        """Re-send the assignment suffix a recovered endpoint is missing."""
        if self.node.pid != self.sequencer_pid:
            return
        for seqno in range(from_seqno, len(self._order_log)):
            key, payload = self._order_log[seqno]
            self.node.send_component(sender, self.tag, ("order", seqno, key, payload))

    def _endpoint_handle_order(self, seqno: int, key: Hashable, payload: Any) -> None:
        if seqno < self._next_to_deliver:
            return
        self._holdback[seqno] = (key, payload)
        while self._next_to_deliver in self._holdback:
            ordered_key, ordered_payload = self._holdback.pop(self._next_to_deliver)
            self._next_to_deliver += 1
            self._delivered.append(ordered_key)
            if self.store is not None:
                self.store.log(f"{self.tag}.delivered").append(ordered_key)
            if self.telemetry:
                self._m_delivers.inc()
                if (
                    isinstance(ordered_key, tuple)
                    and ordered_key[0] == self.node.pid
                ):
                    # One delivery span per op, at its origin endpoint —
                    # mirrors the origin-only commit span upstairs.
                    self.telemetry.op_span(
                        self.node.now,
                        self.node.pid,
                        "tob.deliver",
                        ordered_key,
                        "tob.deliver",
                        "tob.cast",
                        seqno=self._next_to_deliver - 1,
                    )
            self._deliver(ordered_key, ordered_payload)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _reload(self) -> None:
        self._order_log = list(self.store.log(f"{self.tag}.order").records())
        self._ordered_keys = {key for key, _ in self._order_log}
        self._delivered = list(self.store.log(f"{self.tag}.delivered").records())
        self._next_to_deliver = len(self._delivered)
        self._holdback = {}

    def _on_node_recover(self) -> None:
        """Reload the durable prefix and pull the missing order suffix.

        Without a store the in-memory state survived (the seed's transient
        pause); the replay request is still sent because ``order``
        broadcasts during the downtime are gone either way.
        """
        if self.store is not None:
            self._reload()
        else:
            self._holdback = {}
        if self.node.pid != self.sequencer_pid:
            self.node.send_component(
                self.sequencer_pid, self.tag, ("replay", self._next_to_deliver)
            )
        else:
            # The sequencer replays its own assignment log to itself: an
            # ``order`` self-broadcast in flight at crash time is lost like
            # any other message. Deferred one step so the other components'
            # recovery hooks finish before deliveries start.
            self.node.set_timer(0.0, self._self_replay, label="seqtob.selfreplay")

    def _self_replay(self) -> None:
        for seqno in range(self._next_to_deliver, len(self._order_log)):
            key, payload = self._order_log[seqno]
            self._endpoint_handle_order(seqno, key, payload)
