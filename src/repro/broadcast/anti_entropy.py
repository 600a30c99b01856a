"""Pairwise anti-entropy dissemination — how the 1995 Bayou actually spread
writes.

The PODC'19 paper models dissemination as Reliable Broadcast; the original
Bayou system instead ran periodic *anti-entropy sessions*: a replica picks a
peer, the two compare version vectors, and the one that is ahead ships the
missing updates. This module implements that substrate as a drop-in
alternative to :class:`~repro.broadcast.reliable.ReliableBroadcast` (select
it with ``BayouConfig(dissemination="anti_entropy")``).

Semantics:

- each replica keeps a log of the requests it knows, indexed by origin
  replica and per-origin sequence number (the dot), summarised by a
  **version vector** ``vv[origin] = highest contiguous event number seen``;
- every ``sync_interval`` a replica sends ``("pull", vv)`` to the next peer
  in round-robin order; the peer responds with every logged request the
  vector is missing;
- delivery is in-order per origin (dots are contiguous per replica), so the
  vector summary is exact.

Compared to eager RB this trades latency for bandwidth: updates propagate
in O(diameter × interval) instead of one hop, but each update crosses each
link at most once per sync instead of n² relays. The
``tests/test_anti_entropy.py`` suite checks the same delivery contract RB
satisfies (everything reaches everyone, exactly once, partitions heal), and
the dissemination benchmark compares message counts.

Batching: a sync session already ships the whole missing log suffix in one
``push`` message. When the host provides a ``deliver_batch`` callback, the
endpoint also *delivers* that suffix as one batch — every newly contiguous
request handed over in a single call — so a Bayou replica can insert all of
them into its tentative order and recompute its execution schedule once
(:meth:`BayouReplica.on_rb_deliver_batch`) instead of once per request.
Without ``deliver_batch`` each request is delivered individually, exactly
the seed behaviour; both paths produce identical replica state.

Delivery-order invariant either way: per-origin by contiguous event number,
origins in the order the pushing peer enumerated them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.net.node import RoutingNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → broadcast)
    from repro.core.durability import DurableStore

_TAG = "antientropy"

DeliverFn = Callable[[Hashable, Any], None]
DeliverBatchFn = Callable[[List[Tuple[Hashable, Any]]], None]


class AntiEntropy:
    """Per-node endpoint of the pull-based anti-entropy protocol.

    API-compatible with :class:`ReliableBroadcast`: ``rb_cast(key,
    payload)`` where ``key`` must be a dot ``(origin, event_no)`` with
    per-origin event numbers starting at 1 and contiguous — exactly what
    Bayou's ``invoke`` produces.
    """

    def __init__(
        self,
        node: RoutingNode,
        deliver: DeliverFn,
        *,
        deliver_batch: Optional[DeliverBatchFn] = None,
        sync_interval: float = 2.0,
        store: Optional["DurableStore"] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node = node
        self._deliver = deliver
        self._deliver_batch = deliver_batch
        self.sync_interval = sync_interval
        #: Volume counters only: anti-entropy ships whole log suffixes, so
        #: per-op spans here would be noise — sync traffic is not op history.
        self.telemetry = telemetry
        if telemetry is not None:
            self._m_syncs = telemetry.counter("repro_ae_syncs")
            self._m_shipped = telemetry.counter("repro_ae_updates_shipped")
            self._m_delivered = telemetry.counter("repro_ae_updates_delivered")
        self.store = store
        #: origin -> {event_no: payload} for everything we know.
        self._log: Dict[int, Dict[int, Any]] = {}
        #: origin -> highest contiguous event number delivered here.
        self._version_vector: Dict[int, int] = {}
        #: peer -> the version vector it most recently reported.
        self._peer_vector_cache: Dict[int, Dict[int, int]] = {}
        self._next_peer_offset = 1
        self._stopped = False
        self._timer_armed = False
        node.register_component(_TAG, self._on_message)
        node.register_crash_hooks(on_recover=self._on_node_recover)
        if store is not None and len(store.log(f"{_TAG}.log")):
            # A pre-existing durable log (e.g. a JSON-lines directory from a
            # previous operating-system process) seeds the endpoint.
            self._reload()

    # ------------------------------------------------------------------
    # RB-compatible API
    # ------------------------------------------------------------------
    @property
    def delivered_keys(self):
        """All dots delivered (or originated) at this node."""
        return {
            (origin, number)
            for origin, numbers in self._log.items()
            for number in numbers
        }

    def version_vector(self) -> Dict[int, int]:
        """A copy of the current version vector (diagnostics/tests)."""
        return dict(self._version_vector)

    def rb_cast(self, key: Tuple[int, int], payload: Any) -> None:
        """Record a locally originated request; it spreads via syncs."""
        origin, number = key
        if origin != self.node.pid:
            raise ValueError(
                f"rb_cast of foreign dot {key!r} on replica {self.node.pid}"
            )
        self._absorb(key, payload)  # own origin: logged, never re-delivered
        self._arm_timer()

    def stop(self) -> None:
        """Stop periodic syncing so the simulation can quiesce."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    def _absorb(self, key: Tuple[int, int], payload: Any) -> List[Tuple[Hashable, Any]]:
        """Log ``(key, payload)``; return newly contiguous foreign requests."""
        origin, number = key
        log = self._log.setdefault(origin, {})
        if number in log:
            return []
        log[number] = payload
        if self.store is not None:
            # Write-ahead, non-contiguous entries included: the version
            # vector is recomputed from the log at recovery, so everything
            # absorbed must be reloadable.
            self.store.log(f"{_TAG}.log").append((key, payload))
        # Advance the contiguous frontier, collecting in per-origin order.
        new_frontier = self._version_vector.get(origin, 0)
        ready: List[Tuple[Hashable, Any]] = []
        while new_frontier + 1 in log:
            new_frontier += 1
            if origin != self.node.pid:
                # Local requests were handled at rb_cast time.
                ready.append(((origin, new_frontier), log[new_frontier]))
        self._version_vector[origin] = new_frontier
        return ready

    def _dispatch(self, items: List[Tuple[Hashable, Any]]) -> None:
        """Deliver ``items`` — in one batch when the host supports it."""
        if not items:
            return
        if self.telemetry:
            self._m_delivered.inc(len(items))
        if self._deliver_batch is not None:
            self._deliver_batch(items)
        else:
            for key, payload in items:
                self._deliver(key, payload)

    # ------------------------------------------------------------------
    # Sync protocol
    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        if self._timer_armed or self._stopped:
            return
        self._timer_armed = True
        # ``resurrect=True`` keeps the ``_timer_armed`` flag truthful across
        # a crash: a sync tick coming due while the node is down is
        # *suppressed* (not cancelled) and re-armed at recovery, so the
        # one-timer-in-flight invariant this flag encodes still holds — the
        # pre-fix behaviour left the flag stuck True with no timer behind
        # it, and a recovered replica never synced again.
        self.node.set_timer(
            self.sync_interval, self._sync, label="ae.sync", resurrect=True
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _reload(self) -> None:
        """Rebuild the log and version vector from stable storage."""
        self._log = {}
        self._version_vector = {}
        for key, payload in self.store.log(f"{_TAG}.log").records():
            origin, number = key
            self._log.setdefault(origin, {})[number] = payload
        for origin, numbers in self._log.items():
            frontier = 0
            while frontier + 1 in numbers:
                frontier += 1
            self._version_vector[origin] = frontier

    def _on_node_recover(self) -> None:
        """Reboot: reload durable state, drop peer knowledge, resume pulls.

        Peer vector caches are *volatile* by design — while we were down,
        peers optimistically recorded pushes we never received, and we may
        have stale knowledge of them. Forgetting both sides' caches makes
        the recovered node pull every peer again (initial-discovery rule in
        :meth:`_has_unsynced_state`), which is exactly the re-announce +
        catch-up the write log in stable storage exists for.
        """
        if self.store is not None:
            self._reload()
        self._peer_vector_cache = {}
        # Re-announce: one immediate pull to *every* peer. This both
        # advertises our true (reloaded) vector — correcting any optimistic
        # cache a peer built from pushes we never received — and triggers
        # push-backs of everything we missed, even from peers the
        # round-robin loop would only reach several intervals from now.
        if not self._stopped:
            for peer in range(self.node.n_processes):
                if peer != self.node.pid:
                    self.node.send_component(
                        peer, _TAG, ("pull", dict(self._version_vector))
                    )
        if not self._timer_armed:
            # A suppressed sync tick resurrects itself; if the loop was idle
            # at crash time, restart it so downtime gaps keep being pulled.
            self._arm_timer()

    def _sync(self) -> None:
        self._timer_armed = False
        if self._stopped:
            return
        n = self.node.n_processes
        if n > 1:
            peer = (self.node.pid + self._next_peer_offset) % n
            self._next_peer_offset = self._next_peer_offset % (n - 1) + 1
            if peer != self.node.pid:
                if self.telemetry:
                    self._m_syncs.inc()
                self.node.send_component(
                    peer, _TAG, ("pull", dict(self._version_vector))
                )
        if self._has_unsynced_state():
            self._arm_timer()

    def _has_unsynced_state(self) -> bool:
        """Keep syncing while some peer may lack something we have.

        We track, per peer, the last version vector it reported (updated
        optimistically when we push to it). Quiescence: once every peer's
        known vector dominates ours, nothing re-arms and the simulation
        drains naturally. Peers never heard from keep us syncing as long as
        we hold any data (initial discovery).
        """
        ours = self._version_vector
        for peer, vector in self._peer_vector_cache.items():
            for origin, frontier in ours.items():
                if vector.get(origin, 0) < frontier:
                    return True
        n = self.node.n_processes
        known = set(self._peer_vector_cache)
        if any(ours.values()) and len(known) < n - 1:
            return True
        return False

    def _missing_updates(self, their_vector: Dict[int, int]):
        """Every delivered update the peer's vector lacks, plus the merged
        vector the peer will hold after absorbing them."""
        updates = []
        merged = dict(their_vector)
        for origin, frontier in self._version_vector.items():
            log = self._log.get(origin, {})
            start = their_vector.get(origin, 0)
            for number in range(start + 1, frontier + 1):
                updates.append(((origin, number), log[number]))
                merged[origin] = number
        return updates, merged

    def _offer(self, peer: int, their_vector: Dict[int, int], *, reply_always: bool) -> None:
        """Push whatever the peer is missing; remember what they will know."""
        updates, merged = self._missing_updates(their_vector)
        self._peer_vector_cache[peer] = merged
        if updates and self.telemetry:
            self._m_shipped.inc(len(updates))
        if updates or reply_always:
            self.node.send_component(
                peer, _TAG, ("push", (updates, dict(self._version_vector)))
            )

    def _on_message(self, sender: int, message: Tuple) -> None:
        kind, payload = message
        if kind == "pull":
            # Always reply (even with no updates) so the puller learns our
            # vector — knowledge must flow for the protocol to terminate.
            self._offer(sender, dict(payload), reply_always=True)
        elif kind == "push":
            updates, their_vector = payload
            ready: List[Tuple[Hashable, Any]] = []
            for key, update_payload in updates:
                ready.extend(self._absorb(tuple(key), update_payload))
            self._dispatch(ready)
            # If *we* now hold something the pusher lacks, push back once.
            self._offer(sender, dict(their_vector), reply_always=False)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown anti-entropy message {kind!r}")
        if self._has_unsynced_state():
            self._arm_timer()
