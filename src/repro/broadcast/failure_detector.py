"""The Ω failure detector.

Ω is the weakest failure detector for consensus (Chandra, Hadzilacos &
Toueg): eventually, all correct processes trust the same correct process as
leader. We implement it with heartbeats over the simulated network:

- every node broadcasts a heartbeat each ``heartbeat_interval``;
- a node suspects a peer it has not heard from within ``timeout``;
- ``leader()`` is the smallest pid not currently suspected.

In the paper's *stable runs* (no partitions, bounded delays) the detector is
eventually accurate, so TOB makes progress. In *asynchronous runs* (lasting
partitions), nodes in different components elect different leaders and
consensus may never terminate — exactly the behaviour Theorem 3 relies on.

Heartbeat timers are real simulation events, so experiment harnesses call
:meth:`stop` when the workload is done to let the simulation quiesce.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.node import RoutingNode

_TAG = "omega"


class OmegaFailureDetector:
    """Heartbeat-based eventual leader election for one node."""

    def __init__(
        self,
        node: RoutingNode,
        *,
        heartbeat_interval: float = 5.0,
        timeout: float = 20.0,
    ) -> None:
        if timeout <= heartbeat_interval:
            raise ValueError("timeout must exceed heartbeat_interval")
        self.node = node
        self.heartbeat_interval = heartbeat_interval
        self.timeout = timeout
        #: Called with the new leader's pid when it changes (the Paxos
        #: engine assigns it).
        self.on_leader_change: Optional[Callable[[int], None]] = None
        # Construction reads no clock (the asyncio runtime has none before
        # its loop runs): nobody is suspected until start() opens the
        # window, so the smallest pid leads.
        self._last_heard: Dict[int, float] = {
            pid: float("inf") for pid in range(node.n_processes)
        }
        self._stopped = False
        self._tick_timer = None
        self._current_leader = 0
        node.register_component(_TAG, self._on_heartbeat)
        node.register_crash_hooks(on_recover=self._on_node_recover)

    def start(self) -> None:
        """Begin emitting heartbeats and checking suspicions.

        The suspicion window opens *now*: every peer is credited with a
        fresh ``_last_heard`` so a detector started late (simulated time
        already past ``timeout``) gives everyone one timeout's grace
        instead of instantly suspecting the whole cluster and electing
        itself leader until the first heartbeat round straightens it out.
        """
        self._stopped = False
        now = self.node.now
        for pid in self._last_heard:
            self._last_heard[pid] = now
        self._tick()

    def stop(self) -> None:
        """Stop all periodic activity so the simulation can quiesce."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped or self.node.crashed:
            # Crashed: leave no timer behind — recovery restarts the loop
            # through the node's on_recover hook (pre-fix, this early
            # return silently killed heartbeats forever, so a recovered
            # node stayed suspected and its own leader view went stale).
            return
        self.node.broadcast_component(_TAG, None)
        self._last_heard[self.node.pid] = self.node.now
        self._recheck_leader()
        self._tick_timer = self.node.set_timer(
            self.heartbeat_interval, self._tick, label="omega.tick"
        )

    def _on_node_recover(self) -> None:
        """Resume heartbeats after a crash–recovery, with a fresh window.

        ``_last_heard`` is volatile, so every peer is re-credited from the
        recovery instant (the same grace rule :meth:`start` applies). The
        heartbeat loop restarts one simulation step later: recovery hooks
        of the other components on this node (e.g. a Paxos engine reloading
        its acceptor state) may still be pending, and a leader-change
        callback must not fire into half-rebuilt state.
        """
        if self._stopped:
            return
        now = self.node.now
        for pid in self._last_heard:
            self._last_heard[pid] = now
        if self._tick_timer is not None and self._tick_timer.pending:
            self._tick_timer.cancel()
        self._tick_timer = None
        self.node.set_timer(0.0, self._tick, label="omega.restart")

    def _on_heartbeat(self, sender: int, _payload: None) -> None:
        self._last_heard[sender] = self.node.now
        self._recheck_leader()

    def suspected(self) -> List[int]:
        """Return the pids currently suspected of having crashed."""
        now = self.node.now
        return [
            pid
            for pid, heard in self._last_heard.items()
            if pid != self.node.pid and now - heard > self.timeout
        ]

    def _compute_leader(self) -> int:
        suspects = set(self.suspected())
        candidates = [
            pid for pid in range(self.node.n_processes) if pid not in suspects
        ]
        # Our own pid is never suspected, so candidates is never empty.
        return min(candidates)

    def _recheck_leader(self) -> None:
        new_leader = self._compute_leader()
        if new_leader != self._current_leader:
            self._current_leader = new_leader
            if self.on_leader_change is not None:
                self.on_leader_change(new_leader)

    def leader(self) -> int:
        """The process currently trusted as leader by this node."""
        # Recompute lazily so time passing without messages is reflected.
        self._recheck_leader()
        return self._current_leader
