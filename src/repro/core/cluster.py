"""The Bayou cluster harness.

Wires together the full stack — simulator, drifting clocks, network with
partitions and fault filters, reliable broadcast, a TOB engine (sequencer or
Multi-Paxos with Ω), and one Bayou replica per node — and records the
history of every invocation with the instrumentation the formal framework
needs (request timestamps, TOB order, perceived execution traces).

Typical experiment shape::

    cluster = BayouCluster(RList(), BayouConfig(n_replicas=2))
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_fec(execution, "weak").ok
"""

from __future__ import annotations

import tempfile
from typing import Any, Callable, Dict, List, Optional

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.core.baselines import ECReplica, GSPReplica, SMRReplica
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica
from repro.core.request import Dot, Req
from repro.core.session import OpFuture, OpLedger, Session
from repro.core.stack import (
    build_replica_stack,
    open_replica_store,
    stop_replica_stack,
)
from repro.datatypes.base import DataType, Operation
from repro.errors import DivergedOrderError, ReplicaUnavailableError
from repro.framework.history import History, freeze_history
from repro.net.faults import CrashSchedule, MessageFilter
from repro.net.network import FixedLatency, Network, UniformLatency
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.obs import Telemetry
from repro.runtime.sim import SimRuntime
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRngRegistry

#: Protocol selector values.
ORIGINAL = "original"
MODIFIED = "modified"

#: The replica class each protocol name runs: the paper's two algorithms
#: and the three systems it compares them with (:mod:`repro.core.baselines`).
PROTOCOLS = {
    ORIGINAL: BayouReplica,
    MODIFIED: ModifiedBayouReplica,
    "smr": SMRReplica,
    "ec": ECReplica,
    "gsp": GSPReplica,
}


class BayouCluster:
    """A simulated deployment of one protocol of :data:`PROTOCOLS`."""

    def __init__(
        self,
        datatype: DataType,
        config: Optional[BayouConfig] = None,
        *,
        protocol: str = ORIGINAL,
        partitions: Optional[PartitionSchedule] = None,
        filters: Optional[MessageFilter] = None,
        crashes: Optional[CrashSchedule] = None,
        sim: Optional[Simulator] = None,
        name: str = "",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or BayouConfig()
        self.config.validate()
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose one of "
                + ", ".join(map(repr, PROTOCOLS))
            )
        self.protocol = protocol
        self.datatype = datatype
        #: Deployment name; prefixes node names (sharded deployments run
        #: several clusters side by side on one shared simulator).
        self.name = name

        self.sim = sim if sim is not None else Simulator()
        #: The deployment's telemetry plane. Sharded deployments pass one
        #: shared plane into every shard; standalone clusters build their
        #: own when ``config.enable_telemetry`` is set.
        if telemetry is None and self.config.enable_telemetry:
            telemetry = Telemetry(trace_capacity=self.config.trace_capacity)
        self.telemetry = telemetry
        self.rngs = SeededRngRegistry(self.config.seed)
        self.partitions = partitions or PartitionSchedule(self.config.n_replicas)
        self.filters = filters or MessageFilter()
        if self.config.latency_jitter > 0:
            latency = UniformLatency(
                self.config.message_delay,
                self.config.message_delay + self.config.latency_jitter,
                self.rngs,
            )
        else:
            latency = FixedLatency(self.config.message_delay)
        self.network = Network(
            self.sim,
            self.config.n_replicas,
            latency=latency,
            partitions=self.partitions,
            filters=self.filters,
        )
        #: The execution runtime every node and component runs against.
        #: Here it is always the deterministic backend; the same stack runs
        #: over :class:`~repro.runtime.asyncio_net.AsyncioRuntime` in
        #: ``python -m repro serve`` (see :mod:`repro.runtime.serve`).
        self.runtime = SimRuntime(self.sim, self.network)

        self.nodes: List[RoutingNode] = []
        self.clocks: List[DriftingClock] = []
        self.replicas: List[BayouReplica] = []
        self.omegas: List[OmegaFailureDetector] = []
        #: Per-replica stable storage (None entries when durability="none").
        self.stores: List[Optional[DurableStore]] = []
        #: Stabilisation horizon marked by :meth:`add_horizon_probes`.
        self._horizon: Optional[float] = None
        #: Every operation ever submitted here: the one per-op record that
        #: sessions, the response pipeline, telemetry and the frozen
        #: History all share. Its telemetry view is scoped to this
        #: deployment (op trace ids carry the name, instruments the shard).
        self.ops = OpLedger(
            self.runtime.now,
            telemetry.scoped(self.name) if telemetry is not None else None,
        )
        self._build()
        if crashes is not None:
            crashes.arm(self.sim, {node.pid: node for node in self.nodes})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        replica_class = PROTOCOLS[self.protocol]
        durability_root = config.durability_dir
        if config.durability == "jsonl" and durability_root is None:
            durability_root = tempfile.mkdtemp(prefix="repro-durable-")
        for pid in range(config.n_replicas):
            node = RoutingNode(self.runtime, pid, name=f"{self.name}R{pid}")
            store = open_replica_store(config, pid, durability_root)
            clock = DriftingClock(
                self.sim,
                offset=config.clock_offsets.get(pid, 0.0),
                rate=config.clock_rates.get(pid, 1.0),
            )
            replica, omega = build_replica_stack(
                node,
                clock,
                self.datatype,
                config,
                self.ops,
                replica_class=replica_class,
                store=store,
                telemetry=self.ops.telemetry,
            )
            if omega is not None:
                self.omegas.append(omega)
                self.sim.schedule(0.0, omega.start, label=f"omega start {pid}")
            # Registered last, so it runs after every component on this node
            # rebuilt its own state: the replica's uncommitted requests are
            # re-advertised only once the endpoints can carry them.
            node.register_crash_hooks(
                on_recover=lambda r=replica: r.reannounce()
            )
            if replica.restored_from_store:
                # Rebuilt over a previous incarnation's disk: re-advertise
                # uncommitted requests once the simulation starts (the
                # endpoints above are wired by then).
                self.sim.schedule(
                    0.0, replica.reannounce, label=f"reannounce R{pid}"
                )
            self.nodes.append(node)
            self.clocks.append(clock)
            self.replicas.append(replica)
            self.stores.append(store)

    # ------------------------------------------------------------------
    # Invocation API
    # ------------------------------------------------------------------
    def submit(
        self,
        pid: int,
        op: Operation,
        *,
        strong: bool = False,
        future: Optional[OpFuture] = None,
    ) -> OpFuture:
        """Invoke ``op`` on replica ``pid`` right now; returns its future.

        The single response pipeline behind every client style: sessions
        pass their own pre-created future, open-loop callers get a fresh
        one. The future may already be resolved when this returns — the
        modified protocol answers weak operations synchronously inside
        ``invoke()``.
        """
        replica = self.replicas[pid]
        if replica.node.crashed:
            # Name the deployment (the shard, in sharded runs) as well as
            # the replica index: migration/crash interleavings are debugged
            # from this message, and "replica 1" alone does not say *which*
            # shard's replica 1 refused the submission.
            shard_tag = f" of shard {self.name}" if self.name else ""
            raise ReplicaUnavailableError(
                f"replica {pid}{shard_tag} is crashed at t={self.sim.now:g}; "
                "a crashed replica ceases all communication, so clients "
                "cannot reach it"
            )
        return self.ops.invoke(replica, op, strong=strong, future=future)

    def invoke(self, pid: int, op: Operation, *, strong: bool = False) -> Req:
        """Invoke ``op`` on replica ``pid`` right now; returns the request."""
        request = self.submit(pid, op, strong=strong).request
        assert request is not None
        return request

    def connect(self, pid: int, *, think_time: float = 0.0) -> Session:
        """Open a closed-loop :class:`Session` against replica ``pid``."""
        return Session(self, pid, think_time=think_time)

    def schedule_invoke(
        self, at: float, pid: int, op: Operation, *, strong: bool = False
    ) -> None:
        """Plan an invocation at absolute simulated time ``at``."""
        self.sim.schedule_at(
            at,
            lambda: self.invoke(pid, op, strong=strong),
            label=f"invoke R{pid} {op}",
        )

    # ------------------------------------------------------------------
    # Crash control
    # ------------------------------------------------------------------
    def crash_replica(self, pid: int, mode: str = "recover") -> None:
        """Crash replica ``pid`` right now (``mode``: "stop" or "recover")."""
        self.nodes[pid].crash(mode)

    def recover_replica(self, pid: int) -> None:
        """Recover a crashed replica: every component reloads its durable
        state, catches up with peers and resumes periodic work."""
        self.nodes[pid].recover()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation (optionally up to an absolute time)."""
        self.sim.run(until=until)

    def run_until_quiescent(self) -> float:
        """Run until no events remain (natural with the sequencer engine)."""
        return self.sim.run_until_quiescent()

    def run_until_stable(
        self, *, max_time: float = 100_000.0, check_every: float = 50.0
    ) -> bool:
        """Run until converged-and-idle or ``max_time`` (for Paxos runs).

        Returns True if the cluster converged: every request a crash did
        not write off answered, replicas agree on ``committed · tentative`` and
        have empty backlogs.
        """
        while self.sim.now < max_time:
            self.sim.run(until=self.sim.now + check_every)
            if self.sim.pending_events == 0:
                # A drained queue leaves the clock where it is: stop here,
                # converged or not, instead of waiting for ``max_time``.
                return self.converged()
            if self.converged() and self._only_periodic_work_left():
                return True
        return self.converged()

    def _only_periodic_work_left(self) -> bool:
        """Heuristic: all client requests answered and replicas drained."""
        unanswered = [
            future
            for future in self.ops.futures.values()
            if not future.done and not self._response_lost(future)
        ]
        backlogs = any(
            replica.backlog
            for replica in self.replicas
            if not replica.node.crashed
        )
        return not unanswered and not backlogs

    def _response_lost(self, future: OpFuture) -> bool:
        """Whether a crash made this request permanently unanswerable.

        With stable storage, a replica that crashes drops its volatile
        response bookkeeping at recovery, so any request invoked on it
        before the crash that had not responded yet never will (even if
        the request itself survives in the durable write-ahead log and
        still commits). Without stable storage the in-memory bookkeeping
        survives recovery — a pending response can still arrive — so only
        a *permanent* (crash-stop) outage writes the request off. Either
        way such events stay PENDING in the history; stability detection
        must not wait for them.
        """
        replica = self.replicas[future.pid]
        crashed_after_invoke = any(
            at >= future.invoke_time for at in replica.crash_times
        )
        if replica.store is not None:
            return crashed_after_invoke
        return (
            crashed_after_invoke
            and replica.node.crashed
            and replica.node.crash_mode == "stop"
        )

    def shutdown(self) -> None:
        """Stop all periodic activity so in-flight events can drain."""
        for replica in self.replicas:
            stop_replica_stack(replica)
        for omega in self.omegas:
            omega.stop()

    def close(self) -> None:
        """Close every replica store (a ``jsonl`` journal is an open file).

        Not part of :meth:`shutdown`: events still in flight after it may
        journal. Call it once the run is over; a second call does nothing.
        """
        for store in self.stores:
            if store is not None:
                store.close()

    # ------------------------------------------------------------------
    # Probing and history construction
    # ------------------------------------------------------------------
    def add_horizon_probes(
        self,
        make_op: Callable[[], Operation],
        *,
        spacing: Optional[float] = None,
    ) -> float:
        """Mark the stabilisation horizon and issue one probe per replica.

        The probes are weak operations invoked after the horizon; the EV and
        CPar finite-run checks quantify over them. Probes are spaced widely
        enough that clock *offsets* cannot reverse their timestamp order
        (the paper's visibility rule for never-broadcast read-only events
        compares request timestamps). Runs with differing clock *rates*
        should not rely on EV probes. Returns the horizon time.
        """
        horizon = self.sim.now
        self._horizon = horizon
        if spacing is None:
            offsets = [
                self.config.clock_offsets.get(pid, 0.0)
                for pid in range(self.config.n_replicas)
            ]
            spacing = 1.0 + 2.0 * (max(offsets) - min(offsets))
        for pid in range(self.config.n_replicas):
            self.schedule_invoke(horizon + 1.0 + pid * spacing, pid, make_op())
        return horizon

    def build_history(
        self, *, horizon: Optional[float] = None, well_formed: bool = True
    ) -> History:
        """Freeze the per-operation records into a checkable History."""
        return freeze_history(
            self.ops.futures.values(),
            self.datatype,
            self._consistent_tob_order(),
            horizon=horizon if horizon is not None else self._horizon,
            well_formed=well_formed,
        )

    def _consistent_tob_order(self) -> List[Dot]:
        """The TOB delivery order; checks replicas saw consistent prefixes.

        Raises :class:`DivergedOrderError` (with a readable diff of the two
        sequences) if any replica's delivered sequence is not a prefix of
        the longest one — a violation of TOB's total-order property.
        """
        sequences = [
            replica.tob.delivered_sequence
            for replica in self.replicas
            if replica.tob is not None
        ]
        longest: List[Dot] = max(sequences, key=len, default=[])
        for sequence in sequences:
            if sequence != longest[: len(sequence)]:
                raise DivergedOrderError.from_sequences(sequence, longest)
        return longest

    # ------------------------------------------------------------------
    # Convergence diagnostics
    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """All live replicas agree on the order, on how much of it is
        committed, and have fully executed it.

        Crashed replicas are excluded: a crash-stop replica can never catch
        up (by definition), and a crash–recovery replica rejoins the check
        the moment it recovers — E11's convergence criterion is exactly
        that a *recovered* replica is indistinguishable from a survivor
        here.
        """
        live = [
            replica for replica in self.replicas if not replica.node.crashed
        ]
        if not live:
            return False
        orders = [[r.dot for r in replica.current_order()] for replica in live]
        if any(order != orders[0] for order in orders[1:]):
            return False
        # Equal orders still differ while a commit is on its way to one
        # replica: it holds those requests tentatively, in the same places.
        if any(len(r.committed) != len(live[0].committed) for r in live[1:]):
            return False
        if any(replica.backlog for replica in live):
            return False
        snapshots = [replica.state.snapshot() for replica in live]
        return all(snapshot == snapshots[0] for snapshot in snapshots[1:])

    def convergence_report(self) -> Dict[str, Any]:
        """Structured convergence diagnostics for experiment reports."""
        return {
            "converged": self.converged(),
            "crashed": [r.node.crashed for r in self.replicas],
            "committed_lengths": [len(r.committed) for r in self.replicas],
            "tentative_lengths": [len(r.tentative) for r in self.replicas],
            "backlogs": [r.backlog for r in self.replicas],
            "executions": [r.execution_count for r in self.replicas],
            "rollbacks": [r.rollback_count for r in self.replicas],
            "downtimes": [r.downtime for r in self.replicas],
        }
