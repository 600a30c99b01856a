"""One replica's protocol stack, assembled once for every runtime.

A Bayou replica is three components on one
:class:`~repro.net.node.RoutingNode`: the replica itself, a dissemination
endpoint (reliable broadcast or anti-entropy) and a TOB engine (sequencer,
or Multi-Paxos with its Ω failure detector). The simulated
:class:`~repro.core.cluster.BayouCluster` and the real
:class:`~repro.runtime.serve.ReplicaServer` both build it here, so the two
deployments cannot drift apart in what they wire or which settings they
honour. Stable storage (:func:`open_replica_store`) and teardown
(:func:`stop_replica_stack`) live here for the same reason.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple, Type

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.sequencer import SequencerTOB
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, open_store
from repro.core.replica import BayouReplica
from repro.core.session import OpLedger
from repro.datatypes.base import DataType
from repro.net.node import RoutingNode
from repro.sim.clock import DriftingClock


def open_replica_store(
    config: BayouConfig, pid: int, root: Optional[str]
) -> Optional[DurableStore]:
    """Replica ``pid``'s stable storage, per the configured backend.

    ``root`` is the deployment's directory for the ``"jsonl"`` backend
    (one subdirectory per replica); the other backends ignore it.
    """
    if config.durability != "jsonl":
        return open_store(config.durability)
    if root is None:
        raise ValueError("jsonl durability needs a durability_dir")
    return open_store("jsonl", directory=os.path.join(root, f"node{pid}"))


def build_replica_stack(
    node: RoutingNode,
    clock: DriftingClock,
    datatype: DataType,
    config: BayouConfig,
    ops: OpLedger,
    *,
    replica_class: Type[BayouReplica] = BayouReplica,
    store: Optional[DurableStore] = None,
    telemetry: Optional[Any] = None,
) -> Tuple[BayouReplica, Optional[OmegaFailureDetector]]:
    """Build the replica on ``node`` with its endpoints attached.

    The replica reports responses and commits to ``ops``, the deployment's
    per-operation records. Returns the replica and, for the Paxos engine,
    its Ω detector — which the caller starts once its runtime is running
    (``omega.start`` reads the clock) and stops at shutdown.
    """
    replica = replica_class(
        node,
        clock,
        datatype,
        config,
        responder=ops.on_response,
        store=store,
        telemetry=telemetry,
    )
    replica.commit_listener = ops.on_commit
    if config.dissemination == "anti_entropy":
        replica.rb = AntiEntropy(
            node,
            replica.on_rb_deliver,
            deliver_batch=replica.on_rb_deliver_batch,
            sync_interval=config.ae_sync_interval,
            store=store,
            telemetry=telemetry,
        )
    else:
        replica.rb = ReliableBroadcast(node, replica.on_rb_deliver, store=store)
    omega: Optional[OmegaFailureDetector] = None
    if config.tob_engine == "sequencer":
        replica.tob = SequencerTOB(
            node,
            replica.on_tob_deliver,
            sequencer_pid=config.sequencer_pid,
            store=store,
            telemetry=telemetry,
        )
    else:
        omega = OmegaFailureDetector(
            node,
            heartbeat_interval=config.heartbeat_interval,
            timeout=config.failure_timeout,
        )
        replica.tob = PaxosTOB(
            node,
            replica.on_tob_deliver,
            omega,
            retry_interval=config.paxos_retry_interval,
            deliver_batch=replica.on_tob_deliver_batch,
            store=store,
            telemetry=telemetry,
        )
    return replica, omega


def stop_replica_stack(replica: BayouReplica) -> None:
    """Stop the replica's and its endpoints' periodic activity so in-flight
    work can drain (the caller stops the Ω detector it started)."""
    replica.stop()
    if replica.tob is not None:
        replica.tob.stop()
    if isinstance(replica.rb, AntiEntropy):
        replica.rb.stop()
