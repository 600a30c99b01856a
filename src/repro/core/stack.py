"""One replica's protocol stack, assembled once for every runtime.

A Bayou replica is three components on one
:class:`~repro.net.node.RoutingNode`: the replica itself, a dissemination
endpoint (reliable broadcast or anti-entropy) and a TOB engine (sequencer,
or Multi-Paxos with its Ω failure detector). The simulated
:class:`~repro.core.cluster.BayouCluster` and the real
:class:`~repro.runtime.serve.ReplicaServer` both build it here, so the two
deployments cannot drift apart in what they wire or which settings they
honour.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Type

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.sequencer import SequencerTOB
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore
from repro.core.replica import BayouReplica, Responder
from repro.datatypes.base import DataType
from repro.net.node import RoutingNode
from repro.sim.clock import DriftingClock


def build_replica_stack(
    node: RoutingNode,
    clock: DriftingClock,
    datatype: DataType,
    config: BayouConfig,
    *,
    replica_class: Type[BayouReplica] = BayouReplica,
    responder: Optional[Responder] = None,
    store: Optional[DurableStore] = None,
    telemetry: Optional[Any] = None,
) -> Tuple[BayouReplica, Optional[OmegaFailureDetector]]:
    """Build the replica on ``node`` with its endpoints attached.

    Returns the replica and, for the Paxos engine, its Ω detector — which
    the caller starts once its runtime is running (``omega.start`` reads
    the clock) and stops at shutdown.
    """
    replica = replica_class(
        node,
        clock,
        datatype,
        config,
        responder=responder,
        store=store,
        telemetry=telemetry,
    )
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
            max_batch=config.paxos_max_batch,
            max_inflight=config.paxos_max_inflight,
            dual_2b=config.paxos_dual_2b,
            max_gap=config.paxos_max_gap,
            catchup_batch=config.paxos_catchup_batch,
            catchup_rate=config.paxos_catchup_rate,
            catchup_burst=config.paxos_catchup_burst,
            deliver_batch=replica.on_tob_deliver_batch,
            store=store,
            telemetry=telemetry,
        )
    return replica, omega
