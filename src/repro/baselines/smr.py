"""State machine replication (the strongly consistent baseline).

Every operation — there is no weak/strong distinction — is TOB-cast and
executed by every replica in the TOB order; the origin replica returns the
response computed at that committed execution. This yields sequential
consistency for *all* operations (indeed linearizability, given TOB), with
the classic cost the paper opens with: no response can be produced while
consensus is blocked, e.g. during a partition that isolates the sequencer
or breaks the quorum.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.common import BaselineCluster
from repro.broadcast.sequencer import SequencerTOB
from repro.core.request import Dot, Req
from repro.core.state_object import StateObject
from repro.datatypes.base import DataType, Operation
from repro.net.node import RoutingNode


class _SMRReplica:
    """A deterministic state machine fed by TOB."""

    def __init__(
        self, node: RoutingNode, cluster: "SMRCluster", sequencer_pid: int
    ) -> None:
        self.node = node
        self.cluster = cluster
        self.state = StateObject(cluster.datatype)
        self.log: List[Req] = []
        self.tob = SequencerTOB(
            node, self._on_deliver, sequencer_pid=sequencer_pid
        )

    def submit(self, req: Req) -> None:
        self.tob.tob_cast(req.dot, req)

    def _on_deliver(self, key: Dot, req: Req) -> None:
        trace = tuple(r.dot for r in self.log)
        response = self.state.execute(req)
        self.log.append(req)
        if req.dot[0] == self.node.pid:
            self.cluster.ops.on_response(req, response, trace, False)


class SMRCluster(BaselineCluster):
    """All-strong state machine replication over sequencer TOB."""

    def __init__(
        self,
        datatype: DataType,
        n_replicas: int = 3,
        *,
        sequencer_pid: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(datatype, n_replicas, **kwargs)
        self.replicas: List[_SMRReplica] = []
        for pid in range(n_replicas):
            node = RoutingNode(self.runtime, pid, name=f"SMR{pid}")
            self.replicas.append(_SMRReplica(node, self, sequencer_pid))

    def invoke(self, pid: int, op: Operation, *, strong: bool = True) -> Req:
        """Submit ``op``; the response arrives when TOB commits it here."""
        req = self._begin(pid, op, strong=True, tob_cast=True)
        self.replicas[pid].submit(req)
        return req

    def _tob_order(self) -> List[Dot]:
        sequences = [replica.tob.delivered_sequence for replica in self.replicas]
        longest = max(sequences, key=len, default=[])
        for sequence in sequences:
            assert sequence == longest[: len(sequence)], "TOB order diverged"
        return longest

    def converged(self) -> bool:
        snapshots = [replica.state.snapshot() for replica in self.replicas]
        logs = [[r.dot for r in replica.log] for replica in self.replicas]
        return all(s == snapshots[0] for s in snapshots[1:]) and all(
            log == logs[0] for log in logs[1:]
        )
