"""The Global Sequence Protocol (GSP) baseline [Burckhardt et al., ECOOP'15].

Clients keep a *committed prefix* received from the cloud plus their *own*
pending operations; an operation executes immediately against
``committed · own_pending`` and responds. The cloud (here: a dedicated
sequencer process) establishes the global sequence; receiving it may roll
back and re-execute the client's pending suffix.

Two properties matter for the paper's Section 6 discussion:

- a client never observes *another* client's operation before the cloud has
  ordered it, so no two clients can disagree on the relative order of
  operations either of them has seen — **no temporary operation
  reordering** (the ranks of observed events never fluctuate, because new
  committed operations are only ever *inserted* relative to unobserved
  ones);
- when the cloud is unreachable, clients stop observing each other entirely
  — **no mutual-visibility progress** (EV fails during the outage), which
  is exactly why Theorem 1 does not apply to GSP.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.common import BaselineCluster
from repro.core.request import Dot, Req
from repro.datatypes.base import DataType, Operation, PlainDb
from repro.net.node import RoutingNode

_TAG = "gsp"


class _GSPClient:
    """One GSP client: committed prefix + own pending suffix."""

    def __init__(self, node: RoutingNode, cluster: "GSPCluster", cloud_pid: int) -> None:
        self.node = node
        self.cluster = cluster
        self.cloud_pid = cloud_pid
        self.committed: List[Req] = []
        self.committed_dots: set = set()
        self.pending: List[Req] = []
        node.register_component(_TAG, self._on_message)

    def local_sequence(self) -> List[Req]:
        """The client's current view: committed · own pending."""
        return self.committed + self.pending

    def submit(self, req: Req) -> Any:
        """Execute against the local view, respond, and send to the cloud."""
        trace = tuple(r.dot for r in self.local_sequence())
        db = PlainDb()
        for prior in self.local_sequence():
            self.cluster.datatype.execute(prior.op, db)
        response = self.cluster.datatype.execute(req.op, db)
        self.pending.append(req)
        self.node.send_component(self.cloud_pid, _TAG, ("submit", req))
        return response, trace

    def _on_message(self, sender: int, message: Tuple) -> None:
        kind, payload = message
        if kind == "commit":
            req = payload
            if req.dot in self.committed_dots:
                return
            self.committed.append(req)
            self.committed_dots.add(req.dot)
            self.pending = [r for r in self.pending if r.dot != req.dot]


class _GSPCloud:
    """The cloud: a total-order service for client submissions."""

    def __init__(self, node: RoutingNode, n_clients: int) -> None:
        self.node = node
        self.n_clients = n_clients
        self.sequence: List[Req] = []
        self.seen: set = set()
        node.register_component(_TAG, self._on_message)

    def _on_message(self, sender: int, message: Tuple) -> None:
        kind, payload = message
        if kind == "submit":
            req = payload
            if req.dot in self.seen:
                return
            self.seen.add(req.dot)
            self.sequence.append(req)
            for pid in range(self.n_clients):
                self.node.send_component(pid, _TAG, ("commit", req))


class GSPCluster(BaselineCluster):
    """GSP clients around a cloud sequencer (process id ``n_replicas``)."""

    def __init__(
        self,
        datatype: DataType,
        n_replicas: int = 3,
        **kwargs: Any,
    ) -> None:
        super().__init__(datatype, n_replicas, extra_processes=1, **kwargs)
        self.cloud_pid = n_replicas
        cloud_node = RoutingNode(self.runtime, self.cloud_pid, name="cloud")
        self.cloud = _GSPCloud(cloud_node, n_replicas)
        self.clients: List[_GSPClient] = []
        for pid in range(n_replicas):
            node = RoutingNode(self.runtime, pid, name=f"GSP{pid}")
            self.clients.append(_GSPClient(node, self, self.cloud_pid))

    def invoke(self, pid: int, op: Operation, *, strong: bool = False) -> Req:
        """GSP operations are weak: immediate local response, cloud ordering."""
        if strong:
            raise ValueError(
                "GSP has no strong operations; its prefix is totally ordered "
                "but clients never wait for it"
            )
        req = self._begin(pid, op, strong=False, tob_cast=True)
        response, trace = self.clients[pid].submit(req)
        self.ops.on_response(req, response, trace, False)
        return req

    def _tob_order(self) -> List[Dot]:
        return [req.dot for req in self.cloud.sequence]

    def converged(self) -> bool:
        """All clients committed the full cloud sequence, nothing pending."""
        target = [req.dot for req in self.cloud.sequence]
        for client in self.clients:
            if [r.dot for r in client.committed] != target or client.pending:
                return False
        return True
