"""A purely eventually consistent store (Dynamo/Cassandra-style baseline).

One ordering method only: last-writer-wins by ``(timestamp, dot)``. Every
update is applied idempotently on arrival; there is no speculation, no
rollback and no re-execution, so clients can never observe two inconsistent
orderings — the reason, per Section 2.2, that "the majority of eventually
consistent systems … are free of this anomaly". The price is semantics:
operations must be *blind* register writes (or reads); order-sensitive
return values (putIfAbsent, guarded withdrawals) are unsupported, which is
the exact gap Bayou's strong operations fill.

All operations are weak; ``invoke(strong=True)`` raises.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.baselines.common import BaselineCluster
from repro.core.request import Dot, Req
from repro.datatypes.base import DataType, DbView, Operation
from repro.net.node import RoutingNode

_TAG = "ec"


class UnsupportedOperationError(ValueError):
    """Raised for operations an LWW store cannot express."""


class _LwwView(DbView):
    """A view over (timestamp-tagged) registers applying LWW on write."""

    def __init__(self, store: "_ECReplica", stamp: Tuple[float, Dot]) -> None:
        self._store = store
        self._stamp = stamp
        self.wrote: Dict[Hashable, Any] = {}
        self.read_any = False

    def read(self, register_id: Hashable) -> Any:
        self.read_any = True
        cell = self._store.registers.get(register_id)
        return cell[1] if cell is not None else None

    def write(self, register_id: Hashable, value: Any) -> None:
        self.wrote[register_id] = value
        cell = self._store.registers.get(register_id)
        if cell is None or cell[0] < self._stamp:
            self._store.registers[register_id] = (self._stamp, value)


class _ECReplica:
    """One replica: a map of LWW registers plus the applied-update log."""

    def __init__(self, node: RoutingNode, cluster: "ECStoreCluster") -> None:
        self.node = node
        self.cluster = cluster
        #: register -> ((timestamp, dot), value)
        self.registers: Dict[Hashable, Tuple[Tuple[float, Dot], Any]] = {}
        #: applied updating requests, for perceived traces (kept req-sorted).
        self.applied: List[Req] = []
        self.applied_dots = set()
        node.register_component(_TAG, self._on_message)

    def apply(self, req: Req) -> Any:
        """Execute ``req`` against the LWW registers; returns the response."""
        view = _LwwView(self, (req.timestamp, req.dot))
        response = self.cluster.datatype.execute(req.op, view)
        if view.wrote and view.read_any:
            raise UnsupportedOperationError(
                f"{req.op!r} reads and writes; an LWW store supports only "
                "blind updates and reads (the paper's point about limited "
                "semantics of purely eventually consistent stores)"
            )
        if view.wrote and req.dot not in self.applied_dots:
            self.applied_dots.add(req.dot)
            position = len(self.applied)
            while position > 0 and req < self.applied[position - 1]:
                position -= 1
            self.applied.insert(position, req)
        return response

    def trace(self) -> Tuple[Dot, ...]:
        """Applied updates in LWW (request) order — the perceived trace."""
        return tuple(r.dot for r in self.applied)

    def _on_message(self, sender: int, req: Req) -> None:
        if req.dot in self.applied_dots:
            return
        self.apply(req)
        # Relay for uniform reliability, as in eager reliable broadcast.
        self.node.broadcast_component(_TAG, req)


class ECStoreCluster(BaselineCluster):
    """A cluster of LWW replicas with RB-style dissemination."""

    def __init__(
        self,
        datatype: DataType,
        n_replicas: int = 3,
        **kwargs: Any,
    ) -> None:
        super().__init__(datatype, n_replicas, **kwargs)
        self.replicas: List[_ECReplica] = []
        for pid in range(n_replicas):
            node = RoutingNode(self.runtime, pid, name=f"EC{pid}")
            self.replicas.append(_ECReplica(node, self))

    def invoke(self, pid: int, op: Operation, *, strong: bool = False) -> Req:
        """Apply locally, respond immediately, gossip the update."""
        if strong:
            raise UnsupportedOperationError(
                "an eventually consistent store has no strong operations"
            )
        req = self._begin(pid, op, strong=False, tob_cast=False)
        replica = self.replicas[pid]
        response = replica.apply(req)
        # Perceived trace: updates applied here, in LWW order, before us.
        trace = tuple(dot for dot in replica.trace() if dot != req.dot)
        self.ops.on_response(req, response, trace, False)
        if req.dot in replica.applied_dots:
            replica.node.broadcast_component(_TAG, req)
        return req

    def converged(self) -> bool:
        """All replicas hold identical register maps."""
        registers = [replica.registers for replica in self.replicas]
        return all(regs == registers[0] for regs in registers[1:])
