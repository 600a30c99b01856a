"""Shared plumbing for baseline clusters: request minting, op records.

Baselines mirror the relevant slice of :class:`repro.core.cluster.
BayouCluster`'s API (``invoke``/``schedule_invoke``/``run*``/
``build_history``/``converged``) so experiments can swap systems freely,
and keep the same per-operation record (an
:class:`~repro.core.session.OpFuture` in an
:class:`~repro.core.session.OpLedger`) frozen by the same function.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.request import Dot, Req
from repro.core.session import OpFuture, OpLedger
from repro.datatypes.base import DataType, Operation
from repro.framework.history import History, freeze_history
from repro.net.faults import MessageFilter
from repro.net.network import FixedLatency, Network
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator


class BaselineCluster:
    """Base class wiring simulator + network and recording histories."""

    def __init__(
        self,
        datatype: DataType,
        n_replicas: int,
        *,
        message_delay: float = 1.0,
        partitions: Optional[PartitionSchedule] = None,
        filters: Optional[MessageFilter] = None,
        extra_processes: int = 0,
    ) -> None:
        self.datatype = datatype
        self.n_replicas = n_replicas
        self.sim = Simulator()
        self.partitions = partitions or PartitionSchedule(
            n_replicas + extra_processes
        )
        self.filters = filters or MessageFilter()
        self.network = Network(
            self.sim,
            n_replicas + extra_processes,
            latency=FixedLatency(message_delay),
            partitions=self.partitions,
            filters=self.filters,
        )
        #: The runtime every baseline node runs against.
        self.runtime = SimRuntime(self.sim, self.network)
        self.clocks = [
            DriftingClock(self.sim) for _ in range(n_replicas)
        ]
        #: Every operation ever invoked here, by dot.
        self.ops = OpLedger(self.runtime.now)
        self._event_numbers = [0] * n_replicas
        self._horizon: Optional[float] = None

    # ------------------------------------------------------------------
    # Record helpers used by subclasses
    # ------------------------------------------------------------------
    def _begin(
        self, pid: int, op: Operation, *, strong: bool, tob_cast: bool
    ) -> Req:
        """Mint the request for ``op`` on ``pid`` and open its record; the
        subclass reports the (first and only) response to
        ``self.ops.on_response``."""
        self._event_numbers[pid] += 1
        req = Req(
            timestamp=self.clocks[pid].now(),
            dot=(pid, self._event_numbers[pid]),
            strong=strong,
            op=op,
        )
        future = self.ops.open(req.dot, OpFuture(op, strong=strong, pid=pid))
        future.request = req
        future.tob_cast = tob_cast
        return req

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_until_quiescent(self) -> float:
        return self.sim.run_until_quiescent()

    def schedule_invoke(
        self, at: float, pid: int, op: Operation, *, strong: bool = False
    ) -> None:
        self.sim.schedule_at(
            at,
            lambda: self.invoke(pid, op, strong=strong),
            label=f"invoke {pid} {op}",
        )

    def invoke(self, pid: int, op: Operation, *, strong: bool = False):
        raise NotImplementedError

    def mark_horizon(self) -> float:
        """Record the stabilisation horizon for EV/CPar checks."""
        self._horizon = self.sim.now
        return self._horizon

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------
    def _tob_order(self) -> List[Dot]:
        """Subclasses with a total order override this."""
        return []

    def build_history(self, *, well_formed: bool = True) -> History:
        return freeze_history(
            self.ops.futures.values(),
            self.datatype,
            self._tob_order(),
            horizon=self._horizon,
            well_formed=well_formed,
        )
