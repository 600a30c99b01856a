"""Shared plumbing for baseline clusters: staging, history construction.

Baselines mirror the relevant slice of :class:`repro.core.cluster.
BayouCluster`'s API (``invoke``/``schedule_invoke``/``run*``/
``build_history``/``converged``) so experiments can swap systems freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.request import Dot, Req
from repro.datatypes.base import DataType, Operation
from repro.framework.history import PENDING, History, HistoryEvent
from repro.net.faults import MessageFilter
from repro.net.network import FixedLatency, Network
from repro.net.partition import PartitionSchedule
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator


@dataclass
class StagedRecord:
    """Mutable invocation record, frozen into a HistoryEvent at the end."""

    dot: Dot
    session: int
    op: Operation
    level: str
    timestamp: float
    invoke_time: float
    readonly: bool
    tob_cast: bool
    rval: Any = PENDING
    return_time: Optional[float] = None
    perceived: Optional[Tuple[Dot, ...]] = None
    responded: bool = False
    seq: int = 0


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
        self.clocks = [
            DriftingClock(self.sim) for _ in range(n_replicas)
        ]
        self._staged: Dict[Dot, StagedRecord] = {}
        self._invocation_seq = 0
        self._horizon: Optional[float] = None

    # ------------------------------------------------------------------
    # Staging helpers used by subclasses
    # ------------------------------------------------------------------
    def _stage(
        self,
        req: Req,
        level: str,
        *,
        tob_cast: bool,
    ) -> StagedRecord:
        self._invocation_seq += 1
        record = StagedRecord(
            dot=req.dot,
            session=req.dot[0],
            op=req.op,
            level=level,
            timestamp=req.timestamp,
            invoke_time=self.sim.now,
            readonly=self.datatype.is_readonly(req.op),
            tob_cast=tob_cast,
            seq=self._invocation_seq,
        )
        self._staged[req.dot] = record
        return record

    def _record_response(
        self, dot: Dot, response: Any, perceived: Tuple[Dot, ...]
    ) -> None:
        record = self._staged[dot]
        if record.responded:
            return
        record.responded = True
        record.rval = response
        record.return_time = self.sim.now
        record.perceived = perceived

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
        tob_index = {dot: i for i, dot in enumerate(self._tob_order())}
        events = []
        for record in self._staged.values():
            events.append(
                HistoryEvent(
                    eid=record.dot,
                    session=record.session,
                    op=record.op,
                    level=record.level,
                    invoke_time=record.invoke_time,
                    return_time=record.return_time,
                    rval=record.rval if record.responded else PENDING,
                    timestamp=record.timestamp,
                    readonly=record.readonly,
                    tob_cast=record.tob_cast,
                    tob_no=tob_index.get(record.dot),
                    perceived_trace=record.perceived,
                    seq=record.seq,
                )
            )
        return History(
            events, self.datatype, horizon=self._horizon, well_formed=well_formed
        )
