"""The systems the paper places Bayou among (Sections 1, 2.2 and 6).

Each one is Algorithm 2's replica with one operation level taken away and
its weak updates sent through one channel, chosen by
``Scenario(...).protocol("smr" | "ec" | "gsp")``:

- :class:`SMRReplica` — state machine replication: every operation is
  strong, TOB-cast only and answered at its committed execution, so a
  minority partition answers nothing.
- :class:`ECReplica` — a Dynamo/Cassandra-style eventually consistent
  store: weak blind writes and reads only, RB-cast only. Nothing commits,
  so the tentative order, ``(timestamp, dot)``, is last-writer-wins, and
  each response is final when given (Section 2.2: no temporary
  reordering, limited semantics).
- :class:`GSPReplica` — the Global Sequence Protocol (Burckhardt et al.,
  ECOOP 2015): weak operations only, TOB-cast only. Each client sees the
  committed prefix plus its own pending updates; the TOB engine is the
  cloud (for the sequencer engine, on ``sequencer_pid``). While the cloud
  is unreachable, clients do not observe each other, which is why
  Theorem 1 does not apply to it.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.request import Req
from repro.datatypes.base import Operation, PlainDb
from repro.errors import UnsupportedOperationError


class SMRReplica(ModifiedBayouReplica):
    """State machine replication: strong operations only."""

    def invoke(self, op: Operation, strong: bool = False) -> Req:
        if not strong:
            raise UnsupportedOperationError(
                "state machine replication has no weak operations"
            )
        return super().invoke(op, strong)


class _ReadRecordingDb(PlainDb):
    """A scratch register map that remembers whether anything was read."""

    read_any = False

    def read(self, register_id: Hashable) -> Any:
        self.read_any = True
        return super().read(register_id)


class ECReplica(ModifiedBayouReplica):
    """An eventually consistent store: weak blind writes and reads only."""

    def invoke(self, op: Operation, strong: bool = False) -> Req:
        if strong:
            raise UnsupportedOperationError(
                "an eventually consistent store has no strong operations"
            )
        scratch = _ReadRecordingDb()
        self.datatype.execute(op, scratch)
        if scratch.read_any and not self.datatype.is_readonly(op):
            raise UnsupportedOperationError(
                f"{op!r} reads and writes; an eventually consistent store "
                "supports only blind writes and reads"
            )
        return super().invoke(op, strong)

    def _cast_update(self, req: Req) -> None:
        self.rb.rb_cast(req.dot, req)

    def tob_casts(self, req: Req) -> bool:
        return False


class GSPReplica(ModifiedBayouReplica):
    """The Global Sequence Protocol: weak operations, ordered by the cloud."""

    def invoke(self, op: Operation, strong: bool = False) -> Req:
        if strong:
            raise UnsupportedOperationError(
                "GSP has no strong operations: its prefix is totally "
                "ordered, but clients never wait for it"
            )
        return super().invoke(op, strong)

    def _cast_update(self, req: Req) -> None:
        self.tob.tob_cast(req.dot, req)
