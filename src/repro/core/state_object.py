"""StateObject — Algorithm 3 of the paper, plus checkpointed restoration.

Encapsulates the replica's copy of the replicated object as a register map
``db`` plus an ``undoLog``. Executing a request records, per register first
written by that request, the *previous* value; rolling the request back
restores those values. Requests must be rolled back in reverse execution
order (the replica's engine guarantees this; the object enforces it).

Invariants (the paper's rollback discussion, Section 2.2 / Algorithm 3):

- **One trace**: the *current trace* of the state is the sequence of
  executed-and-not-rolled-back requests, and :attr:`StateObject.trace` is
  the only list of it anywhere: the replica's ``executed`` and
  ``toBeRolledBack`` are the two sides of its cursor into this list.
  ``trace`` promises callers execution order, one entry per live request
  (``trace_dots`` mirrors it as dots), growth by ``execute`` only and
  shrinkage from the tail only (``rollback`` / ``revert_to``) — so a
  position below the current length names the same request until a revert
  passes it. Callers read it and never write it. Responses are always
  consistent with a sequential execution of the trace (verified by the
  property tests in ``tests/test_properties.py``).
- **Undo log**: beside every trace entry the object holds the pre-image of
  each register that request wrote first. Applying those pre-images in
  reverse execution order (LIFO) restores any earlier prefix of the trace
  exactly — this is what makes Bayou's *tentative* executions revocable.
- **Checkpoints** (this repository's extension, enabled via
  ``checkpoint_interval``): every ``interval`` executions the object stores
  a full copy of ``db`` keyed by the trace position. :meth:`revert_to` then
  restores a prefix of the trace either by unwinding the undo log from the
  tail or by restoring the nearest checkpoint at or before the target
  position and *replaying* the few requests between the checkpoint and the
  target — whichever touches fewer requests. Both strategies produce
  bit-identical ``db`` contents because request execution is deterministic
  (required of every :class:`~repro.datatypes.base.DataType`).
- Register values are treated as **immutable**: data types write whole new
  values instead of mutating stored ones. The undo log and the checkpoints
  both rely on this (they keep shallow references, not deep copies).

A checkpoint at position ``p`` remains valid as long as the first ``p``
live requests are untouched; any rollback below ``p`` discards it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.request import Req
from repro.datatypes.base import (
    EPOCH_BARRIER_OP,
    MIGRATION_INSTALL_OP,
    DataType,
    DbView,
)


class RollbackError(RuntimeError):
    """Raised on out-of-order or unknown rollbacks."""


class _Absent:
    """Sentinel distinguishing 'register never written' from 'holds None'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<absent>"


_ABSENT = _Absent()


class _LostUndo:
    """Sentinel undo entry for requests restored from a recovery checkpoint.

    A recovered prefix has no undo information (the pre-images died with
    the crashed process); it also never needs any, because recovery only
    restores *committed* prefixes and the committed order is final. The
    sentinel makes an (impossible) rollback below the restored prefix fail
    loudly instead of silently corrupting the register map.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undo lost at recovery>"


_LOST_UNDO = _LostUndo()


class _UndoTrackingView(DbView):
    """A DbView that records the pre-image of every first write."""

    def __init__(self, db: Dict[Hashable, Any]) -> None:
        self._db = db
        self.undo_map: Dict[Hashable, Any] = {}

    def read(self, register_id: Hashable) -> Any:
        return self._db.get(register_id)

    def write(self, register_id: Hashable, value: Any) -> None:
        if register_id not in self.undo_map:
            self.undo_map[register_id] = self._db.get(register_id, _ABSENT)
        self._db[register_id] = value


def execute_with_protocol_ops(datatype: DataType, op: Any, view: DbView) -> Any:
    """Execute ``op`` against ``view``, handling shard-migration ops.

    The two migration protocol operations are datatype-agnostic and are
    interpreted here — *below* ``DataType.execute`` — so every data type
    supports live resharding without declaring anything:

    - the **epoch barrier** writes nothing; its committed position marks
      the point in the source shard's total order at which the moving
      keys' snapshot is frozen;
    - the **install** writes the migrated ``(key, register, value)``
      triples through the normal (undo-tracked) view, so rollbacks,
      checkpoints, the write-ahead log and recovery replay all treat the
      installed snapshot like any other request's writes. The key rides
      along so a *later* migration scanning this shard's log still sees
      it as a candidate — even when the install is the key's only write.
    """
    if op.name == EPOCH_BARRIER_OP:
        return op.args
    if op.name == MIGRATION_INSTALL_OP:
        for _key, register, value in op.args[0]:
            view.write(register, value)
        return len(op.args[0])
    return datatype.execute(op, view)


class StateObject:
    """Executable, rollback-able state of a replicated data type.

    Parameters
    ----------
    datatype:
        The replicated data type executed against the register map.
    checkpoint_interval:
        When set (a positive integer), keep a full ``db`` snapshot every
        ``interval`` executions (plus one at position 0, the empty state)
        so :meth:`revert_to` can restore long prefixes in O(checkpoint)
        instead of O(suffix) undo applications. ``None`` (the default)
        disables checkpointing; :meth:`revert_to` then always unwinds the
        undo log, which is exactly the seed per-request behaviour.
    """

    def __init__(
        self, datatype: DataType, *, checkpoint_interval: Optional[int] = None
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval!r}"
            )
        self.datatype = datatype
        self.db: Dict[Hashable, Any] = {}
        #: The live trace: executed-and-not-rolled-back requests in
        #: execution order. Read-only for callers; it shrinks from the tail.
        self.trace: List[Req] = []
        #: ``[r.dot for r in trace]`` and each request's undo map, in step.
        self.trace_dots: List[Any] = []
        self._undo_maps: List[Dict[Hashable, Any]] = []
        self.checkpoint_interval = checkpoint_interval
        #: position (= number of live requests captured) -> db copy,
        #: ascending by position. Position 0 (empty state) is always kept
        #: when checkpointing is on.
        self._checkpoints: List[Tuple[int, Dict[Hashable, Any]]] = []
        if checkpoint_interval is not None:
            self._checkpoints.append((0, {}))
        #: Metrics: how many checkpoint restores / undo unwinds revert_to ran.
        self.checkpoint_restores = 0
        self.undo_unwinds = 0

    # ------------------------------------------------------------------
    # Algorithm 3: execute / rollback
    # ------------------------------------------------------------------
    def execute(self, req: Req, *, checkpoint: bool = True) -> Any:
        """Execute ``req`` against the db, logging undo information.

        ``checkpoint=False`` suppresses checkpoint creation for this
        execution — used by the modified protocol's execute-then-rollback
        response path, where the execution is undone immediately and a
        snapshot would be wasted work.
        """
        view = _UndoTrackingView(self.db)
        response = execute_with_protocol_ops(self.datatype, req.op, view)
        self.trace.append(req)
        self.trace_dots.append(req.dot)
        self._undo_maps.append(view.undo_map)
        if checkpoint:
            self._maybe_checkpoint()
        return response

    def rollback(self, req: Req) -> None:
        """Undo ``req``; it must be the tail of the trace."""
        dots = self.trace_dots
        if not dots or dots[-1] != req.dot:
            if req.dot not in dots:
                raise RollbackError(
                    f"no undo entry for {req.dot!r} ({req!r}); "
                    f"live log holds {len(dots)} request(s)"
                )
            raise RollbackError(
                f"out-of-order rollback of {req.dot!r} at log position "
                f"{dots.index(req.dot)} of {len(dots)}; expected the tail "
                f"request {dots[-1]!r}"
            )
        if self._undo_maps[-1] is _LOST_UNDO:
            raise RollbackError(
                f"rollback of {req.dot!r} below the recovery checkpoint: its "
                "undo information was lost in a crash (only committed "
                "prefixes are restored, and those never roll back)"
            )
        self.trace.pop()
        dots.pop()
        for register_id, previous in self._undo_maps.pop().items():
            if previous is _ABSENT:
                self.db.pop(register_id, None)
            else:
                self.db[register_id] = previous
        self._drop_stale_checkpoints()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def restore(self, prefix: List[Req], db: Dict[Hashable, Any]) -> None:
        """Reset to a recovered state: ``db`` after executing ``prefix``.

        Used by :meth:`BayouReplica` recovery to seed the object from the
        durable checkpoint nearest the committed frontier, so only the log
        suffix needs replaying. The prefix must be *stable* (a committed
        prefix of the final order): its undo information is gone, so any
        later attempt to roll back below it raises :class:`RollbackError`.
        """
        self.db = dict(db)
        self.trace = list(prefix)
        self.trace_dots = [req.dot for req in prefix]
        self._undo_maps = [_LOST_UNDO] * len(prefix)
        self._checkpoints = []
        if self.checkpoint_interval is not None:
            self._checkpoints.append((len(prefix), dict(db)))
        self.checkpoint_restores = 0
        self.undo_unwinds = 0

    # ------------------------------------------------------------------
    # Checkpointed restoration
    # ------------------------------------------------------------------
    def revert_to(self, n_keep: int) -> int:
        """Shrink the trace to its first ``n_keep`` requests; return the
        number of requests reverted.

        Picks the cheaper of two strategies:

        - **undo unwind**: apply the undo log from the tail, touching
          ``len(trace) - n_keep`` requests (the only strategy when
          checkpointing is off — identical to per-request rollbacks);
        - **checkpoint restore**: reset ``db`` to the nearest checkpoint at
          or before ``n_keep`` and re-execute the ``n_keep - position``
          requests between it and the target.

        Either way the resulting ``db``, undo log and trace are identical
        (deterministic execution), so callers may treat the reverted count
        as the number of logical rollbacks performed.
        """
        length = len(self.trace)
        if not 0 <= n_keep <= length:
            raise RollbackError(
                f"cannot revert to position {n_keep} of a {length}-entry log"
            )
        reverted = length - n_keep
        if reverted == 0:
            return 0
        checkpoint = self._nearest_checkpoint(n_keep)
        if checkpoint is not None and (n_keep - checkpoint[0]) < reverted:
            self._restore_checkpoint(checkpoint, n_keep)
            self.checkpoint_restores += 1
        else:
            for req in reversed(self.trace[n_keep:]):
                self.rollback(req)
            self.undo_unwinds += 1
        return reverted

    def _maybe_checkpoint(self) -> None:
        interval = self.checkpoint_interval
        if interval is None:
            return
        position = len(self.trace)
        if position % interval != 0:
            return
        if self._checkpoints and self._checkpoints[-1][0] == position:
            return  # already captured (e.g. during a checkpoint replay)
        self._checkpoints.append((position, dict(self.db)))

    def _nearest_checkpoint(
        self, n_keep: int
    ) -> Optional[Tuple[int, Dict[Hashable, Any]]]:
        """The highest-position checkpoint at or before ``n_keep``."""
        best = None
        for entry in self._checkpoints:
            if entry[0] > n_keep:
                break
            best = entry
        return best

    def _restore_checkpoint(
        self, checkpoint: Tuple[int, Dict[Hashable, Any]], n_keep: int
    ) -> None:
        position, snapshot = checkpoint
        replay = self.trace[position:n_keep]
        del self.trace[position:]
        del self.trace_dots[position:]
        del self._undo_maps[position:]
        self._checkpoints = [c for c in self._checkpoints if c[0] <= position]
        self.db = dict(snapshot)
        for req in replay:
            self.execute(req)

    def _drop_stale_checkpoints(self) -> None:
        if not self._checkpoints:
            return
        length = len(self.trace)
        while self._checkpoints and self._checkpoints[-1][0] > length:
            self._checkpoints.pop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek(self, register_id: Hashable) -> Optional[Any]:
        """Read a register directly (test/diagnostic helper)."""
        return self.db.get(register_id)

    def snapshot(self) -> Dict[Hashable, Any]:
        """A copy of the current register map (for convergence checks)."""
        return dict(self.db)

    @property
    def live_requests(self) -> List[Any]:
        """Dots of executed-and-not-rolled-back requests, in execution order."""
        return list(self.trace_dots)

    @property
    def checkpoint_positions(self) -> List[int]:
        """Trace positions currently holding a checkpoint (diagnostics)."""
        return [position for position, _ in self._checkpoints]
