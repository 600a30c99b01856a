"""A key-value store with ``putIfAbsent``.

The paper's Section 1 names ``putIfAbsent`` as the canonical "relatively
basic operation" whose support requires solving distributed consensus: its
return value (did *I* create the key?) is order-sensitive and cannot be
resolved convergently by timestamps alone. Issued as a *strong* operation it
is the motivating workload for mixing consistency levels; the meeting
scheduler example builds directly on it.

Each key lives in its own register, so the undo log of a transaction only
captures the keys it touched.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.datatypes.base import (
    CrossShardPlan,
    DataType,
    DbView,
    Operation,
    ShardedOp,
    operation,
)
from repro.errors import UnknownOperationError


def _reg(key: Hashable) -> str:
    return f"kv:{key!r}"


#: Sentinel distinguishing "key absent" from "key bound to None".
_ABSENT = None


class KVStore(DataType):
    """A replicated map with conditional updates."""

    @operation
    def put(key: Hashable, value: Any) -> Operation:
        """Bind ``key`` to ``value``; returns the previous value (or None)."""
        return Operation("put", (key, value))

    @operation(readonly=True)
    def get(key: Hashable) -> Operation:
        """Return the value bound to ``key`` (or None)."""
        return Operation("get", (key,))

    @operation(readonly=True)
    def contains(key: Hashable) -> Operation:
        """Return True if ``key`` is bound."""
        return Operation("contains", (key,))

    @operation
    def put_if_absent(key: Hashable, value: Any) -> Operation:
        """Bind ``key`` only if absent; returns True if this call bound it."""
        return Operation("put_if_absent", (key, value))

    @operation
    def remove(key: Hashable) -> Operation:
        """Unbind ``key``; returns the removed value (or None)."""
        return Operation("remove", (key,))

    @operation
    def put_many(*pairs: Tuple[Hashable, Any]) -> Operation:
        """Bind every ``(key, value)`` pair; returns the number written.

        A multi-key write: on a sharded deployment its keys may live on
        different shards, in which case it must be issued strongly and is
        staged as one ``put`` per owner shard (see :meth:`cross_shard_plan`).
        """
        return Operation("put_many", tuple((k, v) for k, v in pairs))

    def execute(self, op: Operation, view: DbView) -> Any:
        if op.name == "put":
            key, value = op.args
            cell = view.read(_reg(key))
            view.write(_reg(key), ("bound", value))
            return cell[1] if cell is not None else None
        if op.name == "get":
            cell = view.read(_reg(op.args[0]))
            return cell[1] if cell is not None else None
        if op.name == "contains":
            return view.read(_reg(op.args[0])) is not None
        if op.name == "put_if_absent":
            key, value = op.args
            if view.read(_reg(key)) is not None:
                return False
            view.write(_reg(key), ("bound", value))
            return True
        if op.name == "remove":
            key = op.args[0]
            cell = view.read(_reg(key))
            view.write(_reg(key), _ABSENT)
            return cell[1] if cell is not None else None
        if op.name == "put_many":
            for key, value in op.args:
                view.write(_reg(key), ("bound", value))
            return len(op.args)
        raise UnknownOperationError(f"KVStore has no operation {op.name!r}")

    # ------------------------------------------------------------------
    # Sharding hooks
    # ------------------------------------------------------------------
    def keys_of(self, op: Operation) -> Tuple[Hashable, ...]:
        if op.name == "put_many":
            return tuple(key for key, _ in op.args)
        return (op.args[0],)

    def registers_of(self, key: Hashable) -> Tuple[Hashable, ...]:
        return (_reg(key),)

    def cross_shard_plan(self, op: Operation) -> Optional[CrossShardPlan]:
        if op.name != "put_many":
            return None
        # Unconditional writes: nothing can fail, so there is no prepare
        # phase — every put commits on its owner shard.
        commits = tuple(
            ShardedOp(key, KVStore.put(key, value)) for key, value in op.args
        )
        count = len(op.args)
        return CrossShardPlan(
            commit=commits, decide=lambda _values: (True, count)
        )
