"""A replicated set.

Sequentially specified (the arbitration order linearises adds and removes;
the paper's framework resolves what OR-set semantics would resolve with
concurrency-aware specs). ``add`` returns whether the element was newly
inserted — order-sensitive, like ``putIfAbsent``.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.datatypes.base import (
    DataType,
    DbView,
    Operation,
    operation,
)
from repro.errors import UnknownOperationError

_MEMBERS = "set:members"


class SetType(DataType):
    """A replicated set of hashable elements."""

    @operation
    def add(element: Hashable) -> Operation:
        """Insert ``element``; returns True if it was not already present."""
        return Operation("add", (element,))

    @operation
    def remove(element: Hashable) -> Operation:
        """Remove ``element``; returns True if it was present."""
        return Operation("remove", (element,))

    @operation(readonly=True)
    def contains(element: Hashable) -> Operation:
        """Return membership of ``element``."""
        return Operation("contains", (element,))

    @operation(readonly=True)
    def elements() -> Operation:
        """Return the sorted tuple of elements."""
        return Operation("elements")

    @operation(readonly=True)
    def size() -> Operation:
        """Return the cardinality."""
        return Operation("size")

    def execute(self, op: Operation, view: DbView) -> Any:
        members: frozenset = view.read(_MEMBERS) or frozenset()
        if op.name == "add":
            element = op.args[0]
            if element in members:
                return False
            view.write(_MEMBERS, members | {element})
            return True
        if op.name == "remove":
            element = op.args[0]
            if element not in members:
                return False
            view.write(_MEMBERS, members - {element})
            return True
        if op.name == "contains":
            return op.args[0] in members
        if op.name == "elements":
            return tuple(sorted(members, key=repr))
        if op.name == "size":
            return len(members)
        raise UnknownOperationError(f"SetType has no operation {op.name!r}")
