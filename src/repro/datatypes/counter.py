"""A replicated counter.

``increment``/``decrement`` return the post-operation value, which makes
them *observe* prior operations (unlike a blind register write); two
increments commute in state but not in return value, a useful middle ground
for the reordering experiments.
"""

from __future__ import annotations

from typing import Any

from repro.datatypes.base import (
    DataType,
    DbView,
    Operation,
    operation,
)
from repro.errors import UnknownOperationError

_VALUE = "counter:value"


class Counter(DataType):
    """A replicated integer counter."""

    @operation(readonly=True)
    def read() -> Operation:
        """Return the current count."""
        return Operation("read")

    @operation
    def increment(amount: int = 1) -> Operation:
        """Add ``amount``; returns the new count."""
        return Operation("increment", (amount,))

    @operation
    def decrement(amount: int = 1) -> Operation:
        """Subtract ``amount``; returns the new count."""
        return Operation("decrement", (amount,))

    @operation
    def add_if_even(amount: int = 1) -> Operation:
        """Add ``amount`` only if the current count is even; returns the count.

        A deliberately order-sensitive conditional update used by tests:
        it does not commute with increments in either state or return value.
        """
        return Operation("add_if_even", (amount,))

    def execute(self, op: Operation, view: DbView) -> Any:
        current = view.read(_VALUE) or 0
        if op.name == "read":
            return current
        if op.name == "increment":
            view.write(_VALUE, current + op.args[0])
            return current + op.args[0]
        if op.name == "decrement":
            view.write(_VALUE, current - op.args[0])
            return current - op.args[0]
        if op.name == "add_if_even":
            if current % 2 == 0:
                view.write(_VALUE, current + op.args[0])
                return current + op.args[0]
            return current
        raise UnknownOperationError(f"Counter has no operation {op.name!r}")
