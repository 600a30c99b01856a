"""The replicated list from the paper's running example (Figures 1 and 2).

``append`` and ``duplicate`` return the *modified state of the list* rendered
as a string (the paper writes ``append(x) → aax``), and ``duplicate()`` is
"equivalent to atomically executing append(read())".
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.datatypes.base import (
    DataType,
    DbView,
    Operation,
    operation,
)
from repro.errors import UnknownOperationError

_ITEMS = "list:items"


def _render(items: Tuple[Any, ...]) -> str:
    """Render the list the way the paper does: concatenated elements."""
    return "".join(str(item) for item in items)


class RList(DataType):
    """A replicated list of elements with paper-style string responses."""

    @operation
    def append(element: Any) -> Operation:
        """Append ``element``; returns the modified list as a string."""
        return Operation("append", (element,))

    @operation
    def duplicate() -> Operation:
        """Append a copy of the list to itself; returns the modified list."""
        return Operation("duplicate")

    @operation(readonly=True)
    def read() -> Operation:
        """Return the list as a string."""
        return Operation("read")

    @operation(readonly=True)
    def get_first() -> Operation:
        """Return the first element, or None if empty."""
        return Operation("get_first")

    @operation(readonly=True)
    def size() -> Operation:
        """Return the number of elements."""
        return Operation("size")

    @operation
    def remove_last() -> Operation:
        """Remove and return the last element (None if empty)."""
        return Operation("remove_last")

    def execute(self, op: Operation, view: DbView) -> Any:
        items: Tuple[Any, ...] = view.read(_ITEMS) or ()
        if op.name == "append":
            items = items + (op.args[0],)
            view.write(_ITEMS, items)
            return _render(items)
        if op.name == "duplicate":
            items = items + items
            view.write(_ITEMS, items)
            return _render(items)
        if op.name == "read":
            return _render(items)
        if op.name == "get_first":
            return items[0] if items else None
        if op.name == "size":
            return len(items)
        if op.name == "remove_last":
            if not items:
                return None
            view.write(_ITEMS, items[:-1])
            return items[-1]
        raise UnknownOperationError(f"RList has no operation {op.name!r}")
