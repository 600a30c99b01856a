"""A single read/write register.

The simplest data type in the paper: blind writes commute with nothing but
expose no return-value dependence, so — as noted after Theorem 1 — a single
register *can* achieve ``BEC(weak) ∧ Seq(strong)``. The guarantee-matrix
experiment (E7) uses it as the positive control.
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

_VALUE = "register:value"


class Register(DataType):
    """A replicated register with ``read``, ``write`` and ``swap``."""

    @operation(readonly=True)
    def read() -> Operation:
        """Return the current value."""
        return Operation("read")

    @operation
    def write(value: Any) -> Operation:
        """Blindly overwrite the register; returns None (a true blind write)."""
        return Operation("write", (value,))

    @operation
    def swap(value: Any) -> Operation:
        """Overwrite the register and return the *previous* value."""
        return Operation("swap", (value,))

    def execute(self, op: Operation, view: DbView) -> Any:
        if op.name == "read":
            return view.read(_VALUE)
        if op.name == "write":
            view.write(_VALUE, op.args[0])
            return None
        if op.name == "swap":
            old = view.read(_VALUE)
            view.write(_VALUE, op.args[0])
            return old
        raise UnknownOperationError(f"Register has no operation {op.name!r}")
