"""The original Bayou's dependency checks and merge procedures, emulated.

The 1995 Bayou system attached to every write a *dependency check* (a query
that must hold for the write to apply) and a *merge procedure* (application
logic to resolve the conflict otherwise). The PODC'19 paper abstracts these
away, noting they "can be emulated on the level of operation specification"
(Section 2.1). This data type performs that emulation for Bayou's flagship
application, the meeting-room scheduler:

- ``reserve(user, alternatives)`` carries its dependency check (is the
  preferred slot free?) and its merge procedure (fall through the
  alternative slots in preference order) inside one deterministic
  transaction;
- because the whole conflict resolution is *inside* the operation, it is
  re-evaluated automatically on every speculative rollback/re-execution —
  a tentative reservation may silently migrate to an alternative slot when
  the final order differs from the tentative one, which is precisely the
  user experience the original Bayou paper describes.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.datatypes.base import (
    DataType,
    DbView,
    Operation,
    operation,
)
from repro.errors import UnknownOperationError


def _slot_reg(slot: str) -> str:
    return f"sched:slot:{slot}"


class MeetingScheduler(DataType):
    """Room reservations with per-operation dependency check + merge."""

    @operation
    def reserve(user: str, alternatives: Tuple[str, ...]) -> Operation:
        """Reserve the first free slot among ``alternatives``.

        Returns the granted slot, or None when every alternative is taken
        (the merge procedure's give-up case).
        """
        return Operation("reserve", (user, tuple(alternatives)))

    @operation
    def cancel(user: str, slot: str) -> Operation:
        """Free ``slot`` if (and only if) ``user`` holds it; returns bool."""
        return Operation("cancel", (user, slot))

    @operation(readonly=True)
    def who(slot: str) -> Operation:
        """Return the holder of ``slot`` (or None)."""
        return Operation("who", (slot,))

    @operation(readonly=True)
    def schedule(*slots: str) -> Operation:
        """Return a tuple of (slot, holder) pairs for the given slots."""
        return Operation("schedule", (tuple(slots),))

    def execute(self, op: Operation, view: DbView) -> Any:
        if op.name == "reserve":
            user, alternatives = op.args
            for slot in alternatives:
                # Dependency check: the slot must be free.
                if view.read(_slot_reg(slot)) is None:
                    # Merge procedure outcome: take this alternative.
                    view.write(_slot_reg(slot), user)
                    return slot
            return None
        if op.name == "cancel":
            user, slot = op.args
            if view.read(_slot_reg(slot)) == user:
                view.write(_slot_reg(slot), None)
                return True
            return False
        if op.name == "who":
            return view.read(_slot_reg(op.args[0]))
        if op.name == "schedule":
            (slots,) = op.args
            return tuple((slot, view.read(_slot_reg(slot))) for slot in slots)
        raise UnknownOperationError(
            f"MeetingScheduler has no operation {op.name!r}"
        )
