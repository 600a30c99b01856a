"""Bayou requests.

A request (Algorithm 1, line 1) is ``Req(timestamp, dot, strongOp, op)``.
The *dot* ``(replica, event_no)`` uniquely identifies the request (the
function ``req`` in the paper is a bijection), and requests are totally
ordered lexicographically by ``(timestamp, dot)`` — the speculative
tentative order. The final order is established separately by TOB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.datatypes.base import Operation

#: Unique request identity: (replica id, per-replica event number).
Dot = Tuple[int, int]


@dataclass(frozen=True)
class Req:
    """A client request as disseminated between replicas."""

    timestamp: float
    dot: Dot
    strong: bool
    op: Operation

    @property
    def order_key(self) -> Tuple[float, Dot]:
        """The paper's ``(timestamp, dot)`` lexicographic sort key."""
        return (self.timestamp, self.dot)

    @property
    def origin(self) -> int:
        """The replica on which the request was invoked."""
        return self.dot[0]

    # ``order_key`` comparison without building the tuples: the tentative
    # list is kept sorted with ``bisect``, so these run once per probe.
    def __lt__(self, other: "Req") -> bool:
        if self.timestamp != other.timestamp:
            return self.timestamp < other.timestamp
        return self.dot < other.dot

    def __le__(self, other: "Req") -> bool:
        if self.timestamp != other.timestamp:
            return self.timestamp < other.timestamp
        return self.dot <= other.dot

    def __repr__(self) -> str:
        level = "strong" if self.strong else "weak"
        return f"Req({self.op!r} {level} ts={self.timestamp:.3f} dot={self.dot})"
