"""Fault injection: crash plans and message filters.

The paper's model is crash-stop ("replicas may crash silently and cease all
communication"). A :class:`CrashPlan` is one planned crash (and optional
recovery); :class:`CrashSchedule` arms a list of them. :class:`MessageFilter`
supports targeted message drops/delays used by tests to force specific
adversarial schedules (e.g. the Theorem 1 execution, where one replica must
never learn about a particular operation); a :class:`MessageRule` declares
one such drop or delay as a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: A filter rule takes (sender, receiver, payload, time) and returns either
#: ``None`` to let the network's normal behaviour apply, ``"drop"`` to drop
#: the message permanently, or a float extra delay in time units.
FilterRule = Callable[[int, int, Any, float], Optional[Any]]


def mentions_dot(value: Any, dot: Any) -> bool:
    """Recursively search a payload structure for a request dot."""
    if value == dot:
        return True
    if isinstance(value, (tuple, list)):
        return any(mentions_dot(item, dot) for item in value)
    if hasattr(value, "dot"):
        return value.dot == dot
    if isinstance(value, dict):  # pragma: no cover - payloads are tuples today
        return any(mentions_dot(item, dot) for item in value.values())
    return False


@dataclass(frozen=True)
class MessageRule:
    """One declared drop or delay: a filter rule that is a value.

    Every field that is set must match: ``sender`` and ``receiver`` the
    link's ends, ``tag`` the component the message travels under (its
    payload's first element, e.g. a TOB engine's ``"seqtob"``), ``dot`` a
    request the payload mentions anywhere (:func:`mentions_dot`). A
    matching message is dropped (``drop=True``) or delayed by ``extra``.
    Examples: ``MessageRule(sender=0, extra=5.0)`` holds back everything
    replica 0 sends; ``MessageRule(sender=1, receiver=2, drop=True)`` cuts
    one direction of a link.
    """

    sender: Optional[int] = None
    receiver: Optional[int] = None
    tag: Optional[str] = None
    dot: Any = None
    extra: Optional[float] = None
    drop: bool = False

    def __post_init__(self) -> None:
        if self.drop == (self.extra is not None):
            raise ValueError("a MessageRule takes exactly one of extra= and drop=True")

    def __call__(
        self, sender: int, receiver: int, payload: Any, _time: float
    ) -> Optional[Any]:
        if (self.sender is not None and sender != self.sender) or (
            self.receiver is not None and receiver != self.receiver
        ):
            return None
        if self.tag is not None and not (
            isinstance(payload, tuple) and payload and payload[0] == self.tag
        ):
            return None
        if self.dot is not None and not mentions_dot(payload, self.dot):
            return None
        return MessageFilter.DROP if self.drop else self.extra


@dataclass(frozen=True)
class CrashPlan:
    """One planned crash (and optional recovery), checked when made.

    ``mode`` is the :meth:`Process.crash` mode: ``"stop"`` for the paper's
    permanent silent crash, ``"recover"`` for a crash–recovery fault. It
    defaults to ``"recover"`` exactly when a ``recover_at`` is given.
    """

    pid: int
    crash_at: float
    recover_at: Optional[float] = None
    mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ValueError(f"no replica {self.pid}")
        if self.mode not in (None, "stop", "recover"):
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if self.recover_at is not None and self.recover_at <= self.crash_at:
            raise ValueError("recovery must come after the crash")
        if self.mode == "stop" and self.recover_at is not None:
            raise ValueError("a crash-stop plan cannot have a recovery time")

    @property
    def effective_mode(self) -> str:
        if self.mode is not None:
            return self.mode
        return "recover" if self.recover_at is not None else "stop"

    def arm(self, sim: Simulator, process: Process) -> None:
        """Schedule the crash (and recovery) of ``process`` on ``sim``."""
        mode = self.effective_mode
        sim.schedule_at(
            self.crash_at, lambda: process.crash(mode), label=f"crash p{self.pid}"
        )
        if self.recover_at is not None:
            sim.schedule_at(
                self.recover_at, process.recover, label=f"recover p{self.pid}"
            )


class CrashSchedule:
    """Arms crash/recovery timers against a set of processes."""

    def __init__(self) -> None:
        self.plans: List[CrashPlan] = []

    def add(
        self,
        pid: int,
        crash_at: float,
        recover_at: Optional[float] = None,
        *,
        mode: Optional[str] = None,
    ) -> None:
        """Plan a crash of ``pid`` at ``crash_at`` (and recovery, if given)."""
        self.plans.append(CrashPlan(pid, crash_at, recover_at, mode))

    def arm(self, sim: Simulator, processes: Dict[int, Process]) -> None:
        """Schedule the crash/recovery callbacks on the simulator."""
        for plan in self.plans:
            plan.arm(sim, processes[plan.pid])


class MessageFilter:
    """A composable stack of message filters.

    All filters are consulted for every message: a ``DROP`` from any rule
    drops the message; otherwise numeric delays from all matching rules
    *accumulate*. This is how tests realise the precise adversarial message
    schedules that the paper's proofs construct (e.g. "TOB is globally slow
    *and* this particular request's proposal is additionally held back").
    """

    DROP = "drop"

    def __init__(self) -> None:
        #: The registered filters, in order. While it is empty the network
        #: skips the verdict altogether.
        self.rules: List[FilterRule] = []

    def add(self, filter_fn: FilterRule) -> None:
        """Register a filter."""
        self.rules.append(filter_fn)

    def verdict(self, sender: int, receiver: int, payload: Any, time: float) -> Optional[Any]:
        """DROP if any rule drops; otherwise the summed extra delay (or None)."""
        total_delay: Optional[float] = None
        for filter_fn in self.rules:
            result = filter_fn(sender, receiver, payload, time)
            if result is None:
                continue
            if result == MessageFilter.DROP:
                return MessageFilter.DROP
            total_delay = (total_delay or 0.0) + float(result)
        return total_delay
