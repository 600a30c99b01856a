"""Fault injection: crash schedules and message filters.

The paper's model is crash-stop ("replicas may crash silently and cease all
communication"). :class:`CrashSchedule` arms crashes at given times.
:class:`MessageFilter` supports targeted message drops/delays used by tests
to force specific adversarial schedules (e.g. the Theorem 1 execution, where
one replica must never learn about a particular operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: A filter rule: (src, dst, payload, time) -> extra delay (None = no-op).
FilterRule = Callable[[int, int, Any, float], Optional[float]]


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


def tob_delay_rule(extra: float, *, tag: str = "seqtob") -> FilterRule:
    """A rule adding ``extra`` latency to every TOB-engine message.

    The paper's Figure 1/2 schedules rely on the final order being
    established well after the speculative executions; consensus being
    slower than gossip is also the realistic regime.
    """

    def rule(_src: int, _dst: int, payload: Any, _time: float) -> Optional[float]:
        if isinstance(payload, tuple) and payload and payload[0] == tag:
            return extra
        return None

    return rule


def delay_tob_for_dot_rule(
    dot: Any, *, receiver: int, extra: float, tag: str = "seqtob"
) -> FilterRule:
    """A rule delaying only TOB-engine messages about ``dot`` into ``receiver``.

    Used to steer the final order: e.g. hold a request's proposal back from
    the sequencer so later requests commit first.
    """

    def rule(_src: int, dst: int, payload: Any, _time: float) -> Optional[float]:
        if (
            dst == receiver
            and isinstance(payload, tuple)
            and payload
            and payload[0] == tag
            and mentions_dot(payload, dot)
        ):
            return extra
        return None

    return rule


def quarantine_dot_rule(dot: Any, *, receiver: int, extra: float) -> FilterRule:
    """A rule delaying every message carrying ``dot`` into ``receiver``.

    Models the Theorem-1 adversary: a replica must not learn about an event
    (by any route — RB, relay, or TOB delivery) until late.
    """

    def rule(_src: int, dst: int, payload: Any, _time: float) -> Optional[float]:
        if dst == receiver and mentions_dot(payload, dot):
            return extra
        return None

    return rule


@dataclass
class CrashPlan:
    """One planned crash (and optional recovery).

    ``mode`` is the :meth:`Process.crash` mode: ``"stop"`` for the paper's
    permanent silent crash, ``"recover"`` for a crash–recovery fault. It
    defaults to ``"recover"`` exactly when a ``recover_at`` is given.
    """

    pid: int
    crash_at: float
    recover_at: Optional[float] = None
    mode: Optional[str] = None

    @property
    def effective_mode(self) -> str:
        if self.mode is not None:
            return self.mode
        return "recover" if self.recover_at is not None else "stop"


class CrashSchedule:
    """Arms crash/recovery timers against a set of processes."""

    def __init__(self, plans: Sequence[CrashPlan] = ()) -> None:
        self.plans: List[CrashPlan] = list(plans)

    def add(
        self,
        pid: int,
        crash_at: float,
        recover_at: Optional[float] = None,
        *,
        mode: Optional[str] = None,
    ) -> None:
        """Plan a crash of ``pid`` at ``crash_at`` (and recovery, if given)."""
        if mode not in (None, "stop", "recover"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if recover_at is not None and recover_at <= crash_at:
            raise ValueError("recovery must come after the crash")
        if mode == "stop" and recover_at is not None:
            raise ValueError("a crash-stop plan cannot have a recovery time")
        self.plans.append(CrashPlan(pid, crash_at, recover_at, mode))

    def arm(self, sim: Simulator, processes: Dict[int, Process]) -> None:
        """Schedule the crash/recovery callbacks on the simulator."""
        for plan in self.plans:
            process = processes[plan.pid]
            sim.schedule_at(
                plan.crash_at,
                lambda p=process, m=plan.effective_mode: p.crash(m),
                label=f"crash p{plan.pid}",
            )
            if plan.recover_at is not None:
                sim.schedule_at(
                    plan.recover_at, process.recover, label=f"recover p{plan.pid}"
                )


#: A filter takes (sender, receiver, payload, time) and returns either
#: ``None`` to let the network's normal behaviour apply, ``"drop"`` to drop
#: the message permanently, or a float extra delay in time units.
FilterFn = Callable[[int, int, Any, float], Optional[Any]]


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
        self.rules: List[FilterFn] = []

    def add(self, filter_fn: FilterFn) -> None:
        """Register a filter."""
        self.rules.append(filter_fn)

    def drop_between(self, sender: int, receiver: int) -> None:
        """Permanently drop every message from ``sender`` to ``receiver``."""

        def rule(src: int, dst: int, _payload: Any, _t: float) -> Optional[Any]:
            if src == sender and dst == receiver:
                return MessageFilter.DROP
            return None

        self.add(rule)

    def delay_between(self, sender: int, receiver: int, extra: float) -> None:
        """Add ``extra`` latency to every message from ``sender`` to ``receiver``."""

        def rule(src: int, dst: int, _payload: Any, _t: float) -> Optional[Any]:
            if src == sender and dst == receiver:
                return extra
            return None

        self.add(rule)

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
