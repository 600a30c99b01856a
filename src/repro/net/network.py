"""The simulated network — the sim backend's delivery engine.

Point-to-point, FIFO-per-link message passing with pluggable latency models,
partition awareness and fault filters. Protocol code never talks to this
class directly any more: it sees only the
:class:`~repro.runtime.base.Runtime` seam, and
:class:`~repro.runtime.sim.SimRuntime` routes ``send``/``broadcast`` here.
Harness code (clusters, scenario builders, fault schedules) still owns the
network object for its counters, partitions and filters.

Partition semantics follow the paper's model of *temporary* partitions: a
message whose link is cut at delivery time is buffered and re-attempted when
the partition schedule next changes, so no message between correct processes
is ever lost — it is only (possibly unboundedly) delayed. In a run whose
partition never heals (the paper's *asynchronous runs*) buffered messages
simply stay buffered, and the simulation can still quiesce.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.faults import MessageFilter
from repro.net.partition import PartitionSchedule
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import SeededRngRegistry


class LatencyModel:
    """Base class for per-message latency models."""

    def sample(self, sender: int, receiver: int) -> float:
        """Return the one-way latency for a message on this link."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, sender: int, receiver: int) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` per message."""

    def __init__(
        self,
        low: float,
        high: float,
        rngs: Optional[SeededRngRegistry] = None,
        *,
        stream: str = "net.latency",
    ) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high
        self._rng = (rngs or SeededRngRegistry(0)).stream(stream)

    def sample(self, sender: int, receiver: int) -> float:
        # ``random.uniform``'s own arithmetic, one call shallower.
        return self.low + (self.high - self.low) * self._rng.random()


class Network:
    """A partitionable FIFO network connecting :class:`Process` instances.

    FIFO per link is enforced by making scheduled delivery times strictly
    increasing on each (sender, receiver) pair, which the paper's TOB
    requirements (FIFO order per sender) rely on.
    """

    #: Minimal spacing between two deliveries on the same link.
    FIFO_EPSILON = 1e-9

    def __init__(
        self,
        sim: Simulator,
        n_processes: int,
        *,
        latency: Optional[LatencyModel] = None,
        partitions: Optional[PartitionSchedule] = None,
        filters: Optional[MessageFilter] = None,
    ) -> None:
        self.sim = sim
        self.n_processes = n_processes
        self.latency = latency or FixedLatency(1.0)
        self.partitions = partitions or PartitionSchedule(n_processes)
        self.filters = filters or MessageFilter()
        self._processes: Dict[int, Process] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        #: ``(sender, receiver, payload)`` of messages whose partition never
        #: (yet) heals, awaiting reschedule.
        self._held: List[Tuple[int, int, Any]] = []
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        #: Messages that reached a crashed receiver and were silently lost.
        #: Kept out of ``delivered_count`` so dissemination benchmarks count
        #: only messages a process actually consumed.
        self.suppressed_count = 0

    def register(self, process: Process) -> None:
        """Attach a process; its ``pid`` must be in ``range(n_processes)``."""
        if not (0 <= process.pid < self.n_processes):
            raise ValueError(f"pid {process.pid} out of range")
        self._processes[process.pid] = process

    def send(self, sender: int, receiver: int, payload: Any) -> None:
        """Send ``payload`` (a filter may drop it).

        Self-messages (loopback) go through the same latency, filter and
        FIFO machinery as any other link: protocol components (e.g. the TOB
        sequencer ordering its own proposal) should not get a free
        zero-latency path that no real deployment has.
        """
        sim = self.sim
        now = sim.now
        extra_delay = 0.0
        # The verdict comes before the latency sample: a dropped message
        # draws nothing from the latency stream.
        if self.filters.rules:
            verdict = self.filters.verdict(sender, receiver, payload, now)
            if verdict == MessageFilter.DROP:
                self.dropped_count += 1
                return
            if verdict is not None:
                extra_delay = float(verdict)

        self.sent_count += 1
        key = (sender, receiver)
        target = now + (self.latency.sample(sender, receiver) + extra_delay)
        last = self._last_delivery.get(key)
        if last is not None and target < last + self.FIFO_EPSILON:
            target = last + self.FIFO_EPSILON
        self._last_delivery[key] = target
        sim.schedule(
            target - now, self._attempt_delivery, sender, receiver, payload,
            label="net",
        )

    def broadcast(self, sender: int, payload: Any, *, include_self: bool = False) -> None:
        """Send ``payload`` to every process (optionally including the sender)."""
        for pid in range(self.n_processes):
            if pid == sender and not include_self:
                continue
            self.send(sender, pid, payload)

    def _attempt_delivery(self, sender: int, receiver: int, payload: Any) -> None:
        """Deliver ``payload`` if connectivity allows; otherwise buffer it."""
        now = self.sim.now
        if not self.partitions.connected(sender, receiver, now):
            retry_at = self.partitions.next_change_after(now)
            if retry_at == float("inf"):
                self._held.append((sender, receiver, payload))
            else:
                self.sim.schedule_at(
                    retry_at, self._attempt_delivery, sender, receiver, payload,
                    label="net retry",
                )
            return
        process = self._processes.get(receiver)
        if process is None:
            return
        if process.crashed:
            # A crashed receiver silently drops the message (the paper's
            # "cease all communication"); it was never delivered, so it
            # must not count as one.
            self.suppressed_count += 1
            return
        self.delivered_count += 1
        # ``Process.deliver`` minus its crash check, which was made above.
        process.on_message(sender, payload)

    def reschedule_held(self) -> None:
        """Re-attempt delivery of messages held during a never-ending partition.

        Experiments that mutate the partition schedule mid-run (e.g. healing a
        partition that was previously permanent) must call this afterwards.
        """
        held, self._held = self._held, []
        for message in held:
            self.sim.schedule(
                0.0, self._attempt_delivery, *message, label="net reattempt"
            )

    @property
    def held_count(self) -> int:
        """Number of messages currently buffered behind a permanent partition."""
        return len(self._held)
