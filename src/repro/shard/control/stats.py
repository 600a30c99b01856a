"""The metrics plane: what the placement controller observes.

A :class:`ShardStats` sink is attached to a
:class:`~repro.shard.router.ShardRouter`
(:meth:`~repro.shard.router.ShardRouter.attach_stats`); from then on the
router and its :class:`~repro.shard.router.ShardedSession` clients export
three signals as traffic flows:

- **routed ops** — every shard-local submission increments its owner
  shard's counter and offers the operation's keys to a
  :class:`~repro.shard.control.topk.SpaceSavingSketch`, so per-shard
  load *and* the identity of the hot keys are both online;
- **deferred ops** — submissions parked by an in-flight migration
  (the ``MigrationInProgress`` retry path), the controller's own cost
  signal: aggressive rebalancing shows up here first;
- **weak-op staleness** — ``stable_time − response_time`` samples from
  session clients, the freshness price clients pay while placement is
  in flux.

Counts live in a :class:`~repro.obs.metrics.MetricsRegistry` — the
stats plane *reads* instruments rather than owning ad-hoc counters, so
when a deployment's telemetry plane is armed the controller and the
observability exporters see the very same numbers (pass the plane's
registry in; a private one is created otherwise). :meth:`roll` closes
the live window by diffing cumulative counter values against the
snapshot taken at the previous roll, appends the delta to a ring buffer
of :class:`StatsWindow` snapshots (bounded memory — the streaming-first
discipline the ROADMAP demands) and starts a fresh one.
The controller rolls once per control tick, then reads
:meth:`recent_loads` over the last few closed windows, so decisions see
recent traffic, not the whole run's history. Everything here is plain
counting on the routing path — no simulator events, no timers — and the
``on_activity`` hook is how a dormant controller learns that traffic
resumed without polling an idle deployment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.obs.metrics import MetricsRegistry
from repro.shard.control.topk import SpaceSavingSketch

#: Keys the hot-key sketch tracks.
TOPK_CAPACITY = 32


@dataclass
class StatsWindow:
    """One closed observation interval of the metrics plane."""

    index: int
    start: float
    end: float
    #: Shard-local operations routed per shard during the window.
    routed: Tuple[int, ...]
    #: Submissions deferred by in-flight migrations during the window.
    deferred: int
    #: Weak-op staleness samples folded online: (count, sum, max).
    staleness_count: int
    staleness_sum: float
    staleness_max: float

    @property
    def total(self) -> int:
        return sum(self.routed)

    @property
    def mean_staleness(self) -> float:
        if self.staleness_count == 0:
            return 0.0
        return self.staleness_sum / self.staleness_count


class ShardStats:
    """Ring-buffered per-shard load counters plus a hot-key sketch."""

    def __init__(
        self,
        n_shards: int,
        *,
        window_limit: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.sketch = SpaceSavingSketch(TOPK_CAPACITY)
        #: Where the counts live. Sharing the deployment telemetry
        #: plane's registry means the controller decides from the same
        #: instruments the exporters render.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Closed windows, oldest first, bounded by ``window_limit``.
        self.windows: Deque[StatsWindow] = deque(maxlen=window_limit)
        #: Called on every recorded routed op — the controller's wake-up.
        self.on_activity: Optional[Callable[[], None]] = None
        self._window_index = 0
        self._window_start = 0.0
        self._c_routed: List[Any] = [
            self.registry.counter("repro_ops_routed", shard=f"S{i}")
            for i in range(n_shards)
        ]
        self._c_deferred = self.registry.counter("repro_routes_deferred")
        self._c_staleness_n = self.registry.counter(
            "repro_session_staleness_samples"
        )
        self._c_staleness_sum = self.registry.counter(
            "repro_session_staleness_sum"
        )
        # Cumulative values at the last roll; windows are deltas against
        # this mark, so a shared registry that already holds pre-attach
        # traffic starts the first window from here, not from zero.
        self._mark = self._cumulative()
        self._live_staleness_max = 0.0

    @property
    def n_shards(self) -> int:
        return len(self._c_routed)

    @property
    def total_routed(self) -> List[float]:
        """Lifetime routed ops per shard (cumulative counter values)."""
        return [counter.value for counter in self._c_routed]

    @property
    def total_deferred(self) -> float:
        return self._c_deferred.value

    @property
    def total_staleness_samples(self) -> float:
        return self._c_staleness_n.value

    def ensure_shards(self, n_shards: int) -> None:
        """Grow the per-shard counters after a split spawned a shard."""
        while len(self._c_routed) < n_shards:
            index = len(self._c_routed)
            self._c_routed.append(
                self.registry.counter("repro_ops_routed", shard=f"S{index}")
            )

    def _cumulative(self) -> Tuple[Tuple[float, ...], float, float, float]:
        return (
            tuple(counter.value for counter in self._c_routed),
            self._c_deferred.value,
            self._c_staleness_n.value,
            self._c_staleness_sum.value,
        )

    # ------------------------------------------------------------------
    # Recording (the routing-path exports)
    # ------------------------------------------------------------------
    def record_op(self, shard: int, keys: Iterable[Hashable]) -> None:
        """One shard-local operation routed to ``shard`` touching ``keys``."""
        self.ensure_shards(shard + 1)
        self._c_routed[shard].inc()
        for key in keys:
            self.sketch.offer(key)
        if self.on_activity is not None:
            self.on_activity()

    def record_deferred(self) -> None:
        """One submission parked by an in-flight migration."""
        self._c_deferred.inc()

    def record_staleness(self, value: float) -> None:
        """One weak-op staleness sample (stable − response time)."""
        self._c_staleness_n.inc()
        self._c_staleness_sum.inc(value)
        if value > self._live_staleness_max:
            self._live_staleness_max = value

    # ------------------------------------------------------------------
    # Windowing (the controller's read surface)
    # ------------------------------------------------------------------
    def roll(self, now: float) -> StatsWindow:
        """Close the live window into the ring and start a fresh one.

        The window is the *delta* between the registry's cumulative
        counters now and at the previous roll; only the staleness max —
        which no monotone counter can carry — lives outside the
        registry and is reset here.
        """
        routed, deferred, samples, total = self._cumulative()
        mark_routed, mark_deferred, mark_samples, mark_total = self._mark
        window = StatsWindow(
            index=self._window_index,
            start=self._window_start,
            end=now,
            routed=tuple(
                int(value - (mark_routed[i] if i < len(mark_routed) else 0.0))
                for i, value in enumerate(routed)
            ),
            deferred=int(deferred - mark_deferred),
            staleness_count=int(samples - mark_samples),
            staleness_sum=total - mark_total,
            staleness_max=self._live_staleness_max,
        )
        self.windows.append(window)
        self._window_index += 1
        self._window_start = now
        self._mark = (routed, deferred, samples, total)
        self._live_staleness_max = 0.0
        return window

    def recent_loads(self, lookback: int = 3) -> List[float]:
        """Per-shard routed-op sums over the last ``lookback`` closed windows.

        Shards spawned mid-run appear with the zeros they earned: a
        window closed before the spawn simply has no column for them.
        """
        loads = [0.0] * self.n_shards
        for window in list(self.windows)[-lookback:]:
            for shard, routed in enumerate(window.routed):
                loads[shard] += routed
        return loads

    def hot_keys(self, n: int = 8) -> List[Tuple[Hashable, float]]:
        """The sketch's ``n`` heaviest keys as ``(key, estimated_count)``."""
        return [(key, count) for key, count, _error in self.sketch.top(n)]

    def describe(self) -> dict:
        """A JSON-able summary for reports and experiment artifacts."""
        return {
            "total_routed": list(self.total_routed),
            "total_deferred": self.total_deferred,
            "windows": len(self.windows),
            "hot_keys": [
                [repr(key), round(count, 2)] for key, count in self.hot_keys(5)
            ],
        }
