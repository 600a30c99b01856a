"""The unified telemetry plane: causal op tracing + online metrics.

One :class:`Telemetry` object is the whole observability surface of a
deployment — sim or asyncio, single cluster or a sharded one (shards
share a single plane). It bundles:

- a :class:`~repro.obs.tracer.Tracer` collecting per-op
  :class:`~repro.obs.tracer.SpanEvent` records (optionally a bounded
  ring),
- a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  t-digest histograms,
- the *current* :class:`~repro.obs.context.TraceContext`, restored
  around message delivery so spans recorded deep in the protocol attach
  to the right trace,
- exporters (:func:`~repro.obs.export.write_jsonl`, Prometheus-style
  ``render_metrics``, text ``describe``).

Instrumented components hold ``self.telemetry`` (``None`` or a
:class:`Telemetry`) and guard every instrumentation site with
``if self.telemetry:`` — :class:`Telemetry` defines ``__bool__`` as its
``enabled`` flag, so a disabled plane short-circuits exactly like an
absent one. That single-branch fast path is what the ≤5% disabled
overhead benchmark gate measures.

Instrumentation is strictly *append-only*: nothing the plane records
ever feeds back into a protocol decision, and op trace ids derive from
dots (:func:`~repro.obs.context.op_context`), so a seeded sim run is
bit-identical with telemetry on or off.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, Optional, Tuple, Union

from repro.obs.context import TraceContext, op_context, op_trace_id
from repro.obs.export import (
    TraceTree,
    build_trace_trees,
    orphan_spans,
    read_jsonl,
    render_metrics_summary,
    render_timeline,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tdigest import TDigest
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanEvent",
    "TDigest",
    "Telemetry",
    "TraceContext",
    "TraceTree",
    "Tracer",
    "build_trace_trees",
    "op_context",
    "op_trace_id",
    "orphan_spans",
    "read_jsonl",
    "render_metrics_summary",
    "render_timeline",
    "write_jsonl",
]


class Telemetry:
    """One deployment's telemetry plane (tracing + metrics + exporters)."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        trace_capacity: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = Tracer(capacity=trace_capacity)
        self.registry = MetricsRegistry()
        #: The context active during the current delivery, if any.
        self.current: Optional[TraceContext] = None
        #: Client-side trace counter (cross-shard plans have no dot).
        self._trace_counter = 0
        #: A scoped view's op trace-id prefix and instrument labels.
        self._prefix = ""
        self._labels: Dict[str, Any] = {}

    def __bool__(self) -> bool:
        # ``if self.telemetry:`` must behave identically for an absent
        # plane (None) and an attached-but-disabled one.
        return self.enabled

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(
        self,
        time: float,
        process: int,
        name: str,
        context: TraceContext,
        **attrs: Any,
    ) -> SpanEvent:
        """Record one span event under ``context``."""
        return self.tracer.record(
            time,
            process,
            name,
            context.trace_id,
            context.span_id,
            context.parent_id,
            **attrs,
        )

    def op_span(
        self,
        time: float,
        process: int,
        name: str,
        dot: Tuple[int, int],
        span_id: str,
        parent_id: Optional[str],
        **attrs: Any,
    ) -> SpanEvent:
        """Record a span on the dot-derived trace of one operation."""
        return self.tracer.record(
            time, process, name, self.trace_id(dot), span_id, parent_id, **attrs
        )

    def next_trace(self, prefix: str) -> str:
        """Mint a fresh client-side trace id (``prefix`` + counter)."""
        self._trace_counter += 1
        return f"{prefix}{self._trace_counter}"

    def trace_id(self, dot: Tuple[int, int]) -> str:
        """The op trace id for ``dot`` (prefixed in a :meth:`scoped` view)."""
        return self._prefix + op_trace_id(dot)

    def named_trace(self, name: str) -> str:
        """A non-op trace id (maintenance, migration...)."""
        return self._prefix + name

    @contextmanager
    def using(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Make ``context`` current for the duration of a delivery."""
        previous = self.current
        self.current = context
        try:
            yield
        finally:
            self.current = previous

    def scoped(self, name: str) -> "Telemetry":
        """A view of this plane for one named deployment (shard).

        Sharded deployments run several clusters whose replicas share dot
        values (every shard has a replica 0 minting ``(0, 1)``); the view
        shares this plane's tracer and registry, prefixes op trace ids with
        the cluster name (``"S1:d0.3"``) and stamps a ``shard`` label on
        instruments, so one shared plane keeps every shard's story
        separate. Only the unscoped plane tracks ``current`` and mints
        :meth:`next_trace` ids.
        """
        view = copy.copy(self)
        view._prefix = f"{name}:" if name else ""
        view._labels = {"shard": name} if name else {}
        return view

    # ------------------------------------------------------------------
    # Metrics shorthand
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(name, **{**self._labels, **labels})

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump: metric snapshot plus tracer accounting."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": len(self.tracer),
            "spans_dropped": self.tracer.dropped,
            "traces": len(self.tracer.trace_ids()),
        }

    def spans_jsonable(self) -> list:
        """All span events as JSON-able dicts (RPC / artifact payloads)."""
        from repro.obs.export import span_to_jsonable

        return [span_to_jsonable(event) for event in self.tracer]

    def render_metrics(self) -> str:
        """Prometheus text exposition of every instrument."""
        return self.registry.render()

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Dump spans + final metrics snapshot as telemetry JSONL."""
        return write_jsonl(target, self.tracer, self.registry.snapshot())

    def trees(self) -> Dict[str, TraceTree]:
        """Per-trace span trees assembled from the recorded events."""
        return build_trace_trees(self.tracer)

    def describe(self) -> str:
        """A one-paragraph text summary of the plane's contents."""
        trace_ids = self.tracer.trace_ids()
        lines = [
            f"telemetry: {'enabled' if self.enabled else 'disabled'}, "
            f"{len(self.tracer)} spans across {len(trace_ids)} traces"
            + (
                f" ({self.tracer.dropped} dropped)"
                if self.tracer.dropped
                else ""
            )
            + f", {len(self.registry)} instruments"
        ]
        summary = render_metrics_summary(self.registry.snapshot())
        if summary:
            lines.append(summary)
        return "\n".join(lines)
