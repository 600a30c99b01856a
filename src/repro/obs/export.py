"""Exporters: JSONL telemetry files, span-tree assembly, timeline render.

The on-disk format is one JSON object per line. Span events are
``{"span": {...}}`` records; a single optional ``{"metrics": {...}}``
record (a :meth:`MetricsRegistry.snapshot`) carries the final metric
values. The format is append-friendly (a streaming sink can emit spans
as they happen) and tolerant: unknown record kinds are skipped on read,
so the format can grow.

:func:`build_trace_trees` reassembles per-op span trees from a flat event
list and reports *orphans* — spans whose ``parent_id`` names a span that
never appears in the trace. The acceptance criterion "a complete span
tree for every committed op, no orphan spans" is checked exactly here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.obs.tracer import SpanEvent


def span_to_jsonable(event: SpanEvent) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "time": event.time,
        "process": event.process,
        "name": event.name,
        "trace_id": event.trace_id,
        "span_id": event.span_id,
    }
    if event.parent_id is not None:
        record["parent_id"] = event.parent_id
    if event.attrs:
        record["attrs"] = event.attrs
    return record


def span_from_jsonable(record: Dict[str, Any]) -> SpanEvent:
    return SpanEvent(
        time=record["time"],
        process=record["process"],
        name=record["name"],
        trace_id=record["trace_id"],
        span_id=record["span_id"],
        parent_id=record.get("parent_id"),
        attrs=record.get("attrs", {}),
    )


def write_jsonl(
    target: Union[str, IO[str]],
    events: Iterable[SpanEvent],
    metrics: Optional[Dict[str, Any]] = None,
) -> int:
    """Write span events (and an optional metrics snapshot) as JSONL.

    ``target`` is a path or an open text handle. Returns the number of
    records written.
    """
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_jsonl(handle, events, metrics)
    written = 0
    for event in events:
        target.write(json.dumps({"span": span_to_jsonable(event)}) + "\n")
        written += 1
    if metrics is not None:
        target.write(json.dumps({"metrics": metrics}) + "\n")
        written += 1
    return written


def read_jsonl(
    source: Union[str, IO[str]],
) -> Tuple[List[SpanEvent], Optional[Dict[str, Any]]]:
    """Read a telemetry JSONL file back into (events, metrics snapshot)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_jsonl(handle)
    events: List[SpanEvent] = []
    metrics: Optional[Dict[str, Any]] = None
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "span" in record:
            events.append(span_from_jsonable(record["span"]))
        elif "metrics" in record:
            metrics = record["metrics"]
        # Unknown record kinds are skipped: the format can grow.
    return events, metrics


# ----------------------------------------------------------------------
# Span-tree assembly
# ----------------------------------------------------------------------
class SpanNode:
    """One span in an assembled tree, with its children in time order."""

    __slots__ = ("event", "children")

    def __init__(self, event: SpanEvent) -> None:
        self.event = event
        self.children: List["SpanNode"] = []

    def walk(self, depth: int = 0) -> Iterable[Tuple[int, SpanEvent]]:
        yield depth, self.event
        for child in self.children:
            for item in child.walk(depth + 1):
                yield item


class TraceTree:
    """The assembled span tree of one trace id."""

    def __init__(
        self,
        trace_id: str,
        roots: List[SpanNode],
        orphans: List[SpanEvent],
    ) -> None:
        self.trace_id = trace_id
        self.roots = roots
        #: Spans whose parent_id names a span absent from this trace.
        self.orphans = orphans

    @property
    def complete(self) -> bool:
        """True when every span hangs off a root (no orphans)."""
        return not self.orphans

    def walk(self) -> Iterable[Tuple[int, SpanEvent]]:
        for root in self.roots:
            for item in root.walk():
                yield item

    def span_names(self) -> List[str]:
        return [event.name for _depth, event in self.walk()]

    def __len__(self) -> int:
        return sum(1 for _ in self.walk()) + len(self.orphans)


def build_trace_trees(
    events: Iterable[SpanEvent],
) -> Dict[str, TraceTree]:
    """Group a flat event list into per-trace span trees.

    Within a trace, spans with ``parent_id=None`` are roots; every other
    span attaches to the span whose ``span_id`` matches its
    ``parent_id``. Spans pointing at a missing parent are collected as
    orphans. Insertion order (arrival order) is preserved throughout, so
    sim runs produce deterministic trees.
    """
    by_trace: Dict[str, List[SpanEvent]] = {}
    for event in events:
        by_trace.setdefault(event.trace_id, []).append(event)
    trees: Dict[str, TraceTree] = {}
    for trace_id, trace_events in by_trace.items():
        nodes: Dict[str, SpanNode] = {}
        ordered: List[SpanNode] = []
        for event in trace_events:
            node = SpanNode(event)
            # Last writer wins on span-id collisions; collisions do not
            # occur in well-formed traces (span ids are unique per trace).
            nodes[event.span_id] = node
            ordered.append(node)
        roots: List[SpanNode] = []
        orphans: List[SpanEvent] = []
        for node in ordered:
            parent_id = node.event.parent_id
            if parent_id is None:
                roots.append(node)
            elif parent_id in nodes:
                nodes[parent_id].children.append(node)
            else:
                orphans.append(node.event)
        trees[trace_id] = TraceTree(trace_id, roots, orphans)
    return trees


def orphan_spans(events: Iterable[SpanEvent]) -> List[SpanEvent]:
    """All spans across all traces whose parent span is missing."""
    result: List[SpanEvent] = []
    for tree in build_trace_trees(events).values():
        result.extend(tree.orphans)
    return result


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_timeline(
    events: Iterable[SpanEvent],
    *,
    limit: Optional[int] = None,
) -> str:
    """A per-op span timeline: one indented block per trace.

    Times are shown relative to each trace's first span, so sim-time and
    wall-clock traces render the same way.
    """
    trees = build_trace_trees(events)
    lines: List[str] = []
    shown = 0
    for trace_id, tree in trees.items():
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(trees) - shown} more traces)")
            break
        shown += 1
        walked = list(tree.walk())
        start = min(
            (event.time for _depth, event in walked), default=0.0
        )
        lines.append(f"trace {trace_id}")
        for depth, event in walked:
            indent = "  " * (depth + 1)
            attrs = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
                if event.attrs
                else ""
            )
            lines.append(
                f"{indent}+{event.time - start:9.3f}  {event.name:<16} "
                f"p{event.process}{attrs}"
            )
        for event in tree.orphans:
            lines.append(
                f"  !ORPHAN +{event.time - start:9.3f}  {event.name} "
                f"p{event.process} (parent {event.parent_id} missing)"
            )
    return "\n".join(lines)


def render_metrics_summary(metrics: Dict[str, Any]) -> str:
    """A compact text summary of a metrics snapshot."""
    lines: List[str] = []
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<48} {value:g}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<48} {value:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, stats in sorted(histograms.items()):
            lines.append(
                f"  {name:<48} n={stats['count']:g} mean={stats['mean']:.4g} "
                f"p50={stats['p50']:.4g} p95={stats['p95']:.4g} "
                f"max={stats['max'] if stats['max'] is not None else 0:.4g}"
            )
    return "\n".join(lines)
