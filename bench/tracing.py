"""Layer tracing from outside: wrap the calls into each layer, keep self time.

Nothing under ``src/`` knows about this file. :func:`install` patches the
*public* methods at each layer seam on their classes (before a deployment
is built, so every bound method handed around as a callback is already the
wrapped one) and wraps every callback passed through the public hand-over
points — ``Simulator.schedule``, ``Process.set_timer``,
``Process.register_crash_hooks``, ``RoutingNode.register_component`` and
``OpFuture.add_*_callback`` — in a span of the layer whose module *defined*
that callback. That second half is what attributes timer-driven work (the
replica's step, the Paxos drive and flush timers, Ω's tick, session pumps,
the network's delivery thunk, crash recovery) without naming a single
private method.

A span is a stack frame: on exit its duration minus the time its child
spans covered is added to the layer's self time, and the duration is
charged to the parent as child time. Only per-layer totals are kept (a
traced instance opens ~3·10⁵ spans); the totals are what the result JSON
carries. Wall time outside any span is the harness's own cost and is
reported as ``bench.unattributed_frac``.

Opening a span costs ~0.4 µs, most of it outside the timed interval and so
booked to the parent; measured on an empty span and subtracted, it moved no
layer's share by more than 1.5 points, so no correction is applied. What
did matter is the closure built for every handed-over callback: that is the
tracer's own work and is booked to the pseudo-layer ``bench.tracing``
instead of to whichever layer did the scheduling.

A wrap point that no longer exists is *skipped and listed* in
:attr:`LayerTracer.missing` rather than failing the run: the benchmark must
keep running on later commits that rename things, and the listing shows
which numbers lost their source.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

#: Module prefix -> layer, longest prefix wins. Layers are this repo's
#: packages; the broadcast and core packages are split by module because
#: their modules are separate optimisation targets.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.runtime", "runtime"),
    ("repro.broadcast.reliable", "broadcast.rb"),
    ("repro.broadcast.anti_entropy", "broadcast.rb"),
    ("repro.broadcast.failure_detector", "broadcast.omega"),
    ("repro.broadcast", "broadcast.tob"),
    ("repro.core.replica", "core.replica"),
    ("repro.core.modified_replica", "core.replica"),
    ("repro.core.state_object", "core.state"),
    ("repro.core.durability", "core.durability"),
    ("repro.core", "core.session"),
    ("repro.scenario", "core.session"),
    ("repro.analysis", "core.session"),
    ("repro.shard.coordinator", "shard.coordinator"),
    ("repro.shard", "shard.router"),
    ("repro.datatypes", "datatypes"),
    ("repro.obs", "obs"),
)


#: Pseudo-layer for the tracer's own per-event work.
TRACING = "bench.tracing"


@lru_cache(maxsize=None)
def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module`` (None for code outside ``repro``)."""
    if not module:
        return None
    best: Optional[str] = None
    best_len = -1
    for prefix, layer in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


class LayerTracer:
    """Per-layer self time and counts for one traced run."""

    def __init__(self) -> None:
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.spans: DefaultDict[str, int] = defaultdict(int)
        #: Exact event counts (deterministic under a seed on the simulator).
        self.counts: Counter = Counter()
        #: key -> simulated time of its first ``tob_cast`` at its origin.
        self.cast_at: Dict[Any, float] = {}
        #: Simulated tob_cast -> deliver-at-origin waits.
        self.order_waits: List[float] = []
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``."""
        stack, self_s, spans = self._stack, self.self_s, self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                self_s[layer] += duration - stack.pop()
                spans[layer] += 1
                if stack:
                    stack[-1] += duration

        return traced

    def span_callback(
        self, callback: Optional[Callable[..., Any]], caller: Optional[str] = None
    ) -> Any:
        """A handed-over callback, spanned under its defining module's layer.

        A callback of the ``caller``'s own layer is left bare: its time is
        the caller's self time either way. Already-wrapped callbacks (a
        resurrected timer passes its wrapped callback back through
        ``set_timer``) are defined in *this* module, which has no layer, so
        they are never wrapped twice.
        """
        layer = layer_of(getattr(callback, "__module__", None))
        if layer is None or layer == caller:
            return callback
        return self.span(callback, layer)

    def reset(self) -> None:
        """Zero the totals between traced instances (patches stay)."""
        self.self_s.clear()
        self.spans.clear()
        self.counts.clear()
        self.cast_at.clear()
        self.order_waits.clear()

    # -- patching ----------------------------------------------------------
    def patch(self, path: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``module:Class.method`` (or ``module:function``) by
        ``make(original)``; a path that does not resolve is listed in
        :attr:`missing` and skipped."""
        module_name, _, attr_path = path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, name = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def patch_span(self, path: str, layer: Optional[str] = None) -> None:
        chosen = layer or layer_of(path.partition(":")[0])
        assert chosen is not None, path
        self.patch(path, lambda fn: self.span(fn, chosen))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install() -> LayerTracer:
    """Patch every layer seam; call before building a deployment."""
    tracer = LayerTracer()
    counts = tracer.counts
    # Wrapping a handed-over callback (a closure per scheduled event) is
    # the tracer's own work: it gets its own pseudo-layer, so it is not
    # booked to whichever layer happened to do the scheduling.
    wrap_callback = tracer.span(tracer.span_callback, TRACING)

    def wrap_callback_arg(
        index: int,
        layer: Optional[str] = None,
        count: Optional[str] = None,
        caller: Optional[str] = None,
    ):
        """Wrap positional argument ``index`` (after self) as a handed-over
        callback that ``caller``'s layer will invoke; optionally span the
        method itself and count its calls."""

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def hand_over(self: Any, *args: Any, **kwargs: Any) -> Any:
                if count is not None:
                    counts[count] += 1
                if len(args) > index:  # by keyword: left unwrapped
                    callback = wrap_callback(args[index], caller)
                    args = args[:index] + (callback,) + args[index + 1:]
                return fn(self, *args, **kwargs)

            return hand_over if layer is None else tracer.span(hand_over, layer)

        return make

    # sim: the kernel loop, event hand-over, process timers. ``step`` and
    # ``schedule_at`` are left unwrapped: ``run`` calls ``step`` once per
    # event, so its own time is already inside ``run``'s self time, and
    # ``schedule_at`` only forwards to ``schedule``.
    tracer.patch_span("repro.sim.kernel:Simulator.run")
    tracer.patch(
        "repro.sim.kernel:Simulator.schedule", wrap_callback_arg(1, "sim", caller="sim")
    )
    tracer.patch(
        "repro.sim.process:Process.set_timer", wrap_callback_arg(1, "sim", "sim.timers")
    )

    def wrap_cancel(fn: Callable[..., Any]) -> Callable[..., Any]:
        def cancel(self: Any) -> Any:
            if not self.cancelled:
                counts["sim.timers_cancelled"] += 1
            return fn(self)

        return cancel

    tracer.patch("repro.sim.process:ProcessTimer.cancel", wrap_cancel)

    def wrap_crash_hooks(fn: Callable[..., Any]) -> Callable[..., Any]:
        def register_crash_hooks(self: Any, *, on_crash: Any = None, on_recover: Any = None) -> Any:
            return fn(
                self,
                on_crash=wrap_callback(on_crash),
                on_recover=wrap_callback(on_recover),
            )

        return register_crash_hooks

    tracer.patch("repro.sim.process:Process.register_crash_hooks", wrap_crash_hooks)

    # net: sends in; deliveries out are the delivery thunk, which the
    # schedule hand-over above spans under repro.net (it covers the
    # partition check and ``Process.deliver`` up to the component handler).
    tracer.patch_span("repro.net.network:Network.send")
    tracer.patch_span("repro.net.network:Network.broadcast")

    # runtime: the sim backend's pass-through.
    for name in ("send", "broadcast", "schedule"):
        tracer.patch_span(f"repro.runtime.sim:SimRuntime.{name}")

    # broadcast: handlers by component, message counts by tag and kind.
    tracer.patch("repro.net.node:RoutingNode.register_component", wrap_callback_arg(1))
    try:
        value_keys = importlib.import_module("repro.broadcast.paxos").value_keys
    except (ImportError, AttributeError):
        tracer.missing.append("repro.broadcast.paxos:value_keys")
        value_keys = None

    def count_message(tag: str, payload: Any, copies: int) -> None:
        counts[f"msgs.{tag}"] += copies
        if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
            counts[f"msgs.{tag}.{payload[0]}"] += copies
            if value_keys is not None and tag == "paxos" and payload[0] == "p2a":
                counts["paxos.instances"] += 1
                counts["paxos.instance_ops"] += len(value_keys(payload[3]))

    def wrap_send_component(fn: Callable[..., Any]) -> Callable[..., Any]:
        def send_component(self: Any, receiver: int, tag: str, payload: Any) -> Any:
            count_message(tag, payload, 1)
            return fn(self, receiver, tag, payload)

        return send_component

    def wrap_broadcast_component(fn: Callable[..., Any]) -> Callable[..., Any]:
        def broadcast_component(self: Any, tag: str, payload: Any, *, include_self: bool = False) -> Any:
            count_message(tag, payload, self.n_processes - (0 if include_self else 1))
            return fn(self, tag, payload, include_self=include_self)

        return broadcast_component

    tracer.patch("repro.net.node:RoutingNode.send_component", wrap_send_component)
    tracer.patch("repro.net.node:RoutingNode.broadcast_component", wrap_broadcast_component)
    tracer.patch_span("repro.broadcast.reliable:ReliableBroadcast.rb_cast")

    def wrap_tob_cast(fn: Callable[..., Any]) -> Callable[..., Any]:
        def tob_cast(self: Any, key: Any, payload: Any) -> Any:
            tracer.cast_at.setdefault((id(self.node.runtime), key), self.node.now)
            return fn(self, key, payload)

        return tracer.span(tob_cast, "broadcast.tob")

    tracer.patch("repro.broadcast.paxos:PaxosTOB.tob_cast", wrap_tob_cast)
    tracer.patch("repro.broadcast.sequencer:SequencerTOB.tob_cast", wrap_tob_cast)

    # core.replica: the client entry, the delivery handlers, the re-diff.
    replica = "repro.core.replica:BayouReplica."
    tracer.patch_span(replica + "invoke")

    def wrap_rb_deliver(fn: Callable[..., Any]) -> Callable[..., Any]:
        def on_rb_deliver(self: Any, key: Any, req: Any) -> Any:
            counts["replica.deliveries"] += 1
            return fn(self, key, req)

        return tracer.span(on_rb_deliver, "core.replica")

    def wrap_tob_deliver(fn: Callable[..., Any]) -> Callable[..., Any]:
        def on_tob_deliver(self: Any, key: Any, req: Any) -> Any:
            counts["replica.deliveries"] += 1
            if req.dot[0] == self.pid:
                # Dots repeat across shards; the runtime tells shards apart.
                cast_at = tracer.cast_at.pop((id(self.node.runtime), key), None)
                if cast_at is not None:
                    tracer.order_waits.append(self.node.now - cast_at)
            return fn(self, key, req)

        return tracer.span(on_tob_deliver, "core.replica")

    tracer.patch(replica + "on_rb_deliver", wrap_rb_deliver)
    tracer.patch(replica + "on_tob_deliver", wrap_tob_deliver)
    # The TOB batch handler loops over the per-entry one, which counts; the
    # RB batch handler is only reached under anti-entropy (not benchmarked).
    tracer.patch_span(replica + "on_rb_deliver_batch")
    tracer.patch_span(replica + "on_tob_deliver_batch")

    def wrap_adjust(fn: Callable[..., Any]) -> Callable[..., Any]:
        def adjust_execution(self: Any, new_order: Any) -> Any:
            counts["replica.rediffs"] += 1
            return fn(self, new_order)

        return tracer.span(adjust_execution, "core.replica")

    tracer.patch(replica + "adjust_execution", wrap_adjust)

    # core.state, datatypes, durability.
    for name in ("execute", "rollback", "revert_to"):
        tracer.patch_span(f"repro.core.state_object:StateObject.{name}")
    importlib.import_module("repro.datatypes")
    for cls in _subclasses(importlib.import_module("repro.datatypes.base").DataType):
        if "execute" in vars(cls):
            tracer.patch_span(f"{cls.__module__}:{cls.__qualname__}.execute", "datatypes")

    def wrap_durable_write(fn: Callable[..., Any]) -> Callable[..., Any]:
        def write(self: Any, *args: Any) -> Any:
            counts["durability.appends"] += 1
            return fn(self, *args)

        return tracer.span(write, "core.durability")

    durability = importlib.import_module("repro.core.durability")
    for base, method in ((durability.DurableLog, "append"), (durability.DurableStore, "put")):
        for cls in _subclasses(base):
            if method in vars(cls):
                tracer.patch(f"{cls.__module__}:{cls.__qualname__}.{method}", wrap_durable_write)

    # core.session and the shard front end.
    tracer.patch_span("repro.core.cluster:BayouCluster.submit")
    tracer.patch_span("repro.core.session:Session.submit")
    tracer.patch("repro.core.session:OpFuture.add_done_callback", wrap_callback_arg(0))
    tracer.patch("repro.core.session:OpFuture.add_stable_callback", wrap_callback_arg(0))
    for name in ("submit", "plan_route"):
        tracer.patch_span(f"repro.shard.router:ShardRouter.{name}")
    tracer.patch_span("repro.shard.router:ShardedSession.submit")
    tracer.patch_span("repro.shard.coordinator:CrossShardCoordinator.stage")
    return tracer


def install_client() -> LayerTracer:
    """Client-side spans for the TCP workload (replicas are other processes).

    ``runtime`` is ``RealtimeClient.call`` minus the codec — that is, the
    blocking socket send and receive; ``runtime.codec`` is frame encoding
    and decoding on the client.
    """
    tracer = LayerTracer()
    tracer.patch_span("repro.runtime.launcher:RealtimeClient.call", "runtime")
    # ``call`` reaches the encoder through the launcher module's own name.
    tracer.patch_span("repro.runtime.launcher:encode_frame", "runtime.codec")
    tracer.patch_span("repro.runtime.wire:FrameDecoder.feed", "runtime.codec")
    return tracer
