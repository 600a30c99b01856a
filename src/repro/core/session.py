"""Sessions and operation futures — the unified client-side pipeline.

Every invocation — on a simulated :class:`~repro.core.cluster.BayouCluster`,
on a baseline cluster or on a TCP :class:`~repro.runtime.serve.ReplicaServer`
— is one :class:`OpFuture`, the only per-operation record there is. An
:class:`OpLedger` keeps a deployment's futures by dot and drives them from
the replicas' response and commit callbacks; histories, latencies,
staleness samples and telemetry spans all read that one object. A future
moves through three states:

``pending``
    invoked (or queued by a session), no response yet — the paper's ∇;
``responded``
    the replica computed and returned a response (tentative for weak
    operations under the original protocol);
``stable``
    the request's position in the final (TOB-committed) order is fixed.
    Strong operations respond stable, and their value is computed in the
    committed order. A *weak* operation keeps its tentative response —
    Bayou never re-answers a client — so a stable weak future's value may
    still disagree with the final order (the paper's temporary operation
    reordering; measure it with ``stable_vs_tentative_mismatches``).
    Weak operations that are never broadcast at all (the modified
    protocol's invisible reads) hold no position in the final order and
    stabilise at response time.

Both client styles share this pipeline:

- **closed-loop** (:class:`Session`): operations are queued and the next is
  issued only after the previous response arrived (plus an optional think
  time) — histories stay *well-formed* (Section 3.2) by construction;
- **open-loop** (``cluster.submit`` / ``Scenario.invoke``): saturation-style
  workloads fire at will and track each returned future individually.

Sessions expose the data type's declared operations as bound proxies::

    session = cluster.connect(0)
    future = session.append("a")            # weak by default
    confirm = session.strong.read()         # consensus-backed
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.request import Dot, Req
from repro.datatypes.base import Operation
from repro.errors import (
    PendingResponseError,
    SessionProtocolError,
    UnsupportedOperationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import BayouCluster


def resolve_operation(datatype: Any, name: str) -> Callable[..., Operation]:
    """Look up a declared operation constructor on ``datatype``.

    The single resolver behind every typed proxy (sessions, scenario
    clients): checks the descriptor registry and raises an AttributeError
    that names the type and lists its operations.
    """
    if name not in datatype.operations():
        raise AttributeError(
            f"{datatype.type_name} declares no operation {name!r} "
            f"(available: {sorted(datatype.operations())})"
        )
    return getattr(type(datatype), name)


def _pending_sentinel() -> Any:
    """The history module's ∇ sentinel, imported lazily.

    ``repro.framework`` transitively imports ``repro.analysis`` (for table
    rendering), which imports this module for its workload sessions; a
    module-level import here would close that cycle.
    """
    from repro.framework.history import PENDING

    return PENDING

#: OpFuture lifecycle states.
FUTURE_PENDING = "pending"
FUTURE_RESPONDED = "responded"
FUTURE_STABLE = "stable"


class OpFuture:
    """The in-flight handle of one invoked (or queued) operation."""

    def __init__(self, op: Operation, *, strong: bool = False, pid: int = -1) -> None:
        self.op = op
        self.strong = strong
        #: Replica the operation targets.
        self.pid = pid
        self.state = FUTURE_PENDING
        #: The wire request; assigned when the replica accepts the invocation.
        self.request: Optional[Req] = None
        self.dot: Optional[Dot] = None
        #: When the client handed the op over (queued by a session, or the
        #: invoke time for open-loop submissions). Precedes ``invoke_time``
        #: by the session queueing delay.
        self.submit_time: Optional[float] = None
        self.invoke_time: Optional[float] = None
        self.response_time: Optional[float] = None
        self.stable_time: Optional[float] = None
        #: ``exec(e)``: the state trace the response was computed on
        #: (``None`` when capture is off or no replica answered).
        self.perceived: Optional[Tuple[Dot, ...]] = None
        #: Whether the request went through TOB at all (False only for the
        #: modified protocol's invisible reads and the LWW baseline).
        self.tob_cast = True
        #: Whether the first response was already final.
        self.responded_stable = False
        self._value: Any = _pending_sentinel()
        self._done_callbacks: List[Callable[["OpFuture"], None]] = []
        self._stable_callbacks: List[Callable[["OpFuture"], None]] = []

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def invoked(self) -> bool:
        """True once the operation was handed to a replica."""
        return self.invoke_time is not None

    @property
    def done(self) -> bool:
        """True once a response was computed (tentative or final)."""
        return self.state in (FUTURE_RESPONDED, FUTURE_STABLE)

    @property
    def pending(self) -> bool:
        """True while no response exists (the paper's ∇)."""
        return self.state == FUTURE_PENDING

    @property
    def stable(self) -> bool:
        """True once the request's position in the final order is fixed.

        Not a guarantee that a *weak* operation's (tentative) response
        matches the final order — see the module docstring.
        """
        return self.state == FUTURE_STABLE

    @property
    def value(self) -> Any:
        """The response; raises :class:`PendingResponseError` while pending."""
        if self.pending:
            raise PendingResponseError(
                f"{self.op!r} on replica {self.pid} has not responded yet"
            )
        return self._value

    @property
    def rval(self) -> Any:
        """The response, or the ∇ sentinel while pending (history style)."""
        return self._value

    @property
    def latency(self) -> Optional[float]:
        """Response time minus invoke time; None while pending."""
        if self.response_time is None or self.invoke_time is None:
            return None
        return self.response_time - self.invoke_time

    @property
    def commit_latency(self) -> Optional[float]:
        """Stable time minus invoke time; None until stable."""
        if self.stable_time is None or self.invoke_time is None:
            return None
        return self.stable_time - self.invoke_time

    @property
    def staleness(self) -> Optional[float]:
        """Stable time minus response time — how long a weak response
        floated tentatively; None until both exist."""
        if self.stable_time is None or self.response_time is None:
            return None
        return self.stable_time - self.response_time

    def timestamps(self) -> Dict[str, Optional[float]]:
        """The full lifecycle timeline as a dict (JSON-able)."""
        return {
            "submit": self.submit_time,
            "invoke": self.invoke_time,
            "response": self.response_time,
            "stable": self.stable_time,
        }

    def __repr__(self) -> str:
        level = "strong" if self.strong else "weak"
        tail = "∇" if self.pending else repr(self._value)
        return f"OpFuture({self.op!r} {level} R{self.pid} [{self.state}] -> {tail})"

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def add_done_callback(self, callback: Callable[["OpFuture"], None]) -> None:
        """Run ``callback(future)`` when the response arrives (or now)."""
        if self.done:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    def add_stable_callback(self, callback: Callable[["OpFuture"], None]) -> None:
        """Run ``callback(future)`` when the response stabilises (or now)."""
        if self.stable:
            callback(self)
        else:
            self._stable_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Transitions (driven by the cluster's response pipeline)
    # ------------------------------------------------------------------
    def _mark_invoked(self, dot: Dot, invoke_time: float) -> None:
        self.dot = dot
        self.invoke_time = invoke_time
        if self.submit_time is None:
            # Open-loop submissions skip the session queue entirely.
            self.submit_time = invoke_time

    def _resolve(
        self,
        req: Req,
        value: Any,
        at: float,
        *,
        stable: bool,
        perceived: Optional[Tuple[Dot, ...]] = None,
    ) -> None:
        """Record the response. Idempotent: later calls only upgrade state."""
        if self.done:
            if stable:
                self._mark_stable(at)
            return
        self.request = req
        self.dot = req.dot
        self._value = value
        self.perceived = perceived
        self.responded_stable = stable
        self.response_time = at
        self.state = FUTURE_RESPONDED
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)
        if stable:
            self._mark_stable(at)

    def _respond_value(self, value: Any, at: float) -> None:
        """Record a response that has no wire request behind it.

        Used by cross-shard futures (the parent of a staged plan holds no
        single request) and by route-forwarding adapters that mirror an
        inner future's outcome onto the one the client already holds.
        Idempotent like :meth:`_resolve`: once responded, later calls do
        nothing.
        """
        if self.done:
            return
        self._value = value
        self.response_time = at
        self.state = FUTURE_RESPONDED
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)

    def _mark_stable(self, at: float) -> None:
        if self.stable or not self.done:
            return
        self.state = FUTURE_STABLE
        self.stable_time = at
        callbacks, self._stable_callbacks = self._stable_callbacks, []
        for callback in callbacks:
            callback(self)


class OpLedger:
    """One deployment's operations by dot: submit → respond → stabilise.

    The replicas report through :meth:`on_response` (their ``responder``)
    and :meth:`on_commit` (their ``commit_listener``); both look the
    operation's :class:`OpFuture` up here and advance it. ``now`` is the
    deployment's clock — simulated time or runtime seconds.
    """

    def __init__(
        self, now: Callable[[], float], telemetry: Optional[Any] = None
    ) -> None:
        self.now = now
        #: dot -> future, in invocation order.
        self.futures: Dict[Dot, OpFuture] = {}
        #: Telemetry plane or scope; ``None`` or disabled records nothing.
        self.telemetry = telemetry
        if telemetry:
            self._h_commit_latency = telemetry.histogram("repro_op_commit_latency")
            self._h_weak_staleness = telemetry.histogram("repro_weak_staleness")
            self._c_submitted = telemetry.counter("repro_ops_submitted")

    def open(self, dot: Dot, future: OpFuture) -> OpFuture:
        """Register ``future`` as the record of the invocation ``dot``."""
        future._mark_invoked(dot, self.now())
        self.futures[dot] = future
        return future

    def forget(self, future: OpFuture) -> None:
        """Release a record nobody will read again (long-lived servers)."""
        self.futures.pop(future.dot, None)

    def invoke(
        self,
        replica: Any,
        op: Operation,
        *,
        strong: bool = False,
        future: Optional[OpFuture] = None,
    ) -> OpFuture:
        """Invoke ``op`` on ``replica`` right now; returns its future.

        The future is registered under the dot the replica is about to
        mint *before* ``replica.invoke`` runs: the modified protocol
        answers weak operations synchronously inside it, so the future may
        already be resolved when this returns.
        """
        if future is None:
            future = OpFuture(op, strong=strong, pid=replica.pid)
        dot = (replica.pid, replica.curr_event_no + 1)
        self.open(dot, future)
        try:
            req = replica.invoke(op, strong=strong)
        except UnsupportedOperationError:
            self.forget(future)
            raise
        assert req.dot == dot, "event numbering out of sync"
        if future.request is None:
            future.request = req
        future.tob_cast = replica.tob_casts(req)
        if self.telemetry:
            self._instrument(future, replica.pid)
        if not future.tob_cast and future.done:
            # Never-broadcast operations hold no position in the final
            # order; their synchronous response is as final as it gets.
            future._mark_stable(self.now())
        return future

    def on_response(
        self,
        req: Req,
        response: Any,
        perceived: Optional[Tuple[Dot, ...]],
        stable: bool,
    ) -> None:
        """A replica computed ``req``'s response (the ``Responder`` hook)."""
        future = self.futures.get(req.dot)
        if future is not None:
            future._resolve(
                req, response, self.now(), stable=stable, perceived=perceived
            )

    def on_commit(self, req: Req) -> None:
        """First TOB delivery of a request fixes its final position."""
        future = self.futures.get(req.dot)
        if future is not None:
            future._mark_stable(self.now())

    def _instrument(self, future: OpFuture, pid: int) -> None:
        """Record the op's client-side spans and lifecycle histograms.

        The respond/stable spans ride the future's callbacks: those fire
        exactly once at the actual transition regardless of which path
        resolved the future (async responder, synchronous modified-weak
        response, origin commit fast path). Registered *after*
        ``tob_cast`` is known, so a never-broadcast op that is already done
        stabilises with its span parented on the root rather than a commit
        span that will never exist.
        """
        telemetry, now, dot = self.telemetry, self.now, future.dot
        self._c_submitted.inc()
        # Stamped now, not at ``invoke_time``: on a wall clock the replica's
        # root span was recorded in between, and a child never precedes it.
        telemetry.op_span(
            now(), pid, "submit", dot, "submit", "root", strong=future.strong
        )

        def on_respond(f: OpFuture) -> None:
            telemetry.op_span(
                now(), pid, "respond", dot, "respond", "root", stable=f.stable
            )

        def on_stable(f: OpFuture) -> None:
            parent = "commit" if f.tob_cast else "root"
            telemetry.op_span(now(), pid, "stable", dot, "stable", parent)
            self._h_commit_latency.observe(f.commit_latency)
            if not f.strong:
                self._h_weak_staleness.observe(f.staleness)

        future.add_done_callback(on_respond)
        future.add_stable_callback(on_stable)


class _StrongProxy:
    """``session.strong``: the same bound operations, issued strongly."""

    def __init__(self, session: "TypedOperations") -> None:
        self._session = session

    def __getattr__(self, name: str):
        return self._session._bound_operation(name, strong=True)


class TypedOperations:
    """The data type's declared operations as bound proxies on a session.

    A mixin for closed-loop sessions: the host provides ``datatype`` and
    ``submit(op, strong=)``.
    """

    @property
    def strong(self) -> _StrongProxy:
        """A view of this session that issues every operation strongly."""
        return _StrongProxy(self)

    def _bound_operation(self, name: str, *, strong: bool):
        constructor = resolve_operation(self.datatype, name)

        def bound(*args: Any, strong: bool = strong, **kwargs: Any) -> OpFuture:
            return self.submit(constructor(*args, **kwargs), strong=strong)

        bound.__name__ = name
        bound.__doc__ = constructor.__doc__
        return bound

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._bound_operation(name, strong=False)


class ClosedLoopSession(TypedOperations):
    """The closed-loop client discipline every session kind shares.

    Operations are queued and issued one at a time: a new invocation
    starts only after the previous response arrived plus an optional think
    time, which keeps the session's history well-formed. Each invocation
    runs on its own simulation step, and a crashed target replica pauses
    the queue (crash–recovery) or refuses it (crash-stop). Subclasses say
    only how an operation is routed and launched.
    """

    #: The label of the pump's simulation events.
    pump_label = "client next"

    def __init__(self, sim: Any, datatype: Any, pid: int, think_time: float) -> None:
        self._sim = sim
        self.datatype = datatype
        self.pid = pid
        self.think_time = think_time
        self._queue: Deque[OpFuture] = deque()
        self._outstanding: Optional[OpFuture] = None
        self._pump_scheduled = False
        #: Earliest time the next invocation may run (think-time pacing).
        self._ready_at = 0.0
        #: Every future this session ever issued, in submission order.
        self.futures: List[OpFuture] = []
        #: Futures refused because the target replica crash-stopped (they
        #: are never invoked; their state stays pending forever).
        self.refused: List[OpFuture] = []
        #: Replicas this session already asked to wake it on recovery.
        self._paused_on: List[Any] = []

    def _enqueue(self, future: OpFuture) -> OpFuture:
        future.submit_time = self._sim.now
        self._queue.append(future)
        self.futures.append(future)
        self._maybe_schedule_pump()
        return future

    @property
    def completed(self) -> int:
        """Operations answered so far."""
        return sum(1 for future in self.futures if future.done)

    @property
    def latencies(self) -> List[float]:
        """Each answered operation's latency; a closed loop answers in
        submission order."""
        return [future.latency for future in self.futures if future.done]

    @property
    def idle(self) -> bool:
        """True when nothing is queued or outstanding."""
        return self._outstanding is None and not self._queue

    @property
    def launch_pending(self) -> bool:
        """True while the next invocation is a pending simulation event
        (the session is thinking, not paused or waiting on a response)."""
        return self._pump_scheduled

    # ------------------------------------------------------------------
    # The pump: one invocation per simulation step
    # ------------------------------------------------------------------
    def _maybe_schedule_pump(self) -> None:
        """Arrange the next invocation as a simulation event.

        Invocations always run on their own simulation step (never inline in
        submit/response handling) and never before ``think_time`` has passed
        since the previous response.
        """
        if (
            self._outstanding is not None
            or self._pump_scheduled
            or not self._queue
        ):
            return
        delay = max(0.0, self._ready_at - self._sim.now)
        self._pump_scheduled = True
        self._sim.schedule(delay, self._pump, label=self.pump_label)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._outstanding is not None or not self._queue:
            return
        if not self._launchable(self._queue[0]):
            return
        node = self._target_node(self._queue[0])
        if node is not None and node.crashed:
            # The server is unreachable. A crash–recovery outage pauses the
            # session (it resumes when the replica comes back); a crash-stop
            # outage refuses everything still queued — the connection is
            # gone for good, and polling would keep the simulation alive
            # forever. Hooks stay registered, so one per replica suffices.
            if node.crash_mode == "recover":
                if node not in self._paused_on:
                    self._paused_on.append(node)
                    node.register_crash_hooks(
                        on_recover=self._maybe_schedule_pump
                    )
                return
            self.refused.extend(self._queue)
            self._queue.clear()
            return
        self._launch(self._queue.popleft())

    def _launchable(self, future: OpFuture) -> bool:
        """Whether the head of the queue may launch now."""
        return True

    def _target_node(self, future: OpFuture) -> Any:
        """The replica node ``future`` would be invoked on (None: no single
        target to check)."""
        raise NotImplementedError

    def _launch(self, future: OpFuture) -> None:
        """Make ``future`` the outstanding operation and invoke it."""
        raise NotImplementedError

    def _on_done(self, future: OpFuture) -> None:
        if future is not self._outstanding:
            return  # defensive: sessions track exactly one in-flight op
        self._outstanding = None
        self._ready_at = self._sim.now + self.think_time
        self._maybe_schedule_pump()


class Session(ClosedLoopSession):
    """A sequential client bound to one replica of a cluster.

    The closed loop of :class:`ClosedLoopSession`; each submission returns
    an :class:`OpFuture`.
    """

    def __init__(
        self,
        cluster: "BayouCluster",
        pid: int,
        *,
        think_time: float = 0.0,
    ) -> None:
        super().__init__(cluster.sim, cluster.datatype, pid, think_time)
        self.cluster = cluster

    def submit(self, op: Operation, strong: bool = False) -> OpFuture:
        """Queue an operation; it runs when all earlier ones have returned."""
        return self._enqueue(OpFuture(op, strong=strong, pid=self.pid))

    def call(self, op: Operation, strong: bool = False) -> OpFuture:
        """Invoke ``op`` immediately; raises if an operation is in flight.

        The strict flavour of :meth:`submit`: instead of queueing behind
        earlier operations it demands the session be idle, enforcing the
        paper's well-formedness at the call site.
        """
        if not self.idle:
            raise SessionProtocolError(
                f"session on replica {self.pid} already has an operation "
                "outstanding (well-formed histories allow one at a time); "
                "use submit() to queue instead"
            )
        future = OpFuture(op, strong=strong, pid=self.pid)
        future.submit_time = self._sim.now
        self.futures.append(future)
        self._launch(future)
        return future

    def _target_node(self, future: OpFuture) -> Any:
        return self.cluster.nodes[self.pid]

    def _launch(self, future: OpFuture) -> None:
        """Hand one future to the cluster's shared response pipeline.

        The modified protocol answers weak operations synchronously inside
        ``invoke()``; registering the completion callback *before* the
        submission keeps that path and the asynchronous one identical.
        """
        self._outstanding = future
        future.add_done_callback(self._on_done)
        self.cluster.submit(self.pid, future.op, strong=future.strong, future=future)
