"""The Bayou replica — Algorithm 1 of the paper.

The handlers below map line-for-line onto the pseudocode:

- ``invoke`` (lines 9–15): stamp the operation with the local clock and a
  fresh dot, RB-cast and TOB-cast it, simulate immediate local RB-delivery
  by inserting it into the tentative order, and register it as awaiting a
  response.
- ``adjust_tentative_order`` (lines 16–21): keep ``tentative`` sorted by
  ``(timestamp, dot)`` and adjust the execution schedule.
- ``on_rb_deliver`` (lines 22–26) and ``on_tob_deliver`` (lines 27–34).
- the two ``upon`` internal events (lines 41–55) run as *schedulable
  simulation steps* with a per-replica processing delay, which is what makes
  the paper's "local execution is for some reason delayed" (Figure 1) and
  the slow replica of Section 2.3 expressible. A step is one plain runtime
  event (``bayou.step``; ``bayou.batch`` for the batched engine), not a
  process timer: it needs none of a timer's crash bookkeeping. A step that
  comes due while the node is down returns at once and lets go of its
  handle, and recovery arms a new one for the rebuilt backlog.

``adjustExecution`` (lines 35–40) is the one place that does not: the
pseudocode recomputes the longest common prefix of ``executed`` and the new
order and stores ``executed``, ``toBeExecuted`` and ``toBeRolledBack``; the
replica stores none of the three, only an integer, because of

**the cursor invariant** — the state object's live trace
(``StateObject.trace``, the one list of what has run) agrees with
``committed · tentative`` up to ``cursor``. The paper's lists are views of
that trace and that order, split at the cursor:

- ``executed`` *is* ``state.trace[:cursor]`` and ``to_be_rolled_back`` *is*
  ``state.trace[cursor:]`` reversed — read-only properties, for reports and
  tests; the trace is ``executed · reverse(toBeRolledBack)`` by definition.
- What is still to run is the rest of the order (the next request is
  ``order[cursor]``; no list of it is kept).

Every change to the order happens at one known position: the slot a request
is inserted at, the lowest such slot of a batch, or the commit boundary a
request is moved (or, if unknown, inserted) to. Only requests executed at
or beyond that position ran in the wrong place, so
``adjust_execution(position)`` is ``cursor = position`` — O(1), also when
rollbacks are still pending — and is not even called when the position is
at or beyond the cursor (a tail arrival) or the order did not change (a
commit of the tentative head). The engines then close the gap: stepwise
rolls back ``state.trace[-1]`` while the trace is longer than the cursor,
batched calls ``StateObject.revert_to(cursor)`` (which restores from a
checkpoint at or before the cursor when one is closer than the undo-log
tail); both execute ``order[cursor]`` and advance the cursor only once
trace and cursor meet. The paper's literal lines 35–40 and its three
stored lists live on in ``tests/test_reorder_engine.py``
(``PaperSchedule``), where a hypothesis test holds this rule to them after
every call.

Responses: weak operations return at their first execution (line 50); strong
operations return once executed *and* committed (line 49 or lines 32–33).

Rollback/execution *counts* are logical: the same sequence of schedule
adjustments produces the same ``rollback_count`` whether the work is done
stepwise (one simulation event per request, the paper's literal reading) or
batched (the whole backlog in one event). The *schedules themselves* can
differ across engines under backlog: the batched engine executes later, so
overlapping reorder storms can coalesce — never more logical rollbacks than
stepwise, sometimes fewer (see ``docs/PERFORMANCE.md``); checkpointing, by
contrast, never changes any count.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.total_order import TotalOrderBroadcast
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, from_jsonable, to_jsonable
from repro.core.request import Dot, Req
from repro.core.state_object import StateObject
from repro.datatypes.base import DataType, Operation
from repro.net.node import RoutingNode
from repro.sim.clock import DriftingClock

#: responder(req, response, perceived_trace, stable)
Responder = Callable[[Req, Any, Tuple[Dot, ...], bool], None]

#: Sentinel for "awaiting, no response computed yet" (⊥ in the paper).
_NO_RESPONSE = object()


class BayouReplica:
    """One replica of the (original) Bayou protocol."""

    def __init__(
        self,
        node: RoutingNode,
        clock: DriftingClock,
        datatype: DataType,
        config: BayouConfig,
        *,
        responder: Optional[Responder] = None,
        store: Optional[DurableStore] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node = node
        self.pid = node.pid
        self.clock = clock
        self.datatype = datatype
        self.config = config
        #: Telemetry plane or scope (``None`` or disabled both short-circuit
        #: every instrumentation site to a single false branch). Hot-path
        #: instruments are resolved once here, not per event.
        self.telemetry = telemetry
        if telemetry is not None:
            self._maint_trace = telemetry.named_trace(f"maint-{self.pid}")
            self._maint_seq = 0
            self._m_execs = telemetry.counter(
                "repro_executions", replica=self.pid
            )
            self._m_rollbacks = telemetry.counter(
                "repro_rollbacks", replica=self.pid
            )
            self._m_commits = telemetry.counter(
                "repro_commits_delivered", replica=self.pid
            )
        self.responder = responder
        #: Stable storage (None = the seed's purely volatile replica). The
        #: write-ahead log, commit order, event counter and committed-prefix
        #: checkpoints live here; :meth:`_on_node_recover` reloads them.
        self.store = store

        #: Optional hook called on every TOB commit (the cluster uses it to
        #: stabilise the request's OpFuture).
        self.commit_listener: Optional[Callable[[Req], None]] = None

        self.state = StateObject(
            datatype, checkpoint_interval=config.checkpoint_interval
        )
        self.curr_event_no = 0
        self.committed: List[Req] = []
        self.tentative: List[Req] = []
        #: ``len(executed)``: how much of ``state.trace`` is in its place.
        self.cursor = 0
        #: dot -> (response, trace at computation); _NO_RESPONSE if not yet.
        self._awaiting: Dict[Dot, Any] = {}
        self._committed_dots: Set[Dot] = set()
        self._tentative_dots: Set[Dot] = set()

        # Broadcast endpoints are attached by the cluster (they need our
        # delivery callbacks, which exist only once we do).
        self.rb: Optional[ReliableBroadcast] = None
        self.tob: Optional[TotalOrderBroadcast] = None

        # Engine bookkeeping. The step (a runtime event) and the retransmit
        # timer are armed while their handles are held.
        self._step_timer = None
        self._retransmit_timer = None
        self._stopped = False
        self._batched = config.reorder_engine == "batched"
        #: Simulated time at which the currently armed batch drains.
        self._batch_deadline: Optional[float] = None
        #: Backlog items already charged into the armed deadline.
        self._batch_charged = 0

        # Metrics.
        self.execution_count = 0
        self.rollback_count = 0
        self.crash_time: Optional[float] = None
        self.crash_times: List[float] = []
        self.downtime = 0.0

        # Durability bookkeeping. A non-empty pre-existing store means this
        # replica is being reconstructed over an earlier incarnation's disk
        # (e.g. a new cluster on the same JSON-lines directory): reload it,
        # exactly like an in-simulation recovery, so no acknowledged state
        # — nor the event counter guarding against dot reuse — is lost.
        self._wal_dots: Set[Dot] = set()
        self._persisted_checkpoint = 0
        #: Known-but-uncommitted requests outside the tentative list after a
        #: rebuild from the store (the modified protocol's strong requests);
        #: :meth:`reannounce` re-casts them.
        self._recovered_nontentative: List[Req] = []
        self.restored_from_store = False
        if store is not None and len(store.log("replica.wal")):
            self.restored_from_store = True
            self._rebuild_from_store()

        node.register_crash_hooks(
            on_crash=self._on_node_crash, on_recover=self._on_node_recover
        )

    # ------------------------------------------------------------------
    # Client API (Algorithm 1, lines 9-15)
    # ------------------------------------------------------------------
    def invoke(self, op: Operation, strong: bool = False) -> Req:
        """Submit an operation; returns the request identifying it."""
        req = self._mint_request(op, strong)
        self._persist_invoke(req)
        self.rb.rb_cast(req.dot, req)
        self.tob.tob_cast(req.dot, req)
        self.adjust_tentative_order(req)
        self._awaiting[req.dot] = _NO_RESPONSE
        self._arm_retransmit()
        return req

    def _mint_request(self, op: Operation, strong: bool) -> Req:
        """Stamp ``op`` with the local clock and a fresh dot (lines 10-11)."""
        assert self.rb is not None and self.tob is not None, "endpoints not attached"
        self.curr_event_no += 1
        req = Req(
            timestamp=self.clock.now(),
            dot=(self.pid, self.curr_event_no),
            strong=strong,
            op=op,
        )
        if self.telemetry:
            # The root span of this op's trace: every invocation — client
            # submit, migration barrier/install, realtime RPC — enters here.
            self.telemetry.op_span(
                self.node.now,
                self.pid,
                "op",
                req.dot,
                "root",
                None,
                op=str(op),
                strong=strong,
            )
        return req

    def tob_casts(self, req: Req) -> bool:
        """Whether ``req`` is disseminated through TOB at all."""
        return True

    # ------------------------------------------------------------------
    # Ordering (lines 16-21)
    # ------------------------------------------------------------------
    def adjust_tentative_order(self, req: Req) -> None:
        """Insert ``req`` into the timestamp-sorted tentative list."""
        self._order_changed(self._insert_tentative(req))

    def _insert_tentative(self, req: Req) -> int:
        """Insert ``req``; returns its position in ``committed · tentative``."""
        self._tentative_dots.add(req.dot)
        slot = bisect_left(self.tentative, req)
        self.tentative.insert(slot, req)
        return len(self.committed) + slot

    def _order_changed(self, position: int) -> None:
        """``committed · tentative`` now differs from what it was, from
        ``position`` on: whatever ran at or beyond it ran in the wrong place."""
        if position < self.cursor:
            self.adjust_execution(position)
        else:
            self._schedule_step()

    # ------------------------------------------------------------------
    # Deliveries (lines 22-34)
    # ------------------------------------------------------------------
    def on_rb_deliver(self, key: Dot, req: Req) -> None:
        """RB-delivery handler (lines 22-26)."""
        if req.dot[0] == self.pid:
            return  # issued locally; tentative insertion happened at invoke
        if req.dot in self._committed_dots or req.dot in self._tentative_dots:
            return  # already known (e.g. TOB delivered it first)
        self._persist_request(req)
        self.adjust_tentative_order(req)

    def on_rb_deliver_batch(self, items: Iterable[Tuple[Dot, Req]]) -> None:
        """Deliver a batch of RB messages, adjusting the schedule once.

        Used by the anti-entropy substrate, whose sync sessions ship whole
        log suffixes in one message: the order changed from the lowest
        insert position on, so one cut there leaves the tentative order,
        execution schedule and rollback queue identical to delivering the
        requests one at a time.
        """
        fresh: List[Req] = []
        for _, req in items:
            if req.dot[0] == self.pid:
                continue
            if req.dot in self._committed_dots or req.dot in self._tentative_dots:
                continue
            fresh.append(req)
        if not fresh:
            return
        for req in fresh:
            self._persist_request(req)
        self._order_changed(min(self._insert_tentative(req) for req in fresh))

    def on_tob_deliver(self, key: Dot, req: Req) -> None:
        """TOB-delivery handler (lines 27-34).

        ``req`` takes position ``boundary`` — the end of the committed
        list — in ``committed · tentative``. Committing the current
        *tentative head* moves it across the boundary without changing the
        concatenated sequence; any other commit changes the order there.
        (Deleting slot 0 still shifts the tentative list — a C-level
        memmove, ~40 ms across a 10⁴-commit flood.)
        """
        if req.dot in self._committed_dots:
            return  # defensive: engines deliver each key once
        boundary = len(self.committed)
        self.committed.append(req)
        self._committed_dots.add(req.dot)
        self._persist_request(req)
        if self.store is not None:
            self.store.log("replica.commits").append(req.dot)
        slot = None
        if req.dot in self._tentative_dots:
            self._tentative_dots.discard(req.dot)
            slot = bisect_left(self.tentative, req)
            assert self.tentative[slot].dot == req.dot, "tentative list out of order"
            del self.tentative[slot]
        if slot != 0:
            # Not the tentative head (or not known at all): req jumped
            # ahead of whatever stood at the boundary.
            self._order_changed(boundary)
        if self.telemetry:
            self._m_commits.inc()
            if req.dot[0] == self.pid:
                # One commit span per op, recorded at its origin replica
                # (every replica delivers; fanning out per-replica spans
                # would grow each op's tree with the cluster size).
                self.telemetry.op_span(
                    self.node.now,
                    self.pid,
                    "commit",
                    req.dot,
                    "commit",
                    "tob.deliver",
                )
        if req.dot in self._awaiting and boundary < self.cursor:
            # Executed is a prefix of the order, in which req sits at boundary.
            stored = self._awaiting.pop(req.dot)
            assert stored is not _NO_RESPONSE, "executed request lacks a response"
            response, perceived = stored
            self._respond(req, response, perceived, stable=True)
        if self.commit_listener is not None:
            self.commit_listener(req)
        self._maybe_persist_checkpoint()

    def on_tob_deliver_batch(self, items: Iterable[Tuple[Dot, Req]]) -> None:
        """Batched TOB delivery: strictly per-entry, in list order.

        The batched Paxos engine hands a contiguous decided run over in one
        call; commit semantics (head commits, listeners, stability
        responses) must be *identical* to one delivery per entry — that is
        the bit-identical-history contract — so this simply loops. The
        entries already share one simulation event, which is where the
        batching win (one event, one timestamp, no per-op messages) lives.
        """
        for key, req in items:
            self.on_tob_deliver(key, req)

    # ------------------------------------------------------------------
    # Execution scheduling (lines 35-40)
    # ------------------------------------------------------------------
    def adjust_execution(self, position: int) -> None:
        """Cut ``executed`` at ``position`` (lines 35-40).

        The caller knows where the order changed, so the longest common
        prefix of ``executed`` and the new order is ``executed[:position]``
        and need not be searched for. Moving the cursor there is the whole
        cut: the trace beyond it is, read backwards, what is to be rolled
        back (behind whatever already was), and what is to be executed is,
        as always, the order beyond ``executed``.
        """
        self.cursor = position
        self._schedule_step()

    @property
    def executed(self) -> List[Req]:
        """The paper's ``executed``: the trace up to the cursor (a copy)."""
        return self.state.trace[: self.cursor]

    @property
    def to_be_rolled_back(self) -> List[Req]:
        """The paper's ``toBeRolledBack``: the trace beyond the cursor,
        last executed first (a copy)."""
        return self.state.trace[self.cursor :][::-1]

    def _unexecuted(self) -> int:
        """How many requests of ``committed · tentative`` are yet to run."""
        return len(self.committed) + len(self.tentative) - self.cursor

    def _next_request(self) -> Req:
        """The first request of ``committed · tentative`` beyond ``executed``."""
        index = self.cursor
        if index < len(self.committed):
            return self.committed[index]
        return self.tentative[index - len(self.committed)]

    # ------------------------------------------------------------------
    # Internal events (lines 41-55), as simulation steps
    # ------------------------------------------------------------------
    def _schedule_step(self) -> None:
        if self._stopped:
            return
        cursor = self.cursor
        if (
            len(self.state.trace) == cursor
            and len(self.committed) + len(self.tentative) == cursor
        ):
            # No backlog: nothing to roll back, nothing left to execute.
            self._maybe_persist_checkpoint()
            return
        if self._batched:
            self._arm_batch()
            return
        if self._step_timer is not None:
            return
        self._step_timer = self.node.runtime.schedule(
            self.config.exec_delay_for(self.pid), self._step, label="bayou.step"
        )

    def _step(self) -> None:
        self._step_timer = None
        if self.node.crashed:
            return
        trace = self.state.trace
        cursor = self.cursor
        if len(trace) > cursor:
            self.state.rollback(trace[-1])
            self.rollback_count += 1
            if self.telemetry:
                self._m_rollbacks.inc()
        else:
            committed = self.committed
            if cursor < len(committed):
                self._execute_one(committed[cursor])
            elif cursor - len(committed) < len(self.tentative):
                self._execute_one(self.tentative[cursor - len(committed)])
        self._schedule_step()

    # -- batched engine -------------------------------------------------
    def _arm_batch(self) -> None:
        """Extend the batch deadline to cover the current backlog.

        Each backlog item is charged ``exec_delay`` exactly once: a fresh
        batch drains at ``now + backlog × exec_delay`` — the same simulated
        completion time the stepwise engine reaches with one event per
        request — and new items arriving while a batch is armed extend the
        *existing* deadline by their own cost rather than re-charging the
        in-flight work from ``now``. Only the deadline moves; the armed
        timer re-arms itself for the remainder when it fires early, so a
        flood of same-time deliveries costs O(1) extra events.
        """
        backlog = self.backlog
        fresh = backlog - self._batch_charged
        if fresh > 0:
            base = (
                self.node.now
                if self._batch_deadline is None
                else max(self._batch_deadline, self.node.now)
            )
            self._batch_deadline = base + fresh * self.config.exec_delay_for(self.pid)
            self._batch_charged = backlog
        if self._batch_deadline is not None and self._step_timer is None:
            self._step_timer = self.node.runtime.schedule(
                self._batch_deadline - self.node.now,
                self._batch_step,
                label="bayou.batch",
            )

    def _batch_step(self) -> None:
        self._step_timer = None
        if self.node.crashed or self._stopped or self._batch_deadline is None:
            return
        remaining = self._batch_deadline - self.node.now
        if remaining > 1e-9:
            # The deadline moved while we were queued: re-arm for the rest.
            self._step_timer = self.node.runtime.schedule(
                remaining, self._batch_step, label="bayou.batch"
            )
            return
        self._batch_deadline = None
        self._batch_charged = 0
        count = self.state.revert_to(self.cursor)
        if count:
            self.rollback_count += count
            if self.telemetry:
                self._m_rollbacks.inc(count)
                self._record_maintenance(
                    "reorder.rollback_batch", count=count, keep=self.cursor
                )
        #: Drain only what this deadline paid for. A responder may re-enter
        #: invoke() mid-drain: its request is stamped later than the one
        #: being answered, so it joins the order beyond ``executed`` (no
        #: rollback is queued) and the batch it armed runs what is left.
        replayed = 0
        for _ in range(self._unexecuted()):
            head = self._next_request()
            if head.dot not in self._awaiting:
                # Slim replay: no response to compute, no responder to call.
                # Per-request trace records are replaced by one aggregate
                # record below — the point of the batched engine is that a
                # 10⁴-request replay is one drain, not 10⁴ bookkept events.
                self.state.execute(head)
                self.cursor += 1
                self.execution_count += 1
                replayed += 1
                continue
            self._execute_one(head)
        if replayed and self.telemetry:
            self._m_execs.inc(replayed)
            self._record_maintenance("reorder.execute_batch", count=replayed)
        self._schedule_step()

    def _execute_one(self, head: Req) -> None:
        """Lines 46-55: execute one request and maybe respond."""
        awaiting = head.dot in self._awaiting
        # The perceived trace is only consumed when a response is computed;
        # materialising it for re-executions would cost O(trace) per replayed
        # request — O(n²) across a long divergent suffix.
        perceived = self._capture_perceived() if awaiting else ()
        response = self.state.execute(head)
        # Before responding: a responder may re-enter invoke(), which must
        # find the cursor in step with the state it is about to read.
        self.cursor += 1
        self.execution_count += 1
        if self.telemetry:
            self._m_execs.inc()
            if awaiting:
                # First tentative execution of a locally invoked op — the
                # moment its speculative response is computed. Re-executions
                # during replay are volume (counters), not op history.
                self.telemetry.op_span(
                    self.node.now,
                    self.pid,
                    "exec.tentative",
                    head.dot,
                    "exec.tentative",
                    "root",
                )
        if awaiting:
            if not head.strong or head.dot in self._committed_dots:
                del self._awaiting[head.dot]
                self._respond(
                    head,
                    response,
                    perceived,
                    stable=head.dot in self._committed_dots,
                )
            else:
                self._awaiting[head.dot] = (response, perceived)

    def _record_maintenance(self, name: str, **attrs: Any) -> None:
        """One aggregated span per batch drain, on this replica's
        maintenance trace (reorder storms are replica history, not any
        single op's story). Span ids are a deterministic per-replica
        counter, so seeded runs yield identical traces."""
        self._maint_seq += 1
        self.telemetry.tracer.record(
            self.node.now,
            self.pid,
            name,
            self._maint_trace,
            f"b{self._maint_seq}",
            None,
            **attrs,
        )

    def _respond(
        self, req: Req, response: Any, perceived: Tuple[Dot, ...], stable: bool
    ) -> None:
        if self.responder is not None:
            self.responder(req, response, perceived, stable)

    # ------------------------------------------------------------------
    # Introspection and liveness helpers
    # ------------------------------------------------------------------
    def current_trace_dots(self) -> Tuple[Dot, ...]:
        """The current trace α = executed · reverse(toBeRolledBack), as dots.

        This is ``exec(e)`` from the proof of Theorem 2 when captured at the
        instant a response is computed.
        """
        return tuple(self.state.trace_dots)

    def _capture_perceived(self) -> Optional[Tuple[Dot, ...]]:
        """The perceived trace for a response — ``None`` when capture is off.

        ``BayouConfig.record_perceived_traces=False`` trades the formal
        framework's per-response ``exec(e)`` bookkeeping (O(trace) time and
        memory per response, O(n²) per run) for scale; histories built from
        such runs fall back to the final arbitration order in perceived-
        order checks.
        """
        if not self.config.record_perceived_traces:
            return None
        return self.current_trace_dots()

    def current_order(self) -> List[Req]:
        """The replica's current ``committed · tentative`` order."""
        return self.committed + self.tentative

    @property
    def backlog(self) -> int:
        """Requests scheduled but not yet (re-)executed — Section 2.3's lag."""
        return self._unexecuted() + len(self.state.trace) - self.cursor

    def stop(self) -> None:
        """Stop scheduling internal steps and retransmissions (shutdown)."""
        self._stopped = True

    def _arm_retransmit(self) -> None:
        """Periodically re-TOB-cast tentative requests (TOB requirement 4).

        Only armed when ``config.retransmit_interval`` is set; the network
        already buffers messages across partitions, so retransmission is
        needed only in lossy/filtered scenarios.
        """
        interval = self.config.retransmit_interval
        if interval is None or self._retransmit_timer is not None or self._stopped:
            return

        def tick() -> None:
            self._retransmit_timer = None
            if self._stopped or not self.tentative:
                return
            assert self.tob is not None
            for req in self.tentative:
                self.tob.tob_cast(req.dot, req)
            self._arm_retransmit()

        self._retransmit_timer = self.node.set_timer(
            interval, tick, label=f"bayou.retransmit r{self.pid}"
        )

    # ------------------------------------------------------------------
    # Durability and crash recovery
    # ------------------------------------------------------------------
    def _persist_invoke(self, req: Req) -> None:
        """Write-ahead the freshly minted local request and its event number.

        Persisting ``curr_event_no`` is what stops a recovered replica from
        reusing dots: a dot collision after recovery would silently merge
        two different requests at every peer.
        """
        if self.store is None:
            return
        self.store.put("replica.curr_event_no", self.curr_event_no)
        self._persist_request(req)

    def _persist_request(self, req: Req) -> None:
        """Append ``req`` to the durable write-ahead log (once per dot)."""
        if self.store is None or req.dot in self._wal_dots:
            return
        self._wal_dots.add(req.dot)
        self.store.log("replica.wal").append(req)

    def _maybe_persist_checkpoint(self) -> None:
        """Persist the freshest committed-prefix state checkpoint.

        Only prefixes of the *committed* order are durable checkpoints: the
        committed order is final, so the snapshot can never be invalidated
        by a rollback, and recovery can restore it without undo
        information. The in-memory checkpoints PR 2 introduced are keyed by
        live-trace position; a position at or below
        ``min(cursor, len(committed))`` is exactly such a prefix.
        """
        interval = self.config.checkpoint_interval
        if self.store is None or interval is None:
            return
        stable = min(self.cursor, len(self.committed))
        if stable - self._persisted_checkpoint < interval:
            return
        checkpoint = self.state._nearest_checkpoint(stable)
        if checkpoint is None or checkpoint[0] <= self._persisted_checkpoint:
            return
        position, db = checkpoint
        self._persisted_checkpoint = position
        self.store.put(
            "replica.checkpoint",
            {"position": position, "db": to_jsonable(dict(db))},
        )

    def _on_node_crash(self, mode: str) -> None:
        """The host node crashed; volatile state is now garbage."""
        self.crash_time = self.node.now
        self.crash_times.append(self.node.now)

    def _on_node_recover(self) -> None:
        """Rebuild from stable storage (or resume with amnesia without it).

        Recovery = reload the nearest committed-prefix checkpoint, rebuild
        the ``committed · tentative`` order from the write-ahead and commit
        logs, and replay the suffix through the normal execution engine (so
        replay costs ``exec_delay`` per request, like any backlog). All
        volatile state — in-flight responses, perceived traces, schedule
        caches, timers — is discarded.
        """
        if self.crash_time is not None:
            self.downtime += self.node.now - self.crash_time
            self.crash_time = None
        # Engine timers are volatile with or without stable storage. A step
        # armed before the crash and not yet due is dropped here (the
        # rebuild below re-arms one for whatever backlog there is); one
        # that came due during the downtime already let go of its handle.
        # A retransmit timer suppressed during the downtime
        # (resurrect=False) would otherwise stay held with nothing behind
        # it — armed forever.
        for timer in (self._step_timer, self._retransmit_timer):
            if timer is not None:
                timer.cancel()
        self._step_timer = None
        self._retransmit_timer = None
        self._batch_deadline = None
        self._batch_charged = 0
        if self.store is None:
            # No stable storage: the seed's amnesia-free flag flip. The
            # in-memory state survives (including in-flight _awaiting
            # responses), which models a transient pause rather than a
            # real crash; experiments wanting honest crash-recovery
            # semantics configure a durability backend.
            self._schedule_step()
            self._arm_retransmit()
            return

        # Volatile client state is gone: responses in flight at the crash
        # are lost (their history events stay pending), exactly like a
        # client whose server rebooted mid-request.
        self._awaiting = {}
        self._rebuild_from_store()

    def _rebuild_from_store(self) -> None:
        """Reload the durable surface and schedule the replay.

        Shared by in-simulation recovery and by construction over a
        pre-existing store (a cluster restarted over the same JSON-lines
        directory — an operating-system-level crash–recovery).
        """
        requests: Dict[Dot, Req] = {
            record.dot: record for record in self.store.log("replica.wal").records()
        }
        commit_order: List[Dot] = list(self.store.log("replica.commits").records())
        self.curr_event_no = self.store.get("replica.curr_event_no", 0)
        self._wal_dots = set(requests)

        self.committed = [requests[dot] for dot in commit_order]
        self._committed_dots = set(commit_order)
        tentative = sorted(
            (
                req
                for dot, req in requests.items()
                if dot not in self._committed_dots and self._joins_tentative(req)
            ),
        )
        self.tentative = tentative
        self._tentative_dots = {req.dot for req in tentative}
        self._recovered_nontentative = [
            req
            for dot, req in sorted(requests.items())
            if dot not in self._committed_dots and not self._joins_tentative(req)
        ]

        # Restore the nearest committed-prefix checkpoint, then schedule a
        # replay of everything after it.
        order = self.committed + self.tentative
        self.state = StateObject(
            self.datatype, checkpoint_interval=self.config.checkpoint_interval
        )
        prefix_length = 0
        persisted = self.store.get("replica.checkpoint")
        if persisted is not None and persisted["position"] <= len(self.committed):
            prefix_length = persisted["position"]
            self.state.restore(
                order[:prefix_length], from_jsonable(persisted["db"])
            )
        self._persisted_checkpoint = prefix_length
        self.cursor = prefix_length
        self._schedule_step()

    def _joins_tentative(self, req: Req) -> bool:
        """Whether an uncommitted logged request belongs on the tentative
        list when rebuilding after recovery (Algorithm 2 keeps strong
        requests off it; Algorithm 1 speculates on everything)."""
        return True

    def reannounce(self) -> None:
        """Re-advertise uncommitted requests after a recovery.

        TOB submissions that were in flight when the replica crashed may
        never have reached the orderer; re-casting is safe (every engine
        deduplicates by dot) and required for liveness. RB/anti-entropy
        dissemination needs no re-cast: the durable dissemination logs
        reloaded by the endpoints cover it, and their own recovery syncs
        exchange whatever either side is missing.
        """
        if self.tob is None:
            return
        for req in self.tentative:
            self.tob.tob_cast(req.dot, req)
        for req in self._recovered_nontentative:
            self.tob.tob_cast(req.dot, req)
        self._arm_retransmit()
