"""Batched, pipelined Multi-Paxos Total Order Broadcast.

A quorum-based TOB engine, as footnoted in Section 2.3 of the paper: "TOB
... can be implemented in a non-blocking fashion through e.g., quorum-based
protocols such as Paxos". Every node plays all three roles:

- **proposer**: the node currently trusted as leader by Ω drains pending
  client payloads into consecutive consensus instances;
- **acceptor**: classic promised/accepted single-decree state per instance;
- **learner**: decided instances are delivered in instance order.

The seed engine paid one full consensus round (and ~3n messages) per
operation. This engine amortizes and overlaps that cost while keeping the
delivered history bit-identical for any seeded schedule:

- **Batching** — the leader drains its submission queue into a single
  instance whose value is a :class:`Batch` of ``(key, payload)`` entries
  (up to ``max_batch``), delivered in order within the batch. A zero-delay
  *flush* timer coalesces same-instant submissions, so light-load latency
  is unchanged (a lone submission still proposes at its arrival time).
- **Proactive prepares** — a stable leader holds its phase-1 quorum over an
  open-ended instance window (the seed did this too), and additionally
  asserts leadership the moment Ω trusts it — at startup via a zero-delay
  kick and on demand via :meth:`prewarm` — instead of waiting a full drive
  interval. Steady-state values skip 1A/1B and go straight to 2A;
  re-prepare happens only on leader change or NACK.
- **Slim 1B payloads** — acceptors prune per-instance state below their
  delivery frontier and report that frontier as a *decided watermark* in
  1B, so a new leader receives only live accepted suffixes instead of full
  instance maps. The leader never NOOP-fills below a reported watermark
  (those instances are decided elsewhere; it fetches them via catch-up),
  and acceptors answer 2A for an instance they know decided with a repair
  instead of a vote.
- **Pipelining with dual 2B multicast** — up to ``max_inflight`` instances
  may have outstanding 2A rounds; acceptors multicast 2B to every other
  node (learners and proposer alike) and tally their own vote locally, each
  node counts votes and learns decisions one message delay earlier, and
  the separate decide broadcast disappears. The leader's 2A is its own
  vote: its acceptor accepts the value in-process and journals it before
  the 2A leaves (to the other nodes only), and an acceptor counts a 2A from
  the ballot's owner as the owner's vote besides its own. At n = 3 a
  follower thus decides when the 2A arrives, and the leader sends no 2B.
  ``dual_2b=False`` restores the seed's unicast-2B + decide-broadcast
  pattern.
- **Rate-limited batched catch-up** — a lagging node asks one rotating peer
  for its missing decided suffix; responders coalesce the suffix into a
  single repair message but token-bucket the instances they ship
  (``catchup_rate``/``catchup_burst``, at most ``catchup_batch`` per
  response), so a recovering replica cannot storm the cluster. Gap NOOPs
  proposed by a new leader are likewise capped (``max_gap`` concurrent).
- **Overdue-only retransmission** — the drive timer re-sends only what was
  already outstanding at its previous tick: the leader re-broadcasts the 2A
  of a proposal that was in flight then, a follower re-forwards the
  submissions that were pending then. Entries sent since carry nothing a
  resend would add. The anti-entropy probe (one ``status`` to a rotating
  peer) goes out only when something is overdue: a pending key, a delivery
  hole that was already there at the previous tick, or a delivery frontier
  below the phase-1 quorum's decided watermark. A fault-free run sends
  none.

``max_batch=1, max_inflight=None, dual_2b=False`` reproduces the seed
engine's consensus message pattern (its retransmissions are overdue-only,
as above); the delivered sequence is identical in either mode because both
drain the same FIFO submission queue at the same leader.

Liveness requires a majority of responsive acceptors and an eventually
accurate Ω — i.e. the paper's *stable runs*. Under a lasting partition a
minority component keeps retrying without ever deciding: the paper's
*asynchronous runs*, in which strong operations block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.total_order import (
    DeliverBatchFn,
    DeliverFn,
    TotalOrderBroadcast,
)
from repro.core.durability import register_codec
from repro.net.node import RoutingNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → broadcast)
    from repro.core.durability import DurableStore

_TAG = "paxos"

Ballot = Tuple[int, int]

#: Sentinel proposed into gap instances; never delivered to the application.
NOOP = ("__paxos_noop__", None)


@dataclass(frozen=True)
class Batch:
    """One instance's value: an ordered run of ``(key, payload)`` entries.

    Deciding a batch decides every entry, in list order — the unit of
    consensus amortization.
    """

    entries: Tuple[Tuple[Hashable, Any], ...]

    def keys(self) -> Tuple[Hashable, ...]:
        return tuple(key for key, _ in self.entries)


# Batched values cross both durable logs and (on the real-socket backend)
# wire frames; one codec registration covers both paths.
register_codec(
    "~paxb",
    Batch,
    lambda b: list(b.entries),
    lambda entries: Batch(tuple(entries)),
)


def value_keys(value: Any) -> Tuple[Hashable, ...]:
    """The client keys carried by an instance value (none for NOOP)."""
    if isinstance(value, Batch):
        return value.keys()
    return ()


@dataclass
class AcceptorInstance:
    """Single-decree acceptor state for one consensus instance."""

    promised: Ballot = (-1, -1)
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Optional[Any] = None


@dataclass
class ProposerInstance:
    """Leader-side bookkeeping for one in-flight instance.

    ``decided`` is only used in classic (non-dual-2B) mode, marking the
    window between the majority ack and the decide broadcast arriving back;
    dual-2B proposals are popped outright when the vote tally decides.
    ``overdue`` is set by the first drive tick that finds the proposal in
    flight; only an overdue proposal's 2A is re-broadcast.
    """

    ballot: Ballot
    value: Any
    acks: Set[int] = field(default_factory=set)
    decided: bool = False
    overdue: bool = False


class PaxosTOB(TotalOrderBroadcast):
    """Per-node endpoint of batched, pipelined Multi-Paxos TOB."""

    def __init__(
        self,
        node: RoutingNode,
        deliver: DeliverFn,
        omega: OmegaFailureDetector,
        *,
        retry_interval: float = 15.0,
        max_batch: int = 32,
        max_inflight: Optional[int] = 8,
        dual_2b: bool = True,
        max_gap: Optional[int] = None,
        catchup_batch: int = 64,
        catchup_rate: float = 32.0,
        catchup_burst: float = 64.0,
        deliver_batch: Optional[DeliverBatchFn] = None,
        store: Optional["DurableStore"] = None,
        tag: str = _TAG,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node = node
        self._deliver = deliver
        self._deliver_batch = deliver_batch
        self.omega = omega
        self.retry_interval = retry_interval
        self.max_batch = max(1, max_batch)
        self.max_inflight = max_inflight
        self.dual_2b = dual_2b
        self.max_gap = max_gap if max_gap is not None else max_inflight
        self.catchup_batch = max(1, catchup_batch)
        self.catchup_rate = catchup_rate
        self.catchup_burst = catchup_burst
        self.telemetry = telemetry
        if telemetry is not None:
            self._m_casts = telemetry.counter("repro_tob_casts", engine="paxos")
            self._m_delivers = telemetry.counter(
                "repro_tob_delivers", engine="paxos"
            )
            self._m_batch = telemetry.histogram("repro_paxos_batch_size")
            self._m_rounds = telemetry.histogram("repro_paxos_rounds_per_op")
            self._m_inflight = telemetry.gauge("repro_paxos_inflight")
        self.store = store
        self.tag = tag
        self.n = node.n_processes
        self.majority = self.n // 2 + 1

        # Client-facing submission state. ``_pending`` holds every key
        # awaiting a decision (for retransmission); ``_queue`` is the
        # leader-side FIFO of keys not yet inside an in-flight proposal —
        # its drain order *is* the delivered order, which is why batched
        # and seed-mode histories are bit-identical.
        self._pending: Dict[Hashable, Any] = {}
        #: The pending keys the previous drive tick saw; a key still pending
        #: at the next tick is overdue.
        self._pending_at_tick: Set[Hashable] = set()
        self._queue: Deque[Hashable] = deque()
        self._inflight_keys: Set[Hashable] = set()
        self._known_keys: Set[Hashable] = set()

        # Acceptor state. ``_baseline_promise`` is the promise that applies
        # to instances for which no explicit state exists yet (a global
        # phase 1 covers all instances from some point on). Entries below
        # the delivery frontier are pruned — the slim-1B invariant.
        self._acceptor: Dict[int, AcceptorInstance] = {}
        self._baseline_promise: Ballot = (-1, -1)
        self._max_round_seen = 0
        #: The ``(max_round_seen, baseline_promise)`` pair stable storage holds.
        self._persisted_meta: Optional[Tuple[int, Ballot]] = None

        # Leader state. ``_proposals`` holds only undecided instances.
        self._is_leader = False
        self._ballot: Optional[Ballot] = None
        self._phase1_acks: Dict[int, Dict[int, Tuple[Optional[Ballot], Any]]] = {}
        self._phase1_from: Set[int] = set()
        self._phase1_complete = False
        self._phase1_first_instance = 0
        #: Highest decided watermark reported by the phase-1 quorum: every
        #: instance below it is decided somewhere; never NOOP-fill there.
        self._floor = 0
        self._proposals: Dict[int, ProposerInstance] = {}
        self._next_instance = 0

        # Learner state. A key can be decided in two instances when
        # leadership churns mid-proposal; learners deliver it only once
        # (standard duplicate-command handling in Multi-Paxos SMR).
        # ``_votes`` is the dual-2B tally: instance → ballot → voters.
        self._decided: Dict[int, Any] = {}
        self._decided_keys: Set[Hashable] = set()
        self._votes: Dict[int, Dict[Ballot, Set[int]]] = {}
        self._next_deliver = 0
        #: ``_next_deliver`` when the previous drive tick found a delivery
        #: hole (an undecided instance below a decided one), else None.
        self._hole_at_tick: Optional[int] = None
        self._delivered: List[Hashable] = []
        self._delivered_keys: Set[Hashable] = set()

        # Catch-up responder token bucket and requester rotation.
        # The bucket starts full, so the first refill's elapsed time is
        # immaterial and construction need not read the clock.
        self._bucket = float(catchup_burst)
        self._bucket_stamp = 0.0
        self._catchup_peer = node.pid

        self._stopped = False
        #: Armed while the handle is held (the flush keeps none: a flag).
        self._drive_timer = None
        self._flush_armed = False

        #: Message kind → handler, resolved once per endpoint.
        self._handlers = {
            "p1a": self._handle_p1a,
            "p1b": self._handle_p1b,
            "p2a": self._handle_p2a,
            "p2b": self._handle_p2b,
            "nack": self._handle_nack,
            "decide": self._handle_decide,
            "submit": self._handle_submit,
            "status": self._handle_status,
            "repair": self._handle_repair,
        }
        node.register_component(tag, self._on_message)
        node.register_crash_hooks(on_recover=self._on_node_recover)
        omega.on_leader_change = self._on_leader_change
        if store is not None and (
            store.get(f"{tag}.meta") is not None or len(store.log(f"{tag}.decided"))
        ):
            self._reload()
        # Proactive prepare: Ω computes its initial leader before this
        # engine hooks the change callback, so without this kick the first
        # leader would only assert itself a full retry_interval after work
        # arrived (the dominant term of the E13 migration dip).
        node.set_timer(0.0, self._startup_kick, label="paxos.prewarm")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def delivered_sequence(self) -> List[Hashable]:
        return list(self._delivered)

    def tob_cast(self, key: Hashable, payload: Any) -> None:
        """Submit ``payload`` under ``key`` for total ordering."""
        if key in self._known_keys:
            return
        self._known_keys.add(key)
        self._pending[key] = payload
        self._queue.append(key)
        if self.telemetry:
            self._m_casts.inc()
            if isinstance(key, tuple):
                self.telemetry.op_span(
                    self.node.now, self.node.pid, "tob.cast", key,
                    "tob.cast", "root",
                )
        leader = self.omega.leader()
        if leader == self.node.pid:
            self._arm_flush()
        else:
            self.node.send_component(leader, self.tag, ("submit", key, payload))
        self._ensure_driving()

    def prewarm(self) -> None:
        """Run phase 1 now if Ω trusts this node — ahead of any traffic."""
        if self._stopped or self.node.crashed:
            return
        self._maybe_lead()

    def stop(self) -> None:
        """Stop the drive timer (the hosting harness also stops Ω)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Leadership
    # ------------------------------------------------------------------
    def _startup_kick(self) -> None:
        if self._stopped or self.node.crashed:
            return
        self._maybe_lead()

    def _maybe_lead(self) -> None:
        if not self._is_leader and self.omega.leader() == self.node.pid:
            self._become_leader()

    def _on_leader_change(self, leader: int) -> None:
        if leader == self.node.pid:
            self._become_leader()
        else:
            self._is_leader = False
            self._forward_pending(self._pending)

    def _become_leader(self) -> None:
        self._is_leader = True
        self._phase1_complete = False
        self._phase1_acks = {}
        self._phase1_from = set()
        self._proposals = {}
        self._floor = self._next_deliver
        self._inflight_keys = set()
        self._queue = deque(
            key for key in self._pending if key not in self._decided_keys
        )
        round_number = self._max_round_seen + 1
        self._max_round_seen = round_number
        self._persist_meta()  # a recovered leader must never reuse a ballot
        self._ballot = (round_number, self.node.pid)
        self._phase1_first_instance = self._next_deliver
        self.node.broadcast_component(
            self.tag,
            ("p1a", self._ballot, self._phase1_first_instance),
            include_self=True,
        )
        self._ensure_driving()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, sender: int, message: Tuple) -> None:
        handler = self._handlers.get(message[0])
        if handler is None:
            raise ValueError(f"unknown paxos message {message[0]!r}")
        handler(sender, message[1:])

    # --- stable storage ------------------------------------------------
    def _persist_meta(self) -> None:
        """Durably record the ballot bookkeeping, if it moved since last time."""
        meta = (self._max_round_seen, self._baseline_promise)
        if self.store is not None and meta != self._persisted_meta:
            self._persisted_meta = meta
            self.store.put(
                f"{self.tag}.meta",
                {
                    "max_round_seen": self._max_round_seen,
                    "baseline_promise": self._baseline_promise,
                },
            )

    def _persist_acceptor(self, instances) -> None:
        """Durably record the touched acceptor instances (the classic
        Paxos rule: a promise or acceptance must hit stable storage before
        the reply leaves, or a recovered acceptor could break chosen
        values). Each write is an O(1)-per-instance append; reload applies
        the log last-write-wins."""
        if self.store is None:
            return
        log = self.store.log(f"{self.tag}.acc")
        for instance in instances:
            state = self._acceptor[instance]
            log.append(
                (instance, state.promised, state.accepted_ballot, state.accepted_value)
            )
        self._persist_meta()

    # --- acceptor ------------------------------------------------------
    def _handle_p1a(self, sender: int, args: Tuple) -> None:
        ballot, first_instance = args
        self._max_round_seen = max(self._max_round_seen, ballot[0])
        relevant = [
            state
            for instance, state in self._acceptor.items()
            if instance >= first_instance
        ]
        highest_promise = max(
            [self._baseline_promise] + [state.promised for state in relevant]
        )
        if highest_promise > ballot:
            self.node.send_component(
                sender, self.tag, ("nack", ballot, highest_promise)
            )
            return
        # Slim 1B: report only the live accepted suffix (state below our
        # delivery frontier was pruned at delivery) plus the frontier
        # itself as a decided watermark; repair the proposer's missing
        # decided prefix separately instead of replaying it through 1B.
        accepted: Dict[int, Tuple[Ballot, Any]] = {}
        touched = []
        for instance, state in self._acceptor.items():
            if instance < first_instance:
                continue
            state.promised = ballot
            touched.append(instance)
            if state.accepted_ballot is not None:
                accepted[instance] = (state.accepted_ballot, state.accepted_value)
        previous, self._baseline_promise = self._baseline_promise, ballot
        self._persist_acceptor(touched)
        self.node.send_component(
            sender, self.tag, ("p1b", ballot, accepted, self._next_deliver)
        )
        if first_instance < self._next_deliver:
            self._send_repairs(sender, first_instance)
        if (
            sender != self.node.pid
            and previous[1] == sender
            and ballot > previous
            and sender == self.omega.leader()
        ):
            # The leader we trust started a new term of its own without a
            # leader change here (no ``_on_leader_change`` forward): it may
            # have crashed and recovered inside Ω's timeout, losing the
            # submissions sent to it. Re-forward them; it drops duplicates.
            self._forward_pending(self._pending)

    def _acceptor_state(self, instance: int) -> AcceptorInstance:
        state = self._acceptor.get(instance)
        if state is None:
            state = AcceptorInstance(promised=self._baseline_promise)
            self._acceptor[instance] = state
        return state

    def _handle_p2a(self, sender: int, args: Tuple) -> None:
        ballot, instance, value = args
        self._max_round_seen = max(self._max_round_seen, ballot[0])
        if instance in self._decided:
            # Known decided (and possibly pruned): vote would be useless or
            # unsafe to synthesize — answer with the decision itself.
            self.node.send_component(
                sender, self.tag, ("repair", {instance: self._decided[instance]})
            )
            return
        state = self._acceptor_state(instance)
        if ballot >= state.promised:
            state.promised = ballot
            state.accepted_ballot = ballot
            state.accepted_value = value
            self._persist_acceptor([instance])
            if self.dual_2b:
                # Dual 2B multicast: learners and proposer alike count the
                # votes, so decisions land one message delay earlier and
                # the decide broadcast disappears. Our own vote is tallied
                # here, so it goes to the other nodes only. A 2A from the
                # ballot's owner is its owner's vote too (``_send_2a``).
                self.node.broadcast_component(self.tag, ("p2b", ballot, instance))
                owner_vote = (sender,) if sender == ballot[1] else ()
                if self._tally_vote(instance, ballot, self.node.pid, *owner_vote):
                    self._after_decision()
            else:
                self.node.send_component(sender, self.tag, ("p2b", ballot, instance))
        else:
            self.node.send_component(
                sender, self.tag, ("nack", ballot, state.promised)
            )

    def _handle_nack(self, sender: int, args: Tuple) -> None:
        """A rejected ballot: escalate past the promise that beat us.

        Without this, a leader whose acceptors promised a higher ballot (a
        deposed rival's phase 1 arriving late, e.g. after a partition heals)
        would retransmit the same stale ballot forever.
        """
        ballot, promised = args
        self._max_round_seen = max(self._max_round_seen, promised[0])
        if (
            self._is_leader
            and ballot == self._ballot
            and self.omega.leader() == self.node.pid
        ):
            self._become_leader()

    # --- proposer ------------------------------------------------------
    def _handle_p1b(self, sender: int, args: Tuple) -> None:
        ballot, accepted, watermark = args
        if not self._is_leader or ballot != self._ballot or self._phase1_complete:
            return
        self._phase1_from.add(sender)
        self._floor = max(self._floor, watermark)
        for instance, (acc_ballot, acc_value) in accepted.items():
            per_instance = self._phase1_acks.setdefault(instance, {})
            per_instance[sender] = (acc_ballot, acc_value)
        if len(self._phase1_from) >= self.majority:
            self._complete_phase1()

    def _complete_phase1(self) -> None:
        self._phase1_complete = True
        # Re-propose the highest-ballot accepted value per reported
        # instance at or above the quorum's decided watermark; instances
        # below it are decided elsewhere and arrive via catch-up, never by
        # re-proposal (the slim-1B safety rule).
        reported = [i for i in self._phase1_acks if i >= self._floor]
        max_reported = max(reported) if reported else self._floor - 1
        self._next_instance = max(self._next_instance, self._floor)
        for instance in sorted(reported):
            if instance in self._decided:
                continue
            votes = self._phase1_acks[instance]
            _, value = max(votes.values(), key=lambda v: v[0])
            self._propose(instance, value)
        self._next_instance = max(self._next_instance, max_reported + 1)
        if self._next_deliver < self._floor:
            self._request_catchup()
        self._fill_gaps()
        self._drain_pending()

    def _inflight(self) -> int:
        return sum(1 for p in self._proposals.values() if not p.decided)

    def _propose(self, instance: int, value: Any) -> None:
        assert self._ballot is not None
        proposal = ProposerInstance(ballot=self._ballot, value=value)
        self._proposals[instance] = proposal
        if self.telemetry:
            if isinstance(value, Batch):
                self._m_batch.observe(len(value.entries))
            self._m_inflight.set(self._inflight())
        self._send_2a(instance, proposal)

    def _send_2a(self, instance: int, proposal: ProposerInstance) -> None:
        """Broadcast ``proposal``'s 2A (a first send or a drive resend).

        In dual-2B mode the proposer's own acceptor sits in this process:
        it accepts the value here, durably, and *then* the 2A leaves, to
        the other nodes only. That order is the invariant the followers
        rely on — a 2A from the ballot's owner carries the owner's vote
        (``_handle_p2a``) — so an acceptor that has promised a higher
        ballot lets no 2A leave: the leader has been pre-empted and treats
        it as the rejection its own acceptor would send. Callers never
        propose into an instance known decided, where that acceptor's
        state may be pruned (``_handle_p2a`` answers such a 2A with a
        repair, never a vote). The own vote is tallied only here, so at
        n = 1 it decides the instance on the spot (delivery only: the
        caller is already draining, in FIFO order).
        """
        message = ("p2a", proposal.ballot, instance, proposal.value)
        if not self.dual_2b:
            self.node.broadcast_component(self.tag, message, include_self=True)
            return
        state = self._acceptor_state(instance)
        if state.promised > proposal.ballot:
            self.node.send_component(
                self.node.pid, self.tag, ("nack", proposal.ballot, state.promised)
            )
            return
        if state.accepted_ballot == proposal.ballot:  # a resend: voted already
            self.node.broadcast_component(self.tag, message)
            return
        state.promised = state.accepted_ballot = proposal.ballot
        state.accepted_value = proposal.value
        self._persist_acceptor([instance])
        self.node.broadcast_component(self.tag, message)
        if self._tally_vote(instance, proposal.ballot, self.node.pid):
            self._deliver_ready()

    def _drain_pending(self) -> None:
        """Drain queued keys into batched proposals, up to the pipeline cap.

        FIFO drain order is the total order: every entry is appended in
        submission-arrival order regardless of ``max_batch``/``max_inflight``,
        so any knob setting yields the same delivered sequence.
        """
        if not (self._is_leader and self._phase1_complete):
            return
        while self._queue and (
            self.max_inflight is None or self._inflight() < self.max_inflight
        ):
            entries: List[Tuple[Hashable, Any]] = []
            while self._queue and len(entries) < self.max_batch:
                key = self._queue.popleft()
                if (
                    key not in self._pending
                    or key in self._inflight_keys
                    or key in self._decided_keys
                ):
                    continue
                entries.append((key, self._pending[key]))
                self._inflight_keys.add(key)
            if not entries:
                break
            while self._next_instance in self._decided:  # under a rival ballot
                self._next_instance += 1
            instance = self._next_instance
            self._next_instance += 1
            self._propose(instance, Batch(tuple(entries)))

    def _fill_gaps(self) -> None:
        """Propose NOOP for undecided instances below the decided frontier.

        Leadership churn can leave holes (an instance whose only proposal
        died with its ballot) beneath instances that did decide; the current
        leader plugs them so delivery can progress. Phase-1-discovered
        accepted values, if any, were already re-proposed, so NOOP here can
        never overwrite a possibly-chosen value: an instance with a chosen
        value has it accepted at a majority, which phase 1 must intersect —
        and instances below the quorum watermark (``_floor``), where
        acceptors may have pruned their evidence, are never filled at all;
        they are fetched via catch-up. At most ``max_gap`` NOOPs are in
        flight at once (the drive re-arms until every hole is plugged), so
        a leader change over a long gap cannot storm the cluster.
        """
        assert self._is_leader and self._phase1_complete
        if not self._decided:
            return
        frontier = max(self._decided)
        budget = None
        if self.max_gap is not None:
            gaps_inflight = sum(
                1 for p in self._proposals.values() if p.value == NOOP
            )
            budget = self.max_gap - gaps_inflight
            if budget <= 0:
                return
        for instance in range(max(self._next_deliver, self._floor), frontier):
            if instance in self._decided or instance in self._proposals:
                continue
            self._propose(instance, NOOP)
            if budget is not None:
                budget -= 1
                if budget <= 0:
                    return

    def _tally_vote(self, instance: int, ballot: Ballot, *voters: int) -> bool:
        """Count ``voters`` for ``ballot``; True if that decided ``instance``."""
        if instance in self._decided:
            return False
        votes = self._votes.setdefault(instance, {}).setdefault(ballot, set())
        votes.update(voters)
        return len(votes) >= self.majority and self._learn_from_votes(
            instance, ballot
        )

    def _learn_from_votes(self, instance: int, ballot: Ballot) -> bool:
        """Dual-2B learning: a majority voted ``ballot`` — find its value.

        The proposer has it in its proposal record; an acceptor that voted
        has it in its accepted state. A node with neither (its own 2A still
        in flight) simply waits: the next vote or its own acceptance
        re-runs the tally, and catch-up repairs any remainder.
        """
        value = None
        proposal = self._proposals.get(instance)
        if proposal is not None and proposal.ballot == ballot:
            value = proposal.value
        else:
            state = self._acceptor.get(instance)
            if state is not None and state.accepted_ballot == ballot:
                value = state.accepted_value
        if value is None:
            return False
        self._record_decided(instance, value)
        return True

    def _after_decision(self) -> None:
        """Deliver what became contiguous and refill the pipeline."""
        self._deliver_ready()
        self._drain_pending()
        self._ensure_driving()

    def _handle_p2b(self, sender: int, args: Tuple) -> None:
        ballot, instance = args
        if self.dual_2b:
            if self._tally_vote(instance, ballot, sender):
                self._after_decision()
            return
        proposal = self._proposals.get(instance)
        if proposal is None or proposal.ballot != ballot or proposal.decided:
            return
        proposal.acks.add(sender)
        if len(proposal.acks) >= self.majority:
            proposal.decided = True
            self.node.broadcast_component(
                self.tag, ("decide", instance, proposal.value), include_self=True
            )

    # --- learner -------------------------------------------------------
    def _record_decided(self, instance: int, value: Any) -> None:
        """Learn a decision: in memory, durably, and off the pending queue."""
        if instance in self._decided:
            return
        self._decided[instance] = value
        if self.store is not None:
            self.store.log(f"{self.tag}.decided").append((instance, value))
        self._votes.pop(instance, None)
        proposal = self._proposals.pop(instance, None)
        if proposal is not None:
            if self.telemetry and isinstance(value, Batch):
                self._m_rounds.observe(1.0 / len(value.entries))
                self._m_inflight.set(self._inflight())
            if proposal.value != value:
                # Another leader decided this instance differently; our
                # entries are not decided — requeue them for a fresh slot.
                for key in value_keys(proposal.value):
                    if key in self._inflight_keys:
                        self._inflight_keys.discard(key)
                        if key in self._pending and key not in self._decided_keys:
                            self._queue.append(key)
        for key in value_keys(value):
            self._decided_keys.add(key)
            self._pending.pop(key, None)
            self._inflight_keys.discard(key)

    def _handle_decide(self, sender: int, args: Tuple) -> None:
        instance, value = args
        if instance in self._decided:
            return
        self._record_decided(instance, value)
        self._after_decision()

    def _deliver_ready(self, *, notify: bool = True) -> None:
        """Advance the delivery frontier over contiguous decided instances.

        ``notify=False`` rebuilds the learner bookkeeping without invoking
        the application callback or tracing — the recovery reload path,
        where everything contiguous was already consumed (and durably
        committed) by the hosting replica before the crash.

        Delivery also prunes acceptor state for the consumed instances —
        the slim-1B invariant that keeps 1B payloads proportional to the
        live suffix instead of history.
        """
        ready: List[Tuple[Hashable, Any]] = []
        while self._next_deliver in self._decided:
            value = self._decided[self._next_deliver]
            instance = self._next_deliver
            self._next_deliver += 1
            self._acceptor.pop(instance, None)
            self._votes.pop(instance, None)
            if not isinstance(value, Batch):
                continue  # NOOP gap filler
            for key, payload in value.entries:
                if key in self._delivered_keys:
                    continue  # duplicate decision of a re-proposed key
                self._delivered_keys.add(key)
                self._delivered.append(key)
                if not notify:
                    continue
                if self.telemetry:
                    self._m_delivers.inc()
                    if isinstance(key, tuple) and key[0] == self.node.pid:
                        # Origin-only, like the sequencer engine: one
                        # delivery span per op regardless of cluster size.
                        self.telemetry.op_span(
                            self.node.now,
                            self.node.pid,
                            "tob.deliver",
                            key,
                            "tob.deliver",
                            "tob.cast",
                            seqno=instance,
                        )
                ready.append((key, payload))
        if not ready:
            return
        if self._deliver_batch is not None and len(ready) > 1:
            self._deliver_batch(ready)
        else:
            for key, payload in ready:
                self._deliver(key, payload)

    # --- submissions ---------------------------------------------------
    def _handle_submit(self, sender: int, args: Tuple) -> None:
        key, payload = args
        if key in self._decided_keys or key in self._delivered_keys:
            return
        if key not in self._known_keys:
            self._known_keys.add(key)
            self._pending[key] = payload
            self._queue.append(key)
        self._arm_flush()
        self._ensure_driving()

    def _forward_pending(self, keys: Iterable[Hashable]) -> None:
        """Send the pending submissions ``keys`` to the node currently
        trusted as leader."""
        leader = self.omega.leader()
        if leader == self.node.pid:
            self._arm_flush()
            return
        for key in keys:
            self.node.send_component(
                leader, self.tag, ("submit", key, self._pending[key])
            )

    # --- flush: same-instant submission coalescing ---------------------
    def _arm_flush(self) -> None:
        """Drain one simulation event later (still zero simulated delay).

        Every submission that lands at the same instant joins the same
        drain, so a burst becomes a few full batches instead of a train of
        singleton proposals — without adding latency for a lone submission.
        """
        if self._flush_armed or self._stopped:
            return
        self._flush_armed = True
        self.node.set_timer(0.0, self._flush, label="paxos.flush")

    def _flush(self) -> None:
        self._flush_armed = False
        if self._stopped or self.node.crashed:
            return
        self._maybe_lead()
        if self._is_leader and self._phase1_complete:
            self._drain_pending()
        self._ensure_driving()

    # --- catch-up: rate-limited batched repair -------------------------
    def _request_catchup(self) -> None:
        """Ask one rotating peer for our missing decided suffix."""
        if self.n <= 1:
            return
        peer = (self._catchup_peer + 1) % self.n
        if peer == self.node.pid:
            peer = (peer + 1) % self.n
        self._catchup_peer = peer
        self.node.send_component(peer, self.tag, ("status", self._next_deliver))

    def _catchup_take(self, want: int) -> int:
        """Token bucket: how many instances this response may carry."""
        now = self.node.now
        elapsed = max(0.0, now - self._bucket_stamp)
        self._bucket_stamp = now
        self._bucket = min(
            self.catchup_burst, self._bucket + elapsed * self.catchup_rate
        )
        take = min(want, self.catchup_batch, int(self._bucket))
        if take > 0:
            self._bucket -= take
        return take

    def _send_repairs(self, peer: int, their_next: int) -> None:
        missing = sorted(i for i in self._decided if i >= their_next)
        if not missing:
            return
        take = self._catchup_take(len(missing))
        if take <= 0:
            return
        repairs = {i: self._decided[i] for i in missing[:take]}
        self.node.send_component(peer, self.tag, ("repair", repairs))

    def _handle_status(self, sender: int, args: Tuple) -> None:
        (their_next,) = args
        self._send_repairs(sender, their_next)

    def _handle_repair(self, sender: int, args: Tuple) -> None:
        (repairs,) = args
        for instance in sorted(repairs):
            self._record_decided(instance, repairs[instance])
        self._after_decision()

    # ------------------------------------------------------------------
    # Drive timer: retransmission + anti-entropy
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        if self._pending:
            return True
        if self._is_leader and self._proposals:
            return True
        if self._decided and self._next_deliver <= max(self._decided):
            return True
        if self._next_deliver < self._floor:
            return True
        return False

    def _ensure_driving(self) -> None:
        if self._drive_timer is not None or self._stopped or not self._has_work():
            return
        self._drive_timer = self.node.set_timer(
            self.retry_interval, self._drive, label="paxos.drive"
        )

    def _drive(self) -> None:
        """Retransmit and probe for what is overdue: outstanding since the
        previous tick. Anything sent since then is still on its way."""
        self._drive_timer = None
        if self._stopped or not self._has_work():
            return
        overdue_keys = [key for key in self._pending if key in self._pending_at_tick]
        self._maybe_lead()
        if self._is_leader:
            if not self._phase1_complete:
                # Phase 1 stalled (lost messages / partition): retry it.
                self._become_leader()
            else:
                self._drain_pending()
                self._fill_gaps()
                for instance, proposal in self._proposals.items():
                    if proposal.decided:
                        continue
                    if not proposal.overdue:
                        proposal.overdue = True
                        continue
                    self._send_2a(instance, proposal)
        elif overdue_keys:
            self._forward_pending(overdue_keys)
        self._pending_at_tick = set(self._pending)
        # Anti-entropy: ask one rotating peer for decided instances we might
        # be missing (a pending key may have been decided while we were
        # partitioned; the responder's token bucket bounds the repair).
        hole = bool(self._decided) and self._next_deliver <= max(self._decided)
        stuck = hole and self._hole_at_tick == self._next_deliver
        self._hole_at_tick = self._next_deliver if hole else None
        if overdue_keys or stuck or self._next_deliver < self._floor:
            self._request_catchup()
        self._ensure_driving()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _reload(self) -> None:
        """Reload the durable surface: acceptor state, meta, decided log.

        Learner bookkeeping (``_next_deliver``/``_delivered``) is rebuilt by
        walking the decided log from instance 0 *without* re-delivering —
        everything contiguous was delivered (and consumed by the hosting
        replica, which persists its own commit log) before the crash.
        """
        meta = self.store.get(f"{self.tag}.meta") or {}
        self._max_round_seen = meta.get("max_round_seen", 0)
        self._baseline_promise = tuple(meta.get("baseline_promise", (-1, -1)))
        self._persisted_meta = (self._max_round_seen, self._baseline_promise)
        self._acceptor = {}
        # Last write per instance wins (the log records every mutation).
        for record in self.store.log(f"{self.tag}.acc").records():
            instance, promised, accepted_ballot, accepted_value = record
            self._acceptor[instance] = AcceptorInstance(
                promised=tuple(promised),
                accepted_ballot=(
                    None if accepted_ballot is None else tuple(accepted_ballot)
                ),
                accepted_value=accepted_value,
            )
        self._decided = dict(self.store.log(f"{self.tag}.decided").records())
        self._decided_keys = set()
        for value in self._decided.values():
            self._decided_keys.update(value_keys(value))
        self._votes = {}
        self._next_deliver = 0
        self._delivered = []
        self._delivered_keys = set()
        self._deliver_ready(notify=False)
        self._known_keys = set(self._decided_keys)

    def _on_node_recover(self) -> None:
        """Reboot: reload stable state, drop the rest, catch up, re-lead.

        Volatile state — leadership, phase-1 bookkeeping, in-flight
        proposals, pending submissions — is discarded (the hosting replica
        re-announces its uncommitted requests after recovery). The node
        immediately asks every peer for decided instances it missed, and
        one simulation step later re-asserts leadership if Ω still (or
        again) trusts it.
        """
        if self._drive_timer is not None and self._drive_timer.pending:
            self._drive_timer.cancel()
        self._drive_timer = None
        self._flush_armed = False
        self._is_leader = False
        self._ballot = None
        self._phase1_acks = {}
        self._phase1_from = set()
        self._phase1_complete = False
        self._floor = 0
        self._proposals = {}
        self._next_instance = 0
        self._votes = {}
        self._inflight_keys = set()
        self._pending_at_tick = set()
        self._hole_at_tick = None
        self._bucket = float(self.catchup_burst)
        self._bucket_stamp = self.node.now
        if self.store is not None:
            # Pending submissions are volatile: the hosting replica re-casts
            # its uncommitted requests from its own write-ahead log. Without
            # a store the in-memory state survives (a transient pause, the
            # seed semantics), so pending work is kept.
            self._pending = {}
            self._reload()
        self._queue = deque(
            key for key in self._pending if key not in self._decided_keys
        )
        if self._stopped:
            return
        # Catch-up: learn every instance decided during the downtime.
        # Every peer is asked (downtime lag is the one place a single
        # rotating probe would be too slow); responders still token-bucket.
        for peer in range(self.n):
            if peer != self.node.pid:
                self.node.send_component(
                    peer, self.tag, ("status", self._next_deliver)
                )
        self.node.set_timer(0.0, self._post_recovery_kick, label="paxos.rekick")

    def _post_recovery_kick(self) -> None:
        if self._stopped or self.node.crashed:
            return
        self._maybe_lead()
        self._ensure_driving()
