"""Batched, pipelined Multi-Paxos: batching, pipelining, catch-up, recovery.

The engine-level counterpart of the E16 experiment: batch formation and
knob behaviour, the proactive-prepare latency fix, the gap-proposal cap
(the long-gap leader-change storm regression), the catch-up token bucket,
slim-1B acceptor pruning, and durable recovery (the batched decided log
across incarnations, ballots across a leader crash, ``paxos.meta`` writes).
"""

import pytest

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import Batch, PaxosTOB
from repro.net.faults import MessageFilter
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.core.durability import InMemoryStore, JsonLinesStore
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator


class Rig:
    """A bare 3-node Paxos rig with configurable engine knobs."""

    def __init__(self, n=3, stores=None, omega_timeout=10.0, **knobs):
        knobs.setdefault("retry_interval", 8.0)
        self.sim = Simulator()
        self.network = Network(self.sim, n, latency=FixedLatency(1.0))
        self.nodes = [RoutingNode(SimRuntime(self.sim, self.network), pid) for pid in range(n)]
        self.delivered = {pid: [] for pid in range(n)}
        self.endpoints = []
        self.omegas = []
        for node in self.nodes:
            deliver = lambda key, payload, pid=node.pid: self.delivered[pid].append(key)
            omega = OmegaFailureDetector(
                node, heartbeat_interval=3.0, timeout=omega_timeout
            )
            self.omegas.append(omega)
            self.sim.schedule(0.0, omega.start)
            store = stores[node.pid] if stores else None
            self.endpoints.append(
                PaxosTOB(node, deliver, omega, store=store, **knobs)
            )

    def run(self, until=500.0):
        self.sim.run(until=until)

    def shutdown(self):
        for endpoint in self.endpoints:
            endpoint.stop()
        for omega in self.omegas:
            omega.stop()
        self.sim.run()


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------
def test_same_instant_burst_coalesces_into_batches():
    """A burst at the leader consumes ceil(ops/max_batch) instances, not ops."""
    rig = Rig(max_batch=4, max_inflight=8)
    keys = [f"k{i}" for i in range(10)]
    rig.sim.schedule(1.0, lambda: [rig.endpoints[0].tob_cast(k, k) for k in keys])
    rig.run()
    rig.shutdown()
    for pid in range(3):
        assert rig.delivered[pid] == keys  # cast order, everywhere
    assert rig.endpoints[0]._next_deliver == 3  # 4 + 4 + 2


def test_batched_and_seed_mode_orders_identical():
    """Any knob setting drains the same FIFO queue: the batched settings
    deliver the unbatched (one entry per instance, no pipeline cap) order."""
    histories = []
    for knobs in (
        dict(max_batch=1, max_inflight=None),  # unbatched
        dict(max_batch=3, max_inflight=2),
        dict(max_batch=32, max_inflight=8),
    ):
        rig = Rig(**knobs)
        for i in range(9):
            # Mixed origins and instants, all arriving pre-quiescence.
            rig.sim.schedule(
                0.5 * i, lambda i=i: rig.endpoints[i % 3].tob_cast(f"k{i}", i)
            )
        rig.run()
        rig.shutdown()
        assert rig.delivered[0] == rig.delivered[1] == rig.delivered[2]
        histories.append(rig.delivered[0])
    assert histories[0] == histories[1] == histories[2]


def test_max_inflight_bounds_outstanding_instances():
    rig = Rig(max_batch=1, max_inflight=2)
    endpoint = rig.endpoints[0]
    observed = []
    original = endpoint._propose

    def recording(instance, value):
        original(instance, value)
        observed.append(len(endpoint._proposals))

    endpoint._propose = recording
    rig.sim.schedule(
        1.0, lambda: [rig.endpoints[0].tob_cast(f"k{i}", i) for i in range(8)]
    )
    rig.run()
    rig.shutdown()
    assert rig.delivered[0] == [f"k{i}" for i in range(8)]
    assert observed and max(observed) <= 2


def test_light_load_latency_not_worse_than_seed_mode():
    """A lone submission must not wait for a batch to fill: the batched
    leader delivers it when the unbatched one does, one 2A and one 2B
    delay after the cast. The 2B lands the network's FIFO spacing after
    the heartbeat its sender put on the same link at the same instant."""
    times = {}
    for mode, knobs in (
        ("unbatched", dict(max_batch=1, max_inflight=None)),
        ("batched", dict(max_batch=32, max_inflight=8)),
    ):
        rig = Rig(**knobs)
        stamp = {}

        def deliver_stamp(key, payload, rig=rig, stamp=stamp):
            stamp.setdefault(key, rig.sim.now)

        rig.endpoints[0]._deliver = deliver_stamp
        rig.sim.schedule(5.0, lambda rig=rig: rig.endpoints[0].tob_cast("solo", 1))
        rig.run()
        rig.shutdown()
        times[mode] = stamp["solo"]
    assert times["batched"] == times["unbatched"] == 7.0 + Network.FIFO_EPSILON


# ---------------------------------------------------------------------------
# Proactive prepares
# ---------------------------------------------------------------------------
def test_first_commit_does_not_wait_for_the_drive_timer():
    """The initial leader runs phase 1 at t=0 (prewarm kick), so the first
    submission decides in one 2A/2B round instead of stalling until the
    first retry_interval drive — the dominant term of the E13 dip."""
    rig = Rig(retry_interval=8.0)
    rig.sim.schedule(0.5, lambda: rig.endpoints[1].tob_cast("early", 1))
    rig.run(until=6.0)  # < retry_interval: no drive has fired yet
    assert all(rig.delivered[pid] == ["early"] for pid in range(3))
    rig.shutdown()


def test_steady_state_skips_phase1():
    """A stable leader re-uses its ballot: one phase 1, many instances."""
    rig = Rig(max_batch=1)
    endpoint = rig.endpoints[0]
    for i in range(5):
        rig.sim.schedule(2.0 + i, lambda i=i: endpoint.tob_cast(f"k{i}", i))
    rig.run()
    rig.shutdown()
    assert rig.delivered[0] == [f"k{i}" for i in range(5)]
    assert endpoint._max_round_seen == 1  # a single ballot served everything


# ---------------------------------------------------------------------------
# Gap-fill cap (the long-gap leader-change storm regression)
# ---------------------------------------------------------------------------
def test_gap_noop_proposals_are_capped():
    """A leader facing a 200-instance gap must not flood 200 concurrent
    NOOP proposals (the seed engine's `_fill_gaps` was unbounded); it fills
    at most max_inflight per round and lets the drive re-arm until delivery
    catches up."""
    rig = Rig(retry_interval=0.5, max_inflight=20)
    rig.run(until=5.0)  # leader 0 established
    leader = rig.endpoints[0]
    assert leader._is_leader and leader._phase1_complete
    # A decided island far above the frontier — what a deposed rival that
    # raced ahead leaves behind.
    leader._record_decided(200, Batch((( ("island", 0), "p"),)))
    leader._fill_gaps()
    assert len(leader._proposals) <= 20  # capped, not 200
    rig.run(until=120.0)
    rig.shutdown()
    assert leader._next_deliver == 201  # every hole eventually plugged
    assert rig.delivered[0] == [("island", 0)]


def test_unbounded_inflight_fills_every_gap_at_once():
    """max_inflight=None leaves the gap fill uncapped too: every hole gets
    its NOOP in one round."""
    rig = Rig(retry_interval=0.5, max_inflight=None)
    rig.run(until=5.0)
    leader = rig.endpoints[0]
    leader._record_decided(60, Batch((( ("island", 1), "p"),)))
    leader._fill_gaps()
    assert len(leader._proposals) == 60
    rig.run(until=60.0)
    rig.shutdown()
    assert leader._next_deliver == 61


# ---------------------------------------------------------------------------
# Rate-limited batched catch-up
# ---------------------------------------------------------------------------
def test_catchup_responses_are_token_bucket_limited():
    rig = Rig(
        max_batch=1,
        catchup_batch=10,
        catchup_burst=15.0,
        catchup_rate=1.0,
    )
    responder = rig.endpoints[0]
    rig.sim.schedule(
        1.0, lambda: [responder.tob_cast(f"k{i}", i) for i in range(30)]
    )
    rig.run()
    assert responder._next_deliver >= 30
    sent = []
    responder.node.send_component = lambda peer, tag, payload: sent.append(payload)
    # A fresh peer asks for everything, three times in the same instant.
    for _ in range(3):
        responder._handle_status(2, (0,))
    repairs = [message[1] for message in sent if message[0] == "repair"]
    # 15 tokens at catchup_batch=10: one full response, one 5-instance
    # response, then an empty bucket drops the third on the floor.
    assert [len(r) for r in repairs] == [10, 5]
    # Tokens refill with simulated time: backdating the stamp models it.
    responder._bucket_stamp -= 8.0
    responder._handle_status(2, (0,))
    repairs = [message[1] for message in sent if message[0] == "repair"]
    assert [len(r) for r in repairs] == [10, 5, 8]
    rig.shutdown()


def test_lagging_node_catches_up_fully_despite_rate_limit():
    """The bucket bounds each response, not the total: a node that missed
    many decisions converges over successive drives."""
    rig = Rig(
        retry_interval=1.0,
        max_batch=1,
        catchup_batch=8,
        catchup_burst=8.0,
        catchup_rate=4.0,
    )
    lagger = rig.endpoints[2]
    # Drop everything addressed to node 2 for a while.
    isolated = [True]

    def drop_into_lagger(_src, dst, _payload, _time):
        if isolated[0] and dst == 2:
            return MessageFilter.DROP
        return None

    rig.network.filters.add(drop_into_lagger)
    rig.sim.schedule(
        1.0, lambda: [rig.endpoints[0].tob_cast(f"k{i}", i) for i in range(40)]
    )
    rig.run(until=30.0)
    assert rig.delivered[2] == []
    isolated[0] = False
    # Give the lagger a reason to drive: it learns of one submission.
    rig.sim.schedule(30.5, lambda: lagger.tob_cast("tail", 99))
    rig.run(until=200.0)
    rig.shutdown()
    assert rig.delivered[2] == rig.delivered[0]
    assert len(rig.delivered[2]) == 41


# ---------------------------------------------------------------------------
# Slim 1B: acceptor pruning below the delivery frontier
# ---------------------------------------------------------------------------
def test_acceptor_state_pruned_below_delivery_frontier():
    rig = Rig(max_batch=4)
    rig.sim.schedule(
        1.0, lambda: [rig.endpoints[0].tob_cast(f"k{i}", i) for i in range(20)]
    )
    rig.run()
    for endpoint in rig.endpoints:
        assert endpoint._next_deliver >= 5
        assert all(
            instance >= endpoint._next_deliver for instance in endpoint._acceptor
        )
    # A later election still works over the pruned state: the new leader
    # gets watermarks instead of history and serves fresh traffic.
    rig.nodes[0].crash()
    rig.sim.schedule(rig.sim.now + 15.0, lambda: rig.endpoints[1].tob_cast("next", 1))
    rig.run()
    rig.shutdown()
    assert rig.delivered[1][-1] == "next"
    assert rig.delivered[1] == rig.delivered[2]


# ---------------------------------------------------------------------------
# Durable recovery
# ---------------------------------------------------------------------------
def test_mixed_log_recovers_across_incarnations(tmp_path):
    """A second incarnation over the same jsonl directories recovers the
    batched decided log, in order and without duplicates."""
    stores = [JsonLinesStore(str(tmp_path / f"r{pid}")) for pid in range(3)]
    rig = Rig(stores=stores, max_batch=4)
    rig.sim.schedule(
        1.0, lambda: [rig.endpoints[0].tob_cast(f"new{i}", i) for i in range(6)]
    )
    rig.run()
    rig.shutdown()
    new_keys = [f"new{i}" for i in range(6)]
    assert rig.delivered[0] == new_keys
    assert len(rig.endpoints[0]._decided) < len(new_keys)  # really batched
    # The OS process "restarts": fresh stores over the same directories.
    stores2 = [JsonLinesStore(str(tmp_path / f"r{pid}")) for pid in range(3)]
    rig2 = Rig(stores=stores2)
    recovered = rig2.endpoints[0].delivered_sequence
    assert recovered == new_keys
    assert len(recovered) == len(set(recovered))  # no duplicates either
    rig2.run(until=5.0)  # let the scheduled omega starts fire before stop
    rig2.shutdown()


def test_recovered_leader_never_reuses_a_ballot():
    """The round a leader claimed is on disk before its 1A leaves, so the
    same node, rebooted, leads again under a strictly higher ballot."""
    rig = Rig(stores=[InMemoryStore() for _ in range(3)])
    endpoint = rig.endpoints[0]
    rig.sim.schedule(1.0, lambda: endpoint.tob_cast("before", 1))
    rig.run(until=20.0)
    first = endpoint._ballot
    assert endpoint._is_leader and first == (1, 0)
    rig.nodes[0].crash("recover")
    rig.nodes[0].recover()  # reloads: everything volatile is gone
    assert endpoint._ballot is None and endpoint._max_round_seen == first[0]
    rig.sim.schedule(rig.sim.now + 1.0, lambda: endpoint.tob_cast("after", 2))
    rig.run()
    rig.shutdown()
    assert endpoint._ballot > first
    assert rig.delivered[1] == rig.delivered[2] == ["before", "after"]


def test_meta_is_written_per_ballot_change_not_per_accept():
    """``paxos.meta`` holds (max_round_seen, baseline_promise); neither moves
    while one ballot serves instance after instance, so 50 accepted 2As add
    no write to the ones the single election cost."""
    stores = [InMemoryStore() for _ in range(3)]
    writes = {pid: [] for pid in range(3)}
    for pid, store in enumerate(stores):
        def counting_put(key, value, pid=pid, put=store.put):
            if key == "paxos.meta":
                writes[pid].append(value)
            put(key, value)

        store.put = counting_put
    rig = Rig(stores=stores, max_batch=1)
    for i in range(50):
        rig.sim.schedule(2.0 + i, lambda i=i: rig.endpoints[0].tob_cast(f"k{i}", i))
    rig.run()
    rig.shutdown()
    assert len(rig.delivered[2]) == 50
    for pid, endpoint in enumerate(rig.endpoints):
        assert len(endpoint.store.log("paxos.acc")) >= 50  # one per accepted 2A
        # The leader wrote its claimed round, then its own promise; the
        # followers their promise. Every write changed the pair.
        assert len(writes[pid]) == (2 if pid == 0 else 1)
        assert writes[pid][-1] == {"max_round_seen": 1, "baseline_promise": (1, 0)}


# ---------------------------------------------------------------------------
# The leader's 2A is its own vote
# ---------------------------------------------------------------------------
def test_follower_decides_on_the_leaders_2a_alone():
    """The leader's 2A is its own vote, so a follower at n = 3 decides on
    the 2A and its own vote: one message delay after the cast."""
    rig = Rig(max_batch=1, max_inflight=None)
    stamp = {}
    rig.endpoints[2]._deliver = lambda key, payload: stamp.setdefault(
        key, rig.sim.now
    )
    rig.sim.schedule(5.0, lambda: rig.endpoints[0].tob_cast("x", 1))
    rig.run()
    rig.shutdown()
    assert stamp["x"] == 6.0


def test_leader_journals_its_acceptance_before_its_2a_leaves(monkeypatch):
    """The invariant a follower relies on when it counts a 2A as the
    owner's vote: the owner's ``paxos.acc`` line is written first."""
    events = []
    send = Network.send

    def recording_send(self, sender, receiver, payload):
        tag, message = payload
        if tag == "paxos" and message[0] == "p2a" and sender == 0:
            events.append(("p2a", message[2]))
        return send(self, sender, receiver, payload)

    monkeypatch.setattr(Network, "send", recording_send)
    stores = [InMemoryStore() for _ in range(3)]

    def recording_write(name, record):
        if name == "paxos.acc":
            events.append(("acc", record[0]))

    stores[0]._write = recording_write  # bound into each log as it opens
    rig = Rig(stores=stores, max_batch=2)
    for i in range(10):
        rig.sim.schedule(2.0 + 0.5 * i, lambda i=i: rig.endpoints[0].tob_cast(i, i))
    rig.run()
    rig.shutdown()
    assert rig.delivered[1] == list(range(10))
    sent = {instance for kind, instance in events if kind == "p2a"}
    assert sent
    for instance in sent:
        first_send = events.index(("p2a", instance))
        assert ("acc", instance) in events[:first_send]


def test_preempted_leader_lets_no_2a_leave_on_its_stale_ballot(monkeypatch):
    """After node 0's acceptor promises node 1's higher ballot, node 0 (still
    leader) sends no 2A on its old ballot: a follower counting that 2A as
    node 0's vote would decide a value node 0's acceptor no longer stands
    behind. Node 0 re-leads above the rival and decides the cast there."""
    p2a_ballots = []
    send = Network.send

    def recording_send(self, sender, receiver, payload):
        tag, message = payload
        if tag == "paxos" and message[0] == "p2a":
            p2a_ballots.append(message[1])
        return send(self, sender, receiver, payload)

    monkeypatch.setattr(Network, "send", recording_send)
    rig = Rig()
    rig.run(until=3.0)
    leader = rig.endpoints[0]
    assert leader._is_leader and leader._ballot == (1, 0)
    # A rival's phase 1 reaches node 0's acceptor only.
    leader._handle_p1a(1, ((2, 1), 0))
    decided_by = {}
    for endpoint in rig.endpoints[1:]:
        learn = endpoint._learn_from_votes

        def recording_learn(instance, ballot, learn=learn, pid=endpoint.node.pid):
            decided_by.setdefault(pid, []).append(ballot)
            return learn(instance, ballot)

        endpoint._learn_from_votes = recording_learn
    rig.sim.schedule(4.0, lambda: leader.tob_cast("x", 1))
    rig.run()
    rig.shutdown()
    assert (1, 0) not in p2a_ballots
    assert all((1, 0) not in ballots for ballots in decided_by.values())
    assert leader._ballot > (2, 1)
    assert rig.delivered[0] == rig.delivered[1] == rig.delivered[2] == ["x"]


def test_leader_never_proposes_into_an_instance_it_knows_decided():
    """A leader that learned its next instance's decision (a rival's, by
    repair) proposes the next cast one instance higher: its acceptor's
    state there may be pruned, so its 2A could carry no honest vote."""
    rig = Rig(retry_interval=2.0)
    rig.run(until=3.0)
    leader = rig.endpoints[0]
    taken = leader._next_instance
    leader._record_decided(taken, Batch(((("rival", 0), "p"),)))
    rig.sim.schedule(4.0, lambda: leader.tob_cast("x", 1))
    rig.run(until=60.0)
    rig.shutdown()
    assert leader._next_instance == taken + 2
    for pid in range(3):
        assert rig.delivered[pid] == [("rival", 0), "x"]


def test_five_node_follower_waits_for_a_third_vote():
    """At n = 5 a majority is 3: the 2A (the owner's vote) and a follower's
    own vote are two, so with every 2B lost no follower decides."""
    rig = Rig(n=5)
    rig.network.filters.add(
        lambda _src, _dst, payload, _time: MessageFilter.DROP
        if payload[0] == "paxos" and payload[1][0] == "p2b"
        else None
    )
    rig.sim.schedule(5.0, lambda: rig.endpoints[0].tob_cast("x", 1))
    rig.run(until=60.0)
    assert all(not endpoint._decided for endpoint in rig.endpoints)
    assert all(rig.delivered[pid] == [] for pid in range(5))
    rig.shutdown()


@pytest.mark.parametrize("knobs", [{}, dict(max_batch=3, max_inflight=2)])
def test_single_replica_burst_is_delivered_in_fifo_order(knobs):
    """At n = 1 the leader's own vote decides inside the proposal; the
    delivery it triggers must not start a second drain that overtakes the
    one in progress."""
    rig = Rig(n=1, **knobs)
    keys = [f"k{i}" for i in range(50)]
    rig.sim.schedule(1.0, lambda: [rig.endpoints[0].tob_cast(k, k) for k in keys])
    rig.run()
    rig.shutdown()
    assert rig.delivered[0] == keys


def test_single_replica_replays_its_accepted_suffix_before_a_burst():
    """A single replica restarts with three accepted, undecided instances
    on disk and 50 casts queued behind its phase 1. Each re-proposal
    decides on the spot; a drain started by one of them would claim an
    instance number the replay has yet to reach."""
    store = InMemoryStore()
    store.put("paxos.meta", {"max_round_seen": 1, "baseline_promise": (1, 0)})
    old = [f"old{i}" for i in range(3)]
    for instance, key in enumerate(old):
        store.log("paxos.acc").append(
            (instance, (1, 0), (1, 0), Batch(((key, instance),)))
        )
    rig = Rig(n=1, stores=[store], max_batch=4, max_inflight=2)
    keys = [f"k{i}" for i in range(50)]
    rig.sim.schedule(1.5, lambda: [rig.endpoints[0].tob_cast(k, k) for k in keys])
    rig.run()
    rig.shutdown()
    assert rig.delivered[0] == old + keys


# ---------------------------------------------------------------------------
# A leader back inside Ω's timeout
# ---------------------------------------------------------------------------
def test_follower_reforwards_to_a_leader_that_recovered_unnoticed():
    """Leader 0 is down over [10, 25), shorter than Ω's timeout, so no
    follower sees a leader change. A submission sent to it at 12 is lost
    with its volatile state; its new ballot's 1A tells follower 1 to send
    it again, well before the follower's drive would."""
    retry = 20.0
    rig = Rig(
        stores=[InMemoryStore() for _ in range(3)],
        omega_timeout=35.0,
        retry_interval=retry,
    )
    stamp = {}
    rig.endpoints[1]._deliver = lambda key, payload: stamp.setdefault(
        key, rig.sim.now
    )
    rig.sim.schedule(10.0, lambda: rig.nodes[0].crash("recover"))
    rig.sim.schedule(12.0, lambda: rig.endpoints[1].tob_cast("late", 1))
    rig.sim.schedule(25.0, rig.nodes[0].recover)
    rig.run(until=25.0 + retry)
    assert rig.omegas[1].leader() == 0
    assert stamp.get("late", float("inf")) < 25.0 + retry
    rig.run()
    rig.shutdown()
    assert rig.delivered[2] == ["late"]
