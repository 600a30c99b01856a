"""The message pattern of a fault-free Paxos run carries nothing redundant.

The paper's protocol RB-casts every request and TOB-casts it; the Paxos TOB
then costs a 2A round and a dual-2B round per instance. In dual-2B mode the
leader's own acceptor accepts a value in the leader's process, durably,
before the 2A leaves, so the 2A is the leader's vote and its acceptance is
a local write, not a message. Six kinds of send would carry nothing the
receiver does not already have, and none of them may appear:

- a ``p2a`` addressed to its own sender;
- a ``p2b`` from the ballot's owner (its 2A carried that vote);
- a ``p2b`` addressed to its own sender (the acceptor tallies its own vote
  locally);
- an RB relay back to the node the relaying receiver got the cast from
  (that node logged the payload before it sent it);
- anti-entropy ``status`` probes and the ``repair`` answers they draw in a
  run that loses nothing;
- drive-timer resends of entries sent less than one drive interval ago,
  which the ceiling on sends per op pins.

Two liveness tests hold on either side of that diet: a lost 2A is still
retransmitted by the drive timer, and an RB cast that reached one peer only
still reaches the third replica through the relay after its origin
crash-stops (uniform reliability).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Tuple

import pytest

from repro.broadcast.reliable import ReliableBroadcast
from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.kvstore import KVStore
from repro.net.faults import MessageFilter
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator

OPS = 100
#: Sends per op of the fault-free run below: per instance two 2A and four
#: 2B (each follower's to the two other nodes); per op four RB casts (two
#: from the origin, one relay from each peer) and two thirds of a
#: ``submit``; then Ω heartbeats and one phase 1 (11.38 in all). A
#: self-addressed 2A and the leader's two 2Bs cost three more (14.38), the
#: other redundant sends above six more again (20.52).
SENDS_PER_OP_CEILING = 11.5


def _config(**overrides: Any) -> BayouConfig:
    settings = dict(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=1.0,
        latency_jitter=0.3,
        tob_engine="paxos",
        heartbeat_interval=10.0,
        failure_timeout=35.0,
        paxos_retry_interval=20.0,
        record_perceived_traces=False,
        seed=11,
    )
    settings.update(overrides)
    return BayouConfig(**settings)


def _schedule_ops(cluster: BayouCluster, count: int, *, seed: int = 11) -> None:
    """``count`` put/get operations spread over the replicas, one in four
    strong."""
    rng = random.Random(seed)
    at = 1.0
    for index in range(count):
        at += rng.uniform(0.2, 0.8)
        key = f"k{rng.randrange(8)}"
        op = KVStore.get(key) if rng.random() < 0.3 else KVStore.put(key, index)
        cluster.schedule_invoke(at, index % 3, op, strong=index % 4 == 0)


@pytest.fixture
def sends(monkeypatch) -> List[Tuple[int, int, Any]]:
    """Every ``(sender, receiver, payload)`` the network accepts.

    The wrapper goes on the class before any cluster is built: the sim
    runtime binds ``network.send`` when it is constructed.
    """
    log: List[Tuple[int, int, Any]] = []
    send = Network.send

    def counting_send(self, sender, receiver, payload):
        log.append((sender, receiver, payload))
        return send(self, sender, receiver, payload)

    monkeypatch.setattr(Network, "send", counting_send)
    return log


@pytest.fixture
def first_cast_from(monkeypatch) -> Dict[Tuple[int, Any], int]:
    """``(receiver, key) -> sender`` of the cast that first delivered ``key``."""
    origin: Dict[Tuple[int, Any], int] = {}
    handle = ReliableBroadcast._handle_cast

    def recording_handle(self, sender, key, payload):
        if key not in self._log:
            origin[(self.node.pid, key)] = sender
        return handle(self, sender, key, payload)

    monkeypatch.setattr(ReliableBroadcast, "_handle_cast", recording_handle)
    return origin


@pytest.fixture
def fault_free_run(sends, first_cast_from):
    cluster = BayouCluster(KVStore(), _config())
    _schedule_ops(cluster, OPS)
    assert cluster.run_until_stable(max_time=2_000.0)
    cluster.shutdown()
    cluster.run_until_quiescent()
    assert all(future.done for future in cluster.ops.futures.values())
    return cluster, sends, first_cast_from


def _kind(payload: Any) -> Tuple[str, Any]:
    """``(component tag, message kind)``; Ω heartbeats carry no kind."""
    tag, message = payload
    return tag, message[0] if isinstance(message, tuple) else None


def _kinds(sends) -> Counter:
    return Counter(_kind(payload) for _, _, payload in sends)


def test_no_p2b_is_addressed_to_its_sender(fault_free_run):
    _, sends, _ = fault_free_run
    p2b = [(s, r) for s, r, payload in sends if _kind(payload) == ("paxos", "p2b")]
    assert p2b, "the run must exercise the dual-2B path"
    assert [(s, r) for s, r in p2b if s == r] == []


def test_the_leaders_2a_is_its_vote(fault_free_run):
    """No 2A to its own sender and no 2B from the ballot's owner."""
    _, sends, _ = fault_free_run
    p2a = [(s, r) for s, r, payload in sends if _kind(payload) == ("paxos", "p2a")]
    assert p2a, "the run must exercise the 2A path"
    assert [(s, r) for s, r in p2a if s == r] == []
    owner_p2b = [
        (s, r)
        for s, r, payload in sends
        if _kind(payload) == ("paxos", "p2b") and payload[1][1][1] == s
    ]
    assert owner_p2b == []


def test_no_rb_relay_goes_back_to_where_it_came_from(fault_free_run):
    _, sends, first_cast_from = fault_free_run
    casts = [
        (s, r, payload[1][1])
        for s, r, payload in sends
        if _kind(payload) == ("rb", "cast")
    ]
    assert len(casts) >= 2 * OPS
    back = [
        (s, r, key) for s, r, key in casts if first_cast_from.get((s, key)) == r
    ]
    assert back == []


def test_fault_free_run_sends_no_catchup(fault_free_run):
    _, sends, _ = fault_free_run
    kinds = _kinds(sends)
    assert kinds[("paxos", "status")] == 0
    assert kinds[("paxos", "repair")] == 0
    assert kinds[("rb", "repair")] == 0


def test_sends_per_op_stay_under_the_ceiling(fault_free_run):
    cluster, sends, _ = fault_free_run
    assert len(cluster.ops.futures) == OPS
    assert len(sends) / OPS <= SENDS_PER_OP_CEILING, _kinds(sends)


def test_lost_2a_is_retransmitted_by_the_drive(sends):
    """The first 2A of one instance is lost on its way to both acceptors;
    the leader's drive re-broadcasts it within two drive intervals of the
    loss, and every replica decides the instance one round trip later."""
    config = _config()
    interval = config.paxos_retry_interval
    round_trip = 2 * (config.message_delay + config.latency_jitter)
    target = 5
    dropped: List[float] = []

    def drop_first_2a(sender, receiver, payload, now):
        tag, message = payload
        if (
            tag == "paxos"
            and message[0] == "p2a"
            and message[2] == target
            and sender != receiver
            and len(dropped) < 2
        ):
            dropped.append(now)
            return MessageFilter.DROP
        return None

    filters = MessageFilter()
    filters.add(drop_first_2a)
    cluster = BayouCluster(KVStore(), config, filters=filters)
    _schedule_ops(cluster, 20)
    while not dropped and cluster.sim.now < 60.0:
        cluster.run(until=cluster.sim.now + 0.5)
    assert len(dropped) == 2 and dropped[0] == dropped[1]
    lost_at = dropped[0]
    tobs = [replica.tob for replica in cluster.replicas]
    assert all(target not in tob._decided for tob in tobs)

    cluster.run(until=lost_at + 2 * interval)
    resent = [
        s
        for s, r, payload in sends
        if _kind(payload) == ("paxos", "p2a") and payload[1][2] == target
        and s != r
    ]
    assert len(resent) >= 4  # the two lost, then a re-broadcast to both
    cluster.run(until=lost_at + 2 * interval + round_trip)
    assert all(target in tob._decided for tob in tobs)

    assert cluster.run_until_stable(max_time=2_000.0)
    cluster.shutdown()
    cluster.run_until_quiescent()
    logs = [tob.delivered_sequence for tob in tobs]
    assert logs[0] == logs[1] == logs[2] and len(logs[0]) == 20


def test_relay_reaches_third_replica_after_origin_crash_stops():
    """Uniform reliability: the origin's cast reaches replica 1 only (a
    drop filter eats the copy to replica 2), then the origin crash-stops.
    Replica 1's relay still delivers the payload at replica 2."""
    sim = Simulator()
    filters = MessageFilter()

    def drop_origin_to_two(sender, receiver, payload, now):
        return MessageFilter.DROP if (sender, receiver) == (0, 2) else None

    filters.add(drop_origin_to_two)
    network = Network(sim, 3, latency=FixedLatency(1.0), filters=filters)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(3)]
    inboxes: Dict[int, List[Any]] = {pid: [] for pid in range(3)}
    endpoints = [
        ReliableBroadcast(
            node, lambda key, payload, pid=node.pid: inboxes[pid].append(key)
        )
        for node in nodes
    ]
    endpoints[0].rb_cast("m1", {"data": 1})
    nodes[0].crash("stop")
    sim.run()
    assert network.dropped_count == 1
    assert inboxes[1] == ["m1"]
    assert inboxes[2] == ["m1"]
