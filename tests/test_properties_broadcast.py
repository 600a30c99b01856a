"""Property-based tests for the broadcast substrates.

Random cast patterns and partition windows; the delivery contracts must
hold in every case: everyone delivers everything exactly once, total order
is shared, anti-entropy version vectors converge.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.sequencer import SequencerTOB
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_rig(endpoint_factory, n=3, partitions=None):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(0.4), partitions=partitions)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    inboxes = {pid: [] for pid in range(n)}
    endpoints = [
        endpoint_factory(
            node, lambda key, payload, pid=node.pid: inboxes[pid].append(key)
        )
        for node in nodes
    ]
    return sim, endpoints, inboxes


@SLOW
@given(
    casts=st.lists(
        st.tuples(st.integers(0, 2), st.floats(0.5, 20.0)),
        min_size=1,
        max_size=10,
    )
)
def test_rb_delivers_everything_exactly_once(casts):
    sim, endpoints, inboxes = build_rig(
        lambda node, deliver: ReliableBroadcast(node, deliver)
    )
    keys = []
    for index, (origin, at) in enumerate(casts):
        key = ("m", index)
        keys.append((origin, key))
        sim.schedule_at(
            max(at, sim.now),
            lambda o=origin, k=key: endpoints[o].rb_cast(k, None),
        )
    sim.run_until_quiescent()
    for pid in range(3):
        expected = sorted(key for origin, key in keys if origin != pid)
        assert sorted(inboxes[pid]) == expected
        assert len(inboxes[pid]) == len(set(inboxes[pid]))


@SLOW
@given(
    casts=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    split_at=st.floats(1.0, 10.0),
    heal_after=st.floats(5.0, 40.0),
)
def test_sequencer_total_order_with_partition_window(casts, split_at, heal_after):
    partitions = PartitionSchedule(3)
    partitions.split(split_at, [[0, 1], [2]])
    partitions.heal(split_at + heal_after)
    sim, endpoints, inboxes = build_rig(
        lambda node, deliver: SequencerTOB(node, deliver),
        partitions=partitions,
    )
    for index, origin in enumerate(casts):
        sim.schedule_at(
            0.5 + index * 1.3,
            lambda o=origin, k=("k", index): endpoints[o].tob_cast(k, None),
        )
    sim.run_until_quiescent()
    sequences = [endpoints[pid].delivered_sequence for pid in range(3)]
    assert sequences[0] == sequences[1] == sequences[2]
    assert len(sequences[0]) == len(casts)


@SLOW
@given(
    updates=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    seed=st.integers(0, 100),
)
def test_anti_entropy_vectors_always_converge(updates, seed):
    rng = random.Random(seed)
    sim, endpoints, inboxes = build_rig(
        lambda node, deliver: AntiEntropy(node, deliver, sync_interval=1.0)
    )
    counters = {0: 0, 1: 0, 2: 0}
    for origin in updates:
        counters[origin] += 1
        number = counters[origin]
        sim.schedule_at(
            rng.uniform(0.1, 15.0),
            lambda o=origin, n=number: endpoints[o].rb_cast((o, n), n),
        )
    sim.run_until_quiescent()
    expected = {origin: count for origin, count in counters.items() if count}
    for endpoint in endpoints:
        vector = {
            origin: frontier
            for origin, frontier in endpoint.version_vector().items()
            if frontier
        }
        assert vector == expected
