"""Unit tests for the simulated network."""

import pytest

from repro.net.faults import MessageFilter
from repro.net.network import FixedLatency, Network, UniformLatency
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import SeededRngRegistry


class Recorder(Process):
    """A process that records what it receives and when."""

    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.sim.now, sender, message))


def build(n=2, **kwargs):
    sim = Simulator()
    network = Network(sim, n, **kwargs)
    processes = [Recorder(SimRuntime(sim), pid) for pid in range(n)]
    for process in processes:
        network.register(process)
    return sim, network, processes


def test_fixed_latency_delivery():
    sim, network, processes = build(latency=FixedLatency(2.5))
    network.send(0, 1, "hello")
    sim.run()
    assert processes[1].received == [(2.5, 0, "hello")]


def test_fifo_per_link_even_with_random_latency():
    sim, network, processes = build(
        latency=UniformLatency(0.1, 5.0, SeededRngRegistry(3))
    )
    for index in range(20):
        network.send(0, 1, index)
    sim.run()
    payloads = [message for (_, _, message) in processes[1].received]
    assert payloads == list(range(20))


def test_self_send_pays_latency_and_respects_filters():
    sim, network, processes = build(latency=FixedLatency(1.0))
    network.send(0, 0, "loopback")
    sim.run()
    assert processes[0].received == [(1.0, 0, "loopback")]


def test_broadcast_excludes_self_by_default():
    sim, network, processes = build(n=3)
    network.broadcast(0, "ping")
    sim.run()
    assert processes[0].received == []
    assert len(processes[1].received) == 1
    assert len(processes[2].received) == 1


def test_broadcast_include_self():
    sim, network, processes = build(n=3)
    network.broadcast(0, "ping", include_self=True)
    sim.run()
    assert len(processes[0].received) == 1


def test_filter_drop():
    filters = MessageFilter()
    filters.drop_between(0, 1)
    sim, network, processes = build(filters=filters)
    network.send(0, 1, "lost")
    network.send(1, 0, "kept")
    sim.run()
    assert processes[1].received == []
    assert len(processes[0].received) == 1
    assert network.dropped_count == 1


def test_filter_delays_accumulate():
    filters = MessageFilter()
    filters.delay_between(0, 1, 2.0)
    filters.delay_between(0, 1, 3.0)
    sim, network, processes = build(latency=FixedLatency(1.0), filters=filters)
    network.send(0, 1, "slow")
    sim.run()
    assert processes[1].received[0][0] == pytest.approx(6.0)


def test_partition_buffers_and_heals():
    partitions = PartitionSchedule(2)
    partitions.split(0.0, [[0], [1]])
    partitions.heal(50.0)
    sim, network, processes = build(
        latency=FixedLatency(1.0), partitions=partitions
    )
    network.send(0, 1, "delayed")
    sim.run()
    # Delivered at the heal boundary, not earlier — sender and payload intact.
    assert processes[1].received == [(50.0, 0, "delayed")]
    assert network.held_count == 0


def test_permanent_partition_holds_messages():
    partitions = PartitionSchedule(2)
    partitions.split(0.0, [[0], [1]])
    sim, network, processes = build(
        latency=FixedLatency(1.0), partitions=partitions
    )
    network.send(0, 1, "stuck")
    sim.run()
    assert processes[1].received == []
    assert network.held_count == 1
    # Healing after the fact + reschedule delivers the held message.
    partitions.heal(sim.now)
    network.reschedule_held()
    sim.run()
    assert processes[1].received == [(sim.now, 0, "stuck")]
    assert (network.held_count, network.delivered_count) == (0, 1)


def test_crashed_process_drops_messages():
    sim, network, processes = build()
    processes[1].crash()
    network.send(0, 1, "into the void")
    sim.run()
    assert processes[1].received == []
    # Sent, never consumed: suppressed, not delivered.
    assert (network.sent_count, network.delivered_count) == (1, 0)
    assert network.suppressed_count == 1


def _jittered_run(drop_first: bool):
    """Three sends 0->1 under jitter; optionally a filter, registered after
    the network was built, eats a 1->0 send made before them."""
    sim, network, processes = build(
        latency=UniformLatency(1.0, 5.0, SeededRngRegistry(5))
    )
    if drop_first:
        network.filters.drop_between(1, 0)
        network.send(1, 0, "eaten")
    for index in range(3):
        network.send(0, 1, index)
    sim.run()
    return network, processes[1].received


def test_filter_dropped_message_draws_no_latency_sample():
    """The verdict comes before the sample: dropping a message must not
    shift the latency stream under every later one."""
    plain_network, plain = _jittered_run(drop_first=False)
    dropped_network, after_drop = _jittered_run(drop_first=True)
    assert after_drop == plain
    assert len({time for time, _, _ in plain}) == 3  # jitter really drew
    assert (dropped_network.dropped_count, dropped_network.sent_count) == (1, 3)
    assert plain_network.dropped_count == 0


def test_counters():
    sim, network, processes = build(n=3)
    network.broadcast(0, "x")
    sim.run()
    assert network.sent_count == 2
    assert network.delivered_count == 2
