"""Property-based tests for the batched, pipelined Paxos TOB.

The batching/pipelining knobs trade messages for latency; they must never
trade *order*. Random schedules and random knob settings pin the contract:

- leader-origin schedules deliver in cast order on every engine — the
  batched engine, its unbatched configuration (one entry per instance, no
  pipeline cap), and the fixed sequencer all produce the bit-identical
  history;
- arbitrary multi-origin schedules deliver identically under any knob
  setting (batching amortizes cost; the drained FIFO order is invariant);
- a leader crash mid-batch neither loses nor duplicates operations: the
  survivors agree on one history containing every cast exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.sequencer import SequencerTOB
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator

SLOW = settings(max_examples=15)

UNBATCHED = dict(max_batch=1, max_inflight=None)

knob_settings = st.fixed_dictionaries(
    {
        "max_batch": st.integers(min_value=1, max_value=8),
        "max_inflight": st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    }
)


class Rig:
    """A bare 3-node TOB rig: paxos with knobs, or the sequencer."""

    def __init__(self, knobs=None):
        self.sim = Simulator()
        self.network = Network(self.sim, 3, latency=FixedLatency(1.0))
        self.nodes = [RoutingNode(SimRuntime(self.sim, self.network), pid) for pid in range(3)]
        self.delivered = {pid: [] for pid in range(3)}
        self.endpoints = []
        self.omegas = []
        for node in self.nodes:
            deliver = lambda key, payload, pid=node.pid: self.delivered[pid].append(key)
            if knobs is None:
                self.endpoints.append(SequencerTOB(node, deliver, sequencer_pid=0))
            else:
                omega = OmegaFailureDetector(node, heartbeat_interval=3.0, timeout=10.0)
                self.omegas.append(omega)
                self.sim.schedule(0.0, omega.start)
                self.endpoints.append(
                    PaxosTOB(node, deliver, omega, retry_interval=8.0, **knobs)
                )

    def cast_all(self, casts):
        """Schedule ``(origin, time, key)`` casts; stable order per instant."""
        for origin, at, key in casts:
            self.sim.schedule_at(
                at, lambda o=origin, k=key: self.endpoints[o].tob_cast(k, None)
            )

    def finish(self, until):
        self.sim.run(until=until)
        for endpoint in self.endpoints:
            endpoint.stop()
        for omega in self.omegas:
            omega.stop()
        self.sim.run()


def slots_to_casts(slots, origins=None):
    """Quantized cast times (0.25 grid) keep schedules reproducible."""
    return [
        (origins[i] if origins else 0, 1.0 + 0.25 * slot, ("k", i))
        for i, slot in enumerate(slots)
    ]


@SLOW
@given(knobs=knob_settings, slots=st.lists(st.integers(0, 40), min_size=1, max_size=12))
def test_leader_origin_schedules_match_cast_order_on_every_engine(knobs, slots):
    """All casts at node 0: batched, unbatched and sequencer histories are
    all bit-identical — and equal to the (time, cast-index) order."""
    casts = slots_to_casts(slots)
    expected = [key for _, _, key in sorted(casts, key=lambda c: c[1])]
    for engine_knobs in (knobs, UNBATCHED, None):
        rig = Rig(engine_knobs)
        rig.cast_all(casts)
        rig.finish(until=200.0)
        for pid in range(3):
            assert rig.delivered[pid] == expected


@SLOW
@given(
    knobs=knob_settings,
    schedule=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 40)), min_size=1, max_size=12
    ),
)
def test_any_knob_setting_delivers_the_seed_mode_history(knobs, schedule):
    """Multi-origin schedules: batching must be invisible in the history,
    which equals the unbatched configuration's."""
    origins = [origin for origin, _ in schedule]
    casts = slots_to_casts([slot for _, slot in schedule], origins)
    histories = []
    for engine_knobs in (knobs, UNBATCHED):
        rig = Rig(engine_knobs)
        rig.cast_all(casts)
        rig.finish(until=200.0)
        assert rig.delivered[0] == rig.delivered[1] == rig.delivered[2]
        histories.append(rig.delivered[0])
    assert histories[0] == histories[1]


@SLOW
@given(
    knobs=knob_settings,
    schedule=st.lists(
        st.tuples(st.integers(1, 2), st.integers(0, 40)), min_size=1, max_size=10
    ),
    crash_slot=st.integers(0, 48),
)
def test_leader_crash_mid_batch_loses_and_duplicates_nothing(
    knobs, schedule, crash_slot
):
    """Crash the initial leader at a random instant while survivors keep
    casting: the survivors converge on one history with every op once."""
    origins = [origin for origin, _ in schedule]
    casts = slots_to_casts([slot for _, slot in schedule], origins)
    rig = Rig(knobs)
    rig.cast_all(casts)
    rig.sim.schedule_at(
        0.75 + 0.25 * crash_slot, lambda: rig.nodes[0].crash("stop")
    )
    rig.finish(until=300.0)
    assert rig.delivered[1] == rig.delivered[2]
    assert sorted(rig.delivered[1]) == sorted(key for _, _, key in casts)
