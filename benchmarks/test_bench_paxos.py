"""Benchmark E16 — batched, pipelined Multi-Paxos gates.

Shapes reproduced / asserted:

- **amortization**: on a 1000-op burst submitted at the leader, batching
  collapses the per-op message cost from the unbatched configuration's
  (``max_batch=1``, no pipeline cap: one instance per op) ~6 messages/op
  to under one, >= 5x fewer messages per committed op, while consuming
  far fewer consensus instances than ops;
- **order is untouched**: the burst histories of the unbatched
  configuration, the batched configuration and the fixed sequencer are
  bit-identical — batching changes the cost of the total order, never the
  order;
- **the E13 dip collapses**: the live-resharding handoff window on the
  Paxos engine is no longer a multiple of the sequencer's — proactive
  prepares plus the pipelined barrier keep it within 2x (measured: equal).

The wall-clock gate on the same burst (batched >= 3x the unbatched
committed-op rate) is a ratio of two timed runs, so it lives in
``test_bench_timing.py`` under the ``timing`` marker.
"""

from repro.analysis.experiments.batching import run_leg
from repro.analysis.experiments.resharding import run_split_case

#: Messages per committed op: unbatched vs batched configuration.
AMORTIZATION_FLOOR = 5.0
#: E13 handoff window: paxos vs sequencer engine.
DIP_WINDOW_CEILING = 2.0

BURST_OPS = 1000


def test_batched_burst_throughput_and_amortization(bench):
    """The 1000-op burst: >=5x fewer messages/op, the same history."""
    unbatched, unbatched_history = bench(
        run_leg, "paxos-unbatched", BURST_OPS, bench_rounds=2
    )
    batched, batched_history = run_leg("paxos-batched", BURST_OPS)
    assert batched_history == unbatched_history  # bit-identical total order
    amortization = unbatched.messages_per_op / batched.messages_per_op
    assert amortization >= AMORTIZATION_FLOOR, (
        f"messages/op only improved {amortization:.1f}x "
        f"({unbatched.messages_per_op:.2f} -> {batched.messages_per_op:.2f})"
    )
    # Batching is real: far fewer consensus instances than operations,
    # and the unbatched configuration really does pay one instance per op.
    assert unbatched.instances == BURST_OPS
    assert batched.instances <= BURST_OPS // 10


def test_sequencer_history_matches_the_paxos_burst():
    """The protocol-free floor agrees on the order too (same origin)."""
    batched, batched_history = run_leg("paxos-batched", BURST_OPS)
    sequencer, sequencer_history = run_leg("sequencer", BURST_OPS)
    assert batched_history == sequencer_history
    # The sequencer's 4 messages/op is the floor shape; batching beats it.
    assert batched.messages_per_op < sequencer.messages_per_op


def test_resharding_dip_window_paxos_vs_sequencer(bench):
    """E13 handoff window on paxos within 2x of the sequencer engine."""
    paxos = bench(run_split_case, "uniform", "paxos", bench_rounds=2)
    sequencer = run_split_case("uniform", "sequencer")
    assert paxos.converged and sequencer.converged
    assert paxos.window <= DIP_WINDOW_CEILING * sequencer.window, (
        f"paxos handoff window {paxos.window:.1f} vs "
        f"sequencer {sequencer.window:.1f}: the migration dip is back"
    )
    # The window dips but never stalls on either engine.
    assert paxos.dip_ratio > 0.0
