"""Benchmark E8 — the performance envelope.

Shapes reproduced (the paper's qualitative performance claims):

- weak operations are cheap (modified protocol: immediate), strong
  operations pay at least one TOB round;
- Paxos TOB costs more rounds than the fixed sequencer but needs no
  sequencer;
- strong-op latency grows linearly with partition duration while weak-op
  latency stays flat;
- both protocols sustain comparable closed-loop throughput, with the
  original protocol paying extra rollbacks.
"""

from repro.analysis.experiments.performance import (
    latency_split_scenario,
    run_partition_sweep,
    run_throughput,
)
from repro.analysis.metrics import LatencyStats
from repro.core.cluster import MODIFIED, ORIGINAL


def _split(tob_engine):
    """Weak and strong latency statistics of one latency-split run."""
    result = latency_split_scenario(tob_engine=tob_engine).run(
        well_formed=False, max_time=50_000.0
    )
    return (
        LatencyStats.from_samples(result.weak_latencies),
        LatencyStats.from_samples(result.strong_latencies),
    )


def test_latency_split_sequencer(bench):
    weak, strong = bench(_split, "sequencer")
    assert weak.mean < 0.2
    assert strong.mean >= 2.0 * weak.mean
    assert strong.mean >= 1.0  # at least a TOB round


def test_latency_split_paxos(bench):
    weak, strong = bench(_split, "paxos", bench_rounds=2)
    _sequencer_weak, sequencer_strong = _split("sequencer")
    assert strong.mean > sequencer_strong.mean  # extra quorum rounds
    assert weak.mean < 0.2


def test_partition_sweep_strong_latency_tracks_duration(bench):
    points = bench(run_partition_sweep, bench_rounds=2)
    durations = [point.duration for point in points]
    strong_means = [point.strong_mean for point in points]
    weak_means = [point.weak_mean for point in points]
    assert strong_means == sorted(strong_means)          # monotone growth
    assert strong_means[-1] > strong_means[0] + 50.0     # ~duration-linear
    assert max(weak_means) < 1.0                         # weak stays flat
    assert durations == [0.0, 20.0, 50.0, 100.0]


def test_throughput_original_vs_modified(bench):
    original = bench(run_throughput, protocol=ORIGINAL, bench_rounds=2)
    modified = run_throughput(protocol=MODIFIED)
    assert original.ops_completed == modified.ops_completed == 60
    # Same order of magnitude; the modified protocol is at least as fast.
    assert modified.throughput >= 0.8 * original.throughput
