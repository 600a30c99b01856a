"""Benchmark E12 — sharded scaling and cross-shard strong operations.

Shapes reproduced / asserted:

- **the scaling gate**: on the same uniform keyed workload (12 sessions,
  360 operations, 256 keys), 4 shards deliver ≥ 2× the aggregate
  committed-op throughput of 1 shard (in practice ~2.8×), and 8 shards
  beat 4. Throughput is measured in *simulated* time, so the gate is
  deterministic — it reproduces the scale-out effect (a shard's replicas
  no longer execute the whole keyspace's traffic), not host speed;
- **skew caps scale-out**: Zipf-skewed key traffic routes dispropor-
  tionately onto the hot keys' owner shards, so every multi-shard zipf
  leg commits less throughput than its uniform counterpart;
- **staleness grows with sharding**: weak responses stabilise via the
  owner shard's TOB; more shards → more cross-traffic per session →
  a longer tentative window (monotone staleness in the sweep);
- **cross-shard strong transfers conserve money under both TOB
  engines**: the prepare/commit staging (debit on the source owner,
  credit on the target owner, both through TOB) neither mints nor loses;
  overdrawn transfers abort without touching either balance; every
  shard's replicas converge bit-identically.
"""

from repro.analysis.experiments.sharding import (
    run_conservation,
    run_scaling_case,
)

#: The acceptance gate: committed-op throughput, 4 shards vs 1.
SPEEDUP_FLOOR = 2.0


def test_scaling_gate_4_shards_uniform(bench):
    """≥ 2× aggregate committed-op throughput at 4 shards vs 1 shard."""
    one = bench(run_scaling_case, 1, "uniform", "sequencer", bench_rounds=2)
    four = run_scaling_case(4, "uniform", "sequencer")
    assert one.converged and four.converged
    assert one.committed_ops == four.committed_ops  # same workload completed
    ratio = four.committed_throughput / one.committed_throughput
    assert ratio >= SPEEDUP_FLOOR, (
        f"4 shards only {ratio:.2f}x the 1-shard committed throughput "
        f"({four.committed_throughput:.2f} vs {one.committed_throughput:.2f})"
    )


def test_scaling_monotone_and_skew_capped(bench):
    """8 shards beat 4; zipf skew commits less than uniform at 4 shards."""
    rows = [
        bench(run_scaling_case, n, skew, "sequencer", bench_rounds=1)
        if (n, skew) == (4, "uniform")
        else run_scaling_case(n, skew, "sequencer")
        for n, skew in [(4, "uniform"), (8, "uniform"), (4, "zipf"), (8, "zipf")]
    ]
    by_key = {(r.n_shards, r.skew): r for r in rows}
    assert (
        by_key[(8, "uniform")].committed_throughput
        > by_key[(4, "uniform")].committed_throughput
    )
    for n_shards in (4, 8):
        assert (
            by_key[(n_shards, "zipf")].committed_throughput
            < by_key[(n_shards, "uniform")].committed_throughput
        )
        # The hot shard takes a strictly larger share under zipf.
        assert max(by_key[(n_shards, "zipf")].routed_per_shard) > max(
            by_key[(n_shards, "uniform")].routed_per_shard
        )


def test_staleness_grows_with_shard_count():
    """Weak-op staleness (response → TOB-stable lag) rises with sharding."""
    one = run_scaling_case(1, "uniform", "sequencer")
    four = run_scaling_case(4, "uniform", "sequencer")
    eight = run_scaling_case(8, "uniform", "sequencer")
    assert one.weak_staleness <= four.weak_staleness <= eight.weak_staleness


def test_conservation_both_tob_engines(bench):
    """Cross-shard strong transfers: conserved, bit-identical, both TOBs."""
    sequencer = bench(run_conservation, "sequencer", bench_rounds=2)
    paxos = run_conservation("paxos")
    for row in (sequencer, paxos):
        assert row.conserved, (
            f"{row.tob_engine}: Σ {row.initial_total} -> {row.final_total}"
        )
        assert row.shards_bit_identical
        assert row.converged
        assert row.cross_shard_transfers > 0  # the leg actually crossed shards
        assert row.aborted_transfers == 3  # every overdraw refused
    # Both engines agree on the outcome of every transfer.
    assert (
        sequencer.committed_transfers == paxos.committed_transfers
        and sequencer.final_total == paxos.final_total
    )
