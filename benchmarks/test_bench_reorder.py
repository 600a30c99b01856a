"""Benchmark E9 — the checkpointed incremental reorder engine.

Shapes reproduced / asserted:

- the stepwise (seed) and batched (+checkpoint) engines produce
  **bit-identical observables** on the divergent-suffix schedule: same
  history events (responses, return times, TOB positions), snapshots,
  committed orders and rollback/execution counts;
- rollback work scales with ``waves × log_length`` (the Section 2.3
  regime), and the checkpoint restore path actually fires;
- on the drifting-clock schedule, checkpointing is observably free:
  checkpointed and checkpoint-free replicas of the *same* engine agree
  bit-for-bit, while the batched engine coalesces overlapping reorders
  (never more logical rollbacks than stepwise, typically fewer).

The ≥ 3× speedup gate on the 10⁴-length storm reads the wall clock, so it
lives in ``benchmarks/test_bench_timing.py`` (the ``timing`` marker).
See ``docs/PERFORMANCE.md`` for the full discussion.
"""

import pytest

from repro.analysis.experiments.reorder import (
    run_divergent_suffix,
    run_drifting_clock,
)


def test_divergent_suffix_bit_identical_all_engines(bench):
    """Full-run fingerprints agree across all three engine configurations
    (default knobs: perceived traces on)."""
    stepwise = bench(
        run_divergent_suffix, 200, waves=2, reorder_engine="stepwise"
    )
    batched = run_divergent_suffix(200, waves=2, reorder_engine="batched")
    checkpointed = run_divergent_suffix(
        200, waves=2, reorder_engine="batched", checkpoint_interval=32
    )
    assert stepwise.observables() == batched.observables()
    assert stepwise.observables() == checkpointed.observables()
    assert stepwise.rollbacks == [400, 0, 0]
    assert checkpointed.checkpoint_restores[0] == 2


@pytest.mark.parametrize("log_length", [100, 1_000])
def test_divergent_suffix_scaling(bench, log_length):
    """Rollback work scales with waves × log length; restores fire."""
    result = bench(
        run_divergent_suffix,
        log_length,
        waves=2,
        reorder_engine="batched",
        checkpoint_interval=64,
        record_perceived_traces=False,
        bench_rounds=2,
    )
    assert result.rollbacks == [2 * log_length, 0, 0]
    assert result.checkpoint_restores[0] == 2
    assert result.final_snapshot["counter:value"] == log_length + 2


@pytest.mark.parametrize("log_length", [100, 1_000])
def test_drifting_clock_checkpointing_is_free(bench, log_length):
    """Same engine, checkpoints on/off: bit-identical down to timings."""
    plain = bench(
        run_drifting_clock,
        log_length,
        reorder_engine="batched",
        bench_rounds=2,
    )
    checkpointed = run_drifting_clock(
        log_length, reorder_engine="batched", checkpoint_interval=32
    )
    assert plain.observables() == checkpointed.observables()


def test_drifting_clock_batched_coalesces_rollback_storms(bench):
    """Under backlog the batched engine merges overlapping reorders, so it
    never performs more logical rollbacks than stepwise (and typically
    fewer); final states agree regardless."""
    stepwise = bench(run_drifting_clock, 400, reorder_engine="stepwise")
    batched = run_drifting_clock(400, reorder_engine="batched")
    assert batched.final_snapshot == stepwise.final_snapshot
    assert batched.committed_order == stepwise.committed_order
    assert sum(batched.rollbacks) <= sum(stepwise.rollbacks)
    assert stepwise.rollbacks[0] > 400  # the storm the paper worries about
