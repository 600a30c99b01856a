"""Benchmark E9 — the checkpointed incremental reorder engine at scale.

Shapes reproduced / asserted:

- the stepwise (seed) and batched (+checkpoint) engines produce
  **bit-identical observables** on the divergent-suffix schedule: same
  history events (responses, return times, TOB positions), snapshots,
  committed orders and rollback/execution counts;
- on the 10⁴-length divergent-suffix scenario the checkpointed batched
  engine drains the rollback–replay storm ≥ 3× faster than the
  checkpoint-free stepwise path (in practice ~5–8×);
- rollback work scales with ``waves × log_length`` (the Section 2.3
  regime), and the checkpoint restore path actually fires;
- on the drifting-clock schedule, checkpointing is observably free:
  checkpointed and checkpoint-free replicas of the *same* engine agree
  bit-for-bit, while the batched engine coalesces overlapping reorders
  (never more logical rollbacks than stepwise, typically fewer).

Methodology: the speedup test times **only the wave window** — the
rollback–replay storm itself — via ``DivergentSuffixRig``; cluster
construction, the tentative-log build-up and the final commit flood are
identical in both modes and excluded. Perceived-trace capture is disabled
(``record_perceived_traces=False``) so O(n²) formal-framework bookkeeping
does not drown the engines' difference.
See ``docs/PERFORMANCE.md`` for the full discussion.
"""

import time

import pytest

from repro.analysis.experiments.reorder import (
    build_divergent_suffix,
    run_divergent_suffix,
    run_drifting_clock,
)

#: The acceptance gate: checkpointed batched vs checkpoint-free stepwise.
SPEEDUP_FLOOR = 3.0
SCALE_LOG_LENGTH = 10_000
SCALE_WAVES = 3
CHECKPOINT_INTERVAL = 256


def _time_waves(reorder_engine, checkpoint_interval, *, rounds=2):
    """Best-of-``rounds`` wall time of the wave window, plus one run's result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        rig = build_divergent_suffix(
            SCALE_LOG_LENGTH,
            waves=SCALE_WAVES,
            reorder_engine=reorder_engine,
            checkpoint_interval=checkpoint_interval,
            record_perceived_traces=False,
        ).settle_setup()
        started = time.perf_counter()
        rig.run_waves()
        best = min(best, time.perf_counter() - started)
        result = rig.finish()
    return best, result


def test_divergent_suffix_speedup_at_scale():
    """The acceptance gate: ≥ 3× on the 10⁴-length divergent suffix,
    observables bit-identical between the two modes."""
    stepwise_time, stepwise = _time_waves("stepwise", None)
    checkpointed_time, checkpointed = _time_waves("batched", CHECKPOINT_INTERVAL)

    assert stepwise.observables() == checkpointed.observables()
    assert stepwise.rollbacks == [SCALE_WAVES * SCALE_LOG_LENGTH, 0, 0]
    assert checkpointed.checkpoint_restores[0] >= SCALE_WAVES

    speedup = stepwise_time / checkpointed_time
    assert speedup >= SPEEDUP_FLOOR, (
        f"checkpointed batched engine only {speedup:.2f}x faster "
        f"({stepwise_time:.3f}s vs {checkpointed_time:.3f}s)"
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
