"""Telemetry must be a pure observer: seeded runs are bit-identical on/off.

The plane's core promise (ISSUE 9 acceptance): instrumentation is
append-only — nothing the tracer or the metrics registry records may feed
back into a protocol or control decision. These tests run the *same seeded
scenario* twice, identical except for ``.telemetry(True)``, and require the
protocol-visible outcome to match exactly: per-replica committed dot
sequences, final state snapshots, every labelled op's full timestamp
vector, and (sharded) the epoch/migration history the autonomous placement
controller produced. The sharded leg is the sharp one — with telemetry
armed, the controller's :class:`~repro.shard.control.stats.ShardStats`
reads its windows out of the *shared* metrics registry, so any divergence
there means observation leaked into control.

A third check runs the instrumented scenario twice and requires the span
stream itself to be deterministic — same spans, same order, same
timestamps — so traces are reproducible evidence, not samples. A fourth
runs a small E10 reorder storm with the plane absent, disabled and enabled:
the deterministic half of the wall-clock overhead gate.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.experiments.reorder import build_divergent_suffix
from repro.datatypes import KVStore
from repro.obs import Telemetry
from repro.scenario import Scenario

KEYS = [f"k{i:02d}" for i in range(16)]


# ---------------------------------------------------------------------------
# Single cluster
# ---------------------------------------------------------------------------


def _single(telemetry: bool) -> Dict[str, Any]:
    scenario = (
        Scenario(KVStore(), name="det-single")
        .replicas(3)
        .exec_delay(0.05)
        .message_delay(0.2)
        .workload(
            "kv", keys=KEYS, ops_per_session=8, think_time=0.4, seed=42
        )
        .invoke(1.0, 0, KVStore.put("k00", "a"), label="w0")
        .invoke(2.0, 1, KVStore.put("k01", "b"), strong=True, label="s0")
        .invoke(3.0, 2, KVStore.get("k00"), label="r0")
    )
    if telemetry:
        scenario.telemetry(True)
    result = scenario.run(well_formed=False)
    return {
        "committed": [
            [req.dot for req in replica.committed]
            for replica in result.cluster.replicas
        ],
        "state": result.cluster.replicas[0].state.snapshot(),
        "timestamps": result.op_timestamps(),
        "converged": bool(result.convergence["converged"]),
    }


def test_single_cluster_outcome_identical_with_telemetry_on():
    assert _single(False) == _single(True)


# ---------------------------------------------------------------------------
# Sharded, with the autonomous controller in the loop
# ---------------------------------------------------------------------------


def _sharded(telemetry: bool) -> Dict[str, Any]:
    scenario = (
        Scenario(KVStore(), name="det-sharded")
        .shards(2)
        .replicas(2)
        .exec_delay(0.1)
        .message_delay(0.2)
        .autoscale(
            "power-of-two",
            interval=2.0,
            threshold=1.2,
            cooldown=4.0,
            min_window_ops=4,
        )
        .workload(
            "kv",
            keys=KEYS,
            key_skew="zipf",
            zipf_s=1.6,
            ops_per_session=12,
            think_time=0.3,
            seed=7,
            sessions=6,
        )
    )
    if telemetry:
        scenario.telemetry(True)
    result = scenario.run(well_formed=False)
    deployment = result.deployment
    return {
        "epoch": deployment.epoch,
        "migrations": len(deployment.migrations),
        "committed": {
            index: [
                [req.dot for req in replica.committed]
                for replica in deployment.shards[index].replicas
            ]
            for index in deployment.live_shard_indexes()
        },
        "state": {
            index: deployment.shards[index].replicas[0].state.snapshot()
            for index in deployment.live_shard_indexes()
        },
        "converged": bool(result.convergence["converged"]),
    }


def test_sharded_controller_outcome_identical_with_telemetry_on():
    assert _sharded(False) == _sharded(True)


# ---------------------------------------------------------------------------
# The traces themselves are deterministic
# ---------------------------------------------------------------------------


def _span_stream():
    result = (
        Scenario(KVStore(), name="det-spans")
        .replicas(3)
        .exec_delay(0.05)
        .message_delay(0.2)
        .telemetry(True)
        .workload(
            "kv", keys=KEYS, ops_per_session=6, think_time=0.4, seed=9
        )
        .run(well_formed=False)
    )
    return result.telemetry.spans_jsonable()


def test_span_stream_is_reproducible():
    first, second = _span_stream(), _span_stream()
    assert first == second
    assert len(first) > 0


# ---------------------------------------------------------------------------
# The reorder storm: absent, disabled and enabled planes agree
# ---------------------------------------------------------------------------


def _storm(telemetry):
    rig = build_divergent_suffix(
        200, waves=2, record_perceived_traces=False, telemetry=telemetry
    ).settle_setup()
    rig.run_waves()
    return rig.finish()


def test_reorder_storm_outcome_identical_across_planes():
    """The deterministic half of the telemetry overhead gate
    (``benchmarks/test_bench_timing.py``), at a scale tier-1 can afford."""
    enabled = Telemetry(trace_capacity=500)
    none, disabled, traced = (
        _storm(plane) for plane in (None, Telemetry(enabled=False), enabled)
    )
    assert none.observables() == disabled.observables() == traced.observables()
    assert [run.rollbacks for run in (none, disabled, traced)] == [[400, 0, 0]] * 3
    assert len(enabled.tracer) == 500
    assert enabled.tracer.dropped > 0
    assert enabled.registry.counter_total("repro_rollbacks") == 400
