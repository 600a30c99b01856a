"""Experiment E14 — autonomous rebalancing: self-healing under a moving hotspot.

E13 measured what one *operator-triggered* live migration costs; E14
closes the loop: nobody calls ``split``/``move`` — a
:class:`~repro.shard.control.controller.PlacementController` watches the
metrics plane the router exports (per-shard routed-op counters plus a
space-saving hot-key sketch) and drives migrations itself.

The adversary is a **shifting Zipf hotspot**
(:class:`~repro.analysis.workload.ShiftingHotspotSampler`): the hot key
rotates at scheduled simulated times through keys that all hash to the
*same* shard, so a static hash placement serves every phase from one
queue — and no single manual migration fixes it, because the hotspot
moves again. Three legs, same seeded workload:

- **baseline** — the deployment as born, no controller: the hot shard's
  backlog grows (``exec_delay`` is charged per queued request, so the
  closed-loop clients stall behind it);
- **controlled** — the same deployment with ``autoscale()`` armed, one
  leg per policy (``power-of-two`` spreads the hot key to the coldest
  shard; ``hot-key-isolation`` spawns a fresh shard for it);
- **oracle** — a *clairvoyant static* placement: every key that will
  ever be hot is isolated onto its own shard **before traffic starts**
  (:meth:`ShardedCluster.static_reassign` — placement without handoff).
  The oracle pays no migration cost and never mis-detects — the bar the
  25% gate measures the controllers against.

Gates (enforced as CI benchmark gates in
``benchmarks/test_bench_rebalancing.py``):

- each controlled leg triggers **at least one** automatic migration and
  every migration completes (epoch activated, bit-identical per-shard
  convergence);
- controlled committed-op throughput is within **25% of the oracle**;
- controlled **strictly beats** the no-controller baseline.

Run with ``python -m repro rebalance`` (``--json FILE`` writes the
artifact).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

from repro.analysis.metrics import committed_op_rate, weak_staleness_samples
from repro.analysis.report import format_columns
from repro.datatypes.kvstore import KVStore
from repro.scenario import Scenario
from repro.shard.control.strategy import single_key_range
from repro.shard.partitioner import Reassignment, ShardMap

N_SHARDS = 2
REPLICAS_PER_SHARD = 2
SESSIONS = 8
OPS_PER_SESSION = 36
N_KEYS = 64
N_PHASES = 3
EXEC_DELAY = 0.4
MESSAGE_DELAY = 0.2
ZIPF_S = 1.8
STRONG_PROBABILITY = 0.05
THINK_TIME = 0.1
SEED = 5
#: When the hot key rotates (two shifts → three phases).
SHIFT_TIMES = (40.0, 80.0)

#: Controller knobs shared by the controlled legs.
CONTROLLER = dict(
    threshold=1.3,
    cooldown=10.0,
    interval=2.5,
    min_window_ops=6,
)


def _build_keys() -> List[str]:
    """The key universe, ordered so the rotation is adversarial.

    The first ``N_PHASES`` keys — the hotspot rotation — are chosen to
    all hash to shard 0 of the *base* ``N_SHARDS``-way placement: a
    static deployment serves every phase of the hotspot from the same
    queue. The tail fills up with the remaining keys in probe order.
    """
    probe = ShardMap(N_SHARDS)
    hot = [k for k in (f"k{i:03d}" for i in range(200)) if probe.owner(k) == 0]
    cold = [k for k in (f"k{i:03d}" for i in range(200)) if probe.owner(k) != 0]
    keys = hot[:N_PHASES] + (hot[N_PHASES:] + cold)[: N_KEYS - N_PHASES]
    assert len(keys) == N_KEYS
    return keys


KEYS = _build_keys()


@dataclass
class RebalancingRun:
    """One leg of E14: who placed the keys, and what it bought."""

    leg: str              # "baseline" | policy name | "oracle"
    #: Automatic controller actions (0 for baseline/oracle).
    actions: int
    #: Controller ticks evaluated / held back (diagnostics).
    ticks: int
    held_back: int
    epoch: int
    n_shards: int
    migrations: int
    migrations_complete: bool
    deferred_ops: int
    #: Committed (TOB-final) operations per simulated time unit over the
    #: whole run — the headline number the gates compare.
    committed_throughput: float
    #: Mean closed-loop response latency (the clients' view of the queue).
    mean_latency: float
    weak_staleness: float
    converged: bool
    hot_keys: List[str]


def _scenario(name: str) -> Scenario:
    return (
        Scenario(KVStore(), name=f"rebalancing-{name}")
        .shards(N_SHARDS)
        .replicas(REPLICAS_PER_SHARD)
        .exec_delay(EXEC_DELAY)
        .message_delay(MESSAGE_DELAY)
        .config(record_perceived_traces=False)
        .workload(
            "kv",
            keys=KEYS,
            zipf_s=ZIPF_S,
            hotspot_shift=list(SHIFT_TIMES),
            ops_per_session=OPS_PER_SESSION,
            think_time=THINK_TIME,
            seed=SEED,
            sessions=SESSIONS,
            strong_probability=STRONG_PROBABILITY,
        )
    )


def _finish_leg(leg: str, live) -> RebalancingRun:
    live.settle(max_time=20_000.0)
    futures = live.workloads[0].futures
    latencies = [f.latency for f in futures if f.latency is not None]
    staleness = weak_staleness_samples(futures)
    controller = live.controller
    if controller is not None:
        controller.stop()
    migrations = live.deployment.migrations
    return RebalancingRun(
        leg=leg,
        actions=len(controller.actions) if controller else 0,
        ticks=controller.ticks if controller else 0,
        held_back=controller.held_back if controller else 0,
        epoch=live.deployment.epoch,
        n_shards=len(live.deployment.live_shard_indexes()),
        migrations=len(migrations),
        migrations_complete=all(m.complete for m in migrations),
        deferred_ops=live.router.deferred_count,
        committed_throughput=committed_op_rate(futures),
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        weak_staleness=sum(staleness) / len(staleness) if staleness else 0.0,
        converged=live.converged(),
        hot_keys=[
            str(key) for key, _count in (
                controller.stats.hot_keys(3) if controller else []
            )
        ],
    )


def run_baseline() -> RebalancingRun:
    """The deployment as born: the hotspot lands where the hash says."""
    live = _scenario("baseline").build()
    return _finish_leg("baseline", live)


def run_controlled(policy: str) -> RebalancingRun:
    """The same run with the placement controller driving migrations."""
    live = _scenario(policy).autoscale(policy, **CONTROLLER).build()
    return _finish_leg(policy, live)


def run_oracle() -> RebalancingRun:
    """Clairvoyant static placement: the whole rotation pre-isolated.

    Placement deltas are applied *before any traffic*, via
    ``static_reassign`` (no handoff — there is nothing to hand off yet):
    every key the hotspot will ever visit moves to one dedicated hot
    shard. Only one of them is hot at a time, so that shard serves each
    phase's hot key with no tail contention — the placement a
    hot-key-isolation controller with one extra shard converges to,
    minus detection lag and migration cost. The 25% gate measures the
    live controllers against this bar.
    """
    live = _scenario("oracle").build()
    for index in range(N_PHASES):
        lo, hi = single_key_range(KEYS[index])
        src = live.deployment.shard_map.owner(KEYS[index])
        live.deployment.static_reassign(
            Reassignment("move", src, N_SHARDS, (lo, hi))
        )
    return _finish_leg("oracle", live)


def run_all() -> List[RebalancingRun]:
    rows = [run_baseline()]
    rows.extend(run_controlled(p) for p in ("power-of-two", "hot-key-isolation"))
    rows.append(run_oracle())
    return rows


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def to_json(rows: List[RebalancingRun]) -> Dict[str, Any]:
    """The E14 artifact."""
    by_leg = {row.leg: row for row in rows}
    oracle = by_leg["oracle"].committed_throughput
    baseline = by_leg["baseline"].committed_throughput
    controlled = [
        row for row in rows if row.leg not in ("baseline", "oracle")
    ]
    return {
        "experiment": "E14-rebalancing",
        "all_converged": all(row.converged for row in rows),
        "all_migrations_complete": all(row.migrations_complete for row in rows),
        "every_controller_acted": all(row.actions >= 1 for row in controlled),
        "worst_oracle_gap": max(
            1.0 - row.committed_throughput / oracle for row in controlled
        ) if oracle else 1.0,
        "every_policy_beats_baseline": all(
            row.committed_throughput > baseline for row in controlled
        ),
        "legs": [asdict(row) for row in rows],
    }


COLUMNS = (
    ("leg", lambda row: row.leg),
    ("actions", lambda row: row.actions),
    ("migrations", lambda row: row.migrations),
    ("shards", lambda row: row.n_shards),
    ("epoch", lambda row: row.epoch),
    ("deferred", lambda row: row.deferred_ops),
    ("thpt", lambda row: f"{row.committed_throughput:.2f}"),
    ("latency", lambda row: f"{row.mean_latency:.2f}"),
    ("staleness", lambda row: f"{row.weak_staleness:.2f}"),
    ("converged", lambda row: row.converged),
)


def main() -> Dict[str, Any]:
    rows = run_all()
    print(format_columns(
        COLUMNS, rows, title="Self-healing under a shifting Zipf hotspot (E14)"
    ))
    print()
    artifact = to_json(rows)
    print(
        f"oracle gap: {100 * artifact['worst_oracle_gap']:.1f}%  "
        f"(gate: <= 25%); beats baseline: "
        f"{artifact['every_policy_beats_baseline']}"
    )
    return artifact
