"""Experiment E13 — live resharding: elastic scale-out under traffic.

E12 established that a *static* sharded deployment scales committed-op
throughput; E13 measures what it costs to get from N to N+1 shards
**without stopping the world**. A 2-shard deployment runs a keyed KV
workload; mid-run, shard 0 is split (epoch barrier through its TOB,
frozen committed-prefix snapshot plus tentative-suffix handoff to the
freshly spawned shard, epoch activation) while the workload keeps
issuing operations. Reported per leg (uniform/Zipf keys × both TOB
engines, all in simulated time, deterministic under the seed):

- **migration dip** — committed-op throughput inside the handoff window
  ``[barrier staged, epoch activated]`` relative to the pre-split rate.
  Operations touching moving keys are deferred (the
  ``MigrationInProgress`` retry path), so the dip is real but bounded —
  nothing is refused and nothing is lost;
- **post-split throughput** — a second workload phase driven against the
  now-3-shard deployment, compared with the *same* phase on a fresh
  3-shard deployment: the gate is post-split throughput within 10% of
  the fresh baseline (the split deployment's placement is the epoch
  chain, the fresh one's is plain hashing, so the two are equal only up
  to placement noise);
- **weak-op staleness** through the split, plus the handoff's own
  footprint: registers moved, tentative twins transferred, duplicate
  drops, operations deferred.

A conservation leg runs `BankAccounts` through the same split while a
barrage of strong (mostly cross-shard) transfers is in flight: Σ
balances is unchanged at quiescence and every shard's replicas converge
— the epoch boundary neither mints nor loses money.

Run with ``python -m repro reshard`` (``--json FILE`` writes the artifact).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from statistics import mean
from typing import Any, Dict, List

from repro.analysis.experiments.sharding import (
    BARRAGE_TRANSFERS,
    INITIAL_BALANCE,
    N_ACCOUNTS,
    STRONG_PROBABILITY,
    bank_barrage,
    keyed_scenario,
    stop_paxos,
)
from repro.analysis.metrics import committed_op_rate, weak_staleness_samples
from repro.analysis.report import format_columns
from repro.analysis.workload import RandomWorkload, kv_profile, make_sampler
from repro.datatypes.bank import BankAccounts
from repro.scenario import Scenario

SESSIONS = 10
OPS_PER_SESSION = 24
N_KEYS = 128
PHASE_A_SEED = 3
PHASE_B_SEED = 11
SPLIT_AT = 6.0
TRANSFER_DELAY = 1.0

KEYS = [f"k{i}" for i in range(N_KEYS)]


@dataclass
class ReshardingRun:
    """One split leg: the dip/post-split envelope of a live migration."""

    skew: str
    tob_engine: str
    epoch: int
    #: Simulated length of the handoff window (barrier → activation).
    window: float
    moved_registers: int
    transferred_requests: int
    duplicate_drops: int
    deferred_ops: int
    forwarded_routes: int
    #: Committed-op throughput before the barrier was staged.
    pre_split_throughput: float
    #: Committed-op throughput inside the handoff window.
    window_throughput: float
    #: window / pre ratio — the migration dip (1.0 = no dip).
    dip_ratio: float
    #: Phase-B committed throughput on the split (now 3-shard) deployment.
    post_split_throughput: float
    #: The same phase B on a fresh 3-shard deployment.
    fresh_throughput: float
    #: post / fresh — the elasticity gate wants |1 - ratio| <= 0.10.
    post_split_ratio: float
    weak_staleness: float
    converged: bool


@dataclass
class ConservationSplitRun:
    """The conservation verdict of a split under a transfer barrage."""

    tob_engine: str
    accounts: int
    initial_total: int
    final_total: int
    conserved: bool
    transfers: int
    committed_transfers: int
    aborted_transfers: int
    deferred_subs: int
    epoch: int
    converged: bool


def _kv_scenario(n_shards: int, skew: str, tob_engine: str) -> Scenario:
    return keyed_scenario(
        "resharding",
        n_shards,
        skew,
        tob_engine,
        keys=KEYS,
        sessions=SESSIONS,
        ops_per_session=OPS_PER_SESSION,
        seed=PHASE_A_SEED,
    )


def _drive_phase_b(live, skew: str) -> RandomWorkload:
    profile = kv_profile(
        STRONG_PROBABILITY, sampler=make_sampler(KEYS, skew)
    )
    workload = RandomWorkload(
        live.router,
        profile,
        ops_per_session=OPS_PER_SESSION,
        think_time=0.0,
        seed=PHASE_B_SEED,
        sessions=SESSIONS,
    )
    workload.start()
    live.settle(max_time=6_000.0)
    return workload


def run_split_case(
    skew: str = "uniform", tob_engine: str = "sequencer"
) -> ReshardingRun:
    """One live-split leg: workload on 2 shards, split shard 0 mid-run."""
    live = _kv_scenario(2, skew, tob_engine).build()
    live.run(until=SPLIT_AT)
    migration = live.deployment.split(0, transfer_delay=TRANSFER_DELAY)
    for _ in range(200):
        if migration.complete:
            break
        live.run(until=live.now + 5.0)
    assert migration.complete, "the split never activated"
    live.settle(max_time=6_000.0)

    phase_a = live.workloads[0].futures
    first_invoke = min(
        f.invoke_time for f in phase_a if f.invoke_time is not None
    )
    pre = committed_op_rate(
        phase_a, start=first_invoke, end=migration.started_at
    )
    window = committed_op_rate(
        phase_a, start=migration.started_at, end=migration.activated_at
    )
    staleness = weak_staleness_samples(phase_a)

    phase_b = _drive_phase_b(live, skew)
    b_futures = phase_b.futures
    b_start = min(f.invoke_time for f in b_futures if f.invoke_time is not None)
    b_end = max(f.stable_time for f in b_futures if f.stable_time is not None)
    post = committed_op_rate(b_futures, start=b_start, end=b_end + 1e-9)
    converged = live.converged()
    stop_paxos(live, tob_engine)

    fresh = run_fresh_baseline(skew, tob_engine)
    return ReshardingRun(
        skew=skew,
        tob_engine=tob_engine,
        epoch=live.deployment.epoch,
        window=migration.activated_at - migration.started_at,
        moved_registers=migration.moved_registers,
        transferred_requests=migration.transferred_requests,
        duplicate_drops=migration.duplicate_drops,
        deferred_ops=migration.deferred_ops,
        forwarded_routes=live.router.forwarded_count,
        pre_split_throughput=pre,
        window_throughput=window,
        dip_ratio=window / pre if pre else 0.0,
        post_split_throughput=post,
        fresh_throughput=fresh,
        post_split_ratio=post / fresh if fresh else 0.0,
        weak_staleness=mean(staleness) if staleness else 0.0,
        converged=converged,
    )


def run_fresh_baseline(skew: str, tob_engine: str) -> float:
    """Phase-B committed throughput on a *fresh* 3-shard deployment.

    Same warm-up phase, same phase-B workload and seed, and — crucially
    — the *same placement* as the post-split deployment: the fresh
    deployment is born with the split's epoch already applied
    (:meth:`ShardedCluster.static_reassign`), so the comparison isolates
    the migration's residual cost (stranded source registers, the
    install in the destination's log) from placement-balance noise.
    """
    from repro.shard.partitioner import Reassignment

    live = _kv_scenario(2, skew, tob_engine).build()
    live.deployment.static_reassign(
        Reassignment("split", 0, 2, ("split-epoch1",))
    )
    live.settle(max_time=6_000.0)
    phase_b = _drive_phase_b(live, skew)
    futures = phase_b.futures
    start = min(f.invoke_time for f in futures if f.invoke_time is not None)
    end = max(f.stable_time for f in futures if f.stable_time is not None)
    stop_paxos(live, tob_engine)
    return committed_op_rate(futures, start=start, end=end + 1e-9)


def run_splits() -> List[ReshardingRun]:
    """The full sweep: uniform/zipf × sequencer, uniform × Paxos."""
    rows = [
        run_split_case(skew, "sequencer") for skew in ("uniform", "zipf")
    ]
    rows.append(run_split_case("uniform", "paxos"))
    rows.append(run_split_case("zipf", "paxos"))
    return rows


# ----------------------------------------------------------------------
# Conservation through the epoch boundary
# ----------------------------------------------------------------------
def run_conservation_split(tob_engine: str = "sequencer") -> ConservationSplitRun:
    """Split mid-barrage: strong transfers must conserve across epochs.

    E12's barrage on 2 shards, with shard 0 split at t=8 while the ring
    transfers (t=6 onwards) are in flight.
    """
    scenario = (
        Scenario(BankAccounts(), name=f"conservation-split-{tob_engine}")
        .shards(2)
        .resharding(8.0, split=0, transfer_delay=1.0)
    )
    result, final_total = bank_barrage(
        scenario, tob_engine, overdraw_at=13.0, max_time=4_000.0
    )
    coordinator = result.router.coordinator
    return ConservationSplitRun(
        tob_engine=tob_engine,
        accounts=N_ACCOUNTS,
        initial_total=N_ACCOUNTS * INITIAL_BALANCE,
        final_total=final_total,
        conserved=final_total == N_ACCOUNTS * INITIAL_BALANCE,
        transfers=BARRAGE_TRANSFERS,
        committed_transfers=coordinator.committed_count,
        aborted_transfers=coordinator.aborted_count,
        deferred_subs=coordinator.deferred_subs,
        epoch=result.epoch,
        converged=result.converged,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def to_json(
    splits: List[ReshardingRun], conservation: List[ConservationSplitRun]
) -> Dict[str, Any]:
    """The E13 artifact."""
    return {
        "experiment": "E13-resharding",
        "all_converged": all(row.converged for row in splits),
        "all_conserved": all(row.conserved for row in conservation),
        "max_post_split_deviation": max(
            abs(1.0 - row.post_split_ratio) for row in splits
        ),
        "min_dip_ratio": min(row.dip_ratio for row in splits),
        "splits": [asdict(row) for row in splits],
        "conservation": [asdict(row) for row in conservation],
    }


SPLIT_COLUMNS = (
    ("skew", lambda row: row.skew),
    ("TOB", lambda row: row.tob_engine),
    ("window", lambda row: f"{row.window:.1f}"),
    ("moved", lambda row: row.moved_registers),
    ("twins", lambda row: row.transferred_requests),
    ("deferred", lambda row: row.deferred_ops),
    ("pre thpt", lambda row: f"{row.pre_split_throughput:.2f}"),
    ("window thpt", lambda row: f"{row.window_throughput:.2f}"),
    ("dip", lambda row: f"{row.dip_ratio:.2f}"),
    ("post thpt", lambda row: f"{row.post_split_throughput:.2f}"),
    ("fresh-3 thpt", lambda row: f"{row.fresh_throughput:.2f}"),
    ("ratio", lambda row: f"{row.post_split_ratio:.2f}"),
    ("converged", lambda row: row.converged),
)

CONSERVATION_COLUMNS = (
    ("TOB", lambda row: row.tob_engine),
    ("transfers", lambda row: row.transfers),
    ("committed", lambda row: row.committed_transfers),
    ("aborted", lambda row: row.aborted_transfers),
    ("deferred subs", lambda row: row.deferred_subs),
    ("Σ before", lambda row: row.initial_total),
    ("Σ after", lambda row: row.final_total),
    ("conserved", lambda row: row.conserved),
    ("epoch", lambda row: row.epoch),
    ("converged", lambda row: row.converged),
)


def main() -> Dict[str, Any]:
    splits = run_splits()
    conservation = [
        run_conservation_split(engine) for engine in ("sequencer", "paxos")
    ]
    print(format_columns(
        SPLIT_COLUMNS,
        splits,
        title="Live split under traffic: dip and post-split throughput (E13)",
    ))
    print()
    print(format_columns(
        CONSERVATION_COLUMNS,
        conservation,
        title="Strong transfers through a split: conservation (E13)",
    ))
    print()
    worst = max(abs(1.0 - row.post_split_ratio) for row in splits)
    print(
        f"worst post-split deviation from a fresh 3-shard deployment: "
        f"{100 * worst:.1f}%"
    )
    return to_json(splits, conservation)
