"""Experiment E12 — sharded deployments: scaling, skew, cross-shard ops.

The paper studies one replicated object served by one Bayou cluster; at
production scale the keyspace is *partitioned* across many clusters
(shards) while each operation keeps its per-op consistency choice. E12
quantifies what that buys and what it costs:

**Scaling legs** — the same keyed KV workload (fixed session count, fixed
operation count, uniform or Zipf-skewed key traffic) is driven against
1 → 8 shards of 3 replicas each, on one shared simulator. Reported per
leg, all in *simulated* time (deterministic under the seed):

- **aggregate committed-op throughput**: operations whose final TOB
  position is fixed, per unit of simulated time — scale-out works when a
  shard's replicas no longer execute the whole keyspace's traffic;
- **weak-op staleness**: mean lag between a weak response (tentative,
  answered locally) and its stabilisation (TOB commit) — the window in
  which the response may still be reordered;
- **placement balance**: operations routed per shard — Zipf skew turns
  hot keys into hot shards, capping the scale-out (compare the skewed
  rows' throughput against uniform at the same shard count).

The sequencer engine sweeps 1/2/4/8 shards × uniform/zipf; the Ω/Paxos
engine runs the 1- and 4-shard uniform legs (same workload, consensus
per shard).

**Conservation legs** — `BankAccounts` across 4 shards, both TOB
engines: seeded balances, then a barrage of strong transfers whose
endpoints mostly live on *different* shards. Each cross-shard transfer
stages debit (prepare) and credit (commit) through the two owner shards'
TOBs; a failed debit aborts the plan. Asserted: no money is minted or
lost (Σ balances unchanged at quiescence), every shard's replicas
converge bit-identically, and refused transfers leave both balances
untouched.

Run from the CLI (``python -m repro shard``) or directly with ``--json
FILE`` to dump the artifact CI uploads next to E10/E11.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from statistics import mean
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import (
    committed_op_rate,
    replica_fingerprint,
    weak_staleness_samples,
)
from repro.analysis.report import format_table
from repro.datatypes.bank import BankAccounts
from repro.datatypes.kvstore import KVStore
from repro.scenario import Scenario

#: The shared scaling workload (identical for every leg; only the shard
#: count, key skew and TOB engine vary).
SESSIONS = 12
OPS_PER_SESSION = 30
N_KEYS = 256
EXEC_DELAY = 0.1
MESSAGE_DELAY = 0.2
STRONG_PROBABILITY = 0.1
WORKLOAD_SEED = 3
REPLICAS_PER_SHARD = 3

SHARD_SWEEP = (1, 2, 4, 8)
PAXOS_SHARDS = (1, 4)


@dataclass
class ShardingRun:
    """One scaling leg, reduced to its throughput/staleness envelope."""

    n_shards: int
    skew: str
    tob_engine: str
    completed_ops: int
    committed_ops: int
    #: Committed (TOB-final) operations per simulated time unit.
    committed_throughput: float
    #: Mean weak-op response→stable lag (simulated time units).
    weak_staleness: float
    #: Operations routed per shard (placement balance / skew hotspots).
    routed_per_shard: List[int]
    converged: bool


@dataclass
class ConservationRun:
    """One cross-shard transfer leg: the money-conservation verdict."""

    tob_engine: str
    n_shards: int
    accounts: int
    initial_total: int
    final_total: int
    conserved: bool
    transfers: int
    cross_shard_transfers: int
    committed_transfers: int
    aborted_transfers: int
    #: Each shard's replicas bit-identical (snapshot, committed order,
    #: executed sequence).
    shards_bit_identical: bool
    converged: bool


def _keyed_scenario(n_shards: int, skew: str, tob_engine: str) -> Scenario:
    scenario = (
        Scenario(KVStore(), name=f"sharding-{n_shards}-{skew}-{tob_engine}")
        .shards(n_shards)
        .replicas(REPLICAS_PER_SHARD)
        .exec_delay(EXEC_DELAY)
        .message_delay(MESSAGE_DELAY)
        .config(record_perceived_traces=False)
        .workload(
            "kv",
            keys=[f"k{i}" for i in range(N_KEYS)],
            key_skew=skew,
            ops_per_session=OPS_PER_SESSION,
            think_time=0.0,
            seed=WORKLOAD_SEED,
            sessions=SESSIONS,
            strong_probability=STRONG_PROBABILITY,
        )
    )
    if tob_engine == "paxos":
        scenario.tob("paxos").config(
            heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
        )
    return scenario


def run_scaling_case(
    n_shards: int, skew: str = "uniform", tob_engine: str = "sequencer"
) -> ShardingRun:
    """One scaling leg: fixed workload, ``n_shards`` shards."""
    live = _keyed_scenario(n_shards, skew, tob_engine).build()
    live.settle(max_time=2_000.0)
    futures = [f for s in live.workloads[0].sessions for f in s.futures]
    responded = [f for f in futures if f.response_time is not None]
    stable = [f for f in futures if f.stable_time is not None]
    staleness = weak_staleness_samples(futures)
    converged = live.converged()
    routed = list(live.router.routed_counts)
    if tob_engine == "paxos":
        live.shutdown()
        live.run_until_quiescent()
    return ShardingRun(
        n_shards=n_shards,
        skew=skew,
        tob_engine=tob_engine,
        completed_ops=len(responded),
        committed_ops=len(stable),
        committed_throughput=committed_op_rate(futures),
        weak_staleness=mean(staleness) if staleness else 0.0,
        routed_per_shard=routed,
        converged=converged,
    )


def run_scaling() -> List[ShardingRun]:
    """The full scaling sweep (sequencer matrix + Paxos legs)."""
    rows = [
        run_scaling_case(n_shards, skew, "sequencer")
        for skew in ("uniform", "zipf")
        for n_shards in SHARD_SWEEP
    ]
    rows.extend(
        run_scaling_case(n_shards, "uniform", "paxos")
        for n_shards in PAXOS_SHARDS
    )
    return rows


def speedup(rows: List[ShardingRun], n_shards: int, *, skew: str = "uniform",
            tob_engine: str = "sequencer") -> float:
    """Committed-throughput ratio of ``n_shards`` vs the 1-shard leg."""
    by_key = {
        (row.n_shards, row.skew, row.tob_engine): row.committed_throughput
        for row in rows
    }
    return by_key[(n_shards, skew, tob_engine)] / by_key[(1, skew, tob_engine)]


# ----------------------------------------------------------------------
# Conservation: cross-shard strong transfers
# ----------------------------------------------------------------------
N_ACCOUNTS = 12
INITIAL_BALANCE = 100
CONSERVATION_SHARDS = 4


def run_conservation(tob_engine: str = "sequencer") -> ConservationRun:
    """Strong transfers across 4 shards must conserve total money."""
    accounts = [f"acct{i}" for i in range(N_ACCOUNTS)]
    scenario = (
        Scenario(BankAccounts(), name=f"conservation-{tob_engine}")
        .shards(CONSERVATION_SHARDS)
        .replicas(REPLICAS_PER_SHARD)
        .exec_delay(0.05)
        .message_delay(0.5)
    )
    if tob_engine == "paxos":
        scenario.tob("paxos").config(
            heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
        )
    for index, account in enumerate(accounts):
        scenario.invoke(
            1.0 + 0.1 * index,
            index % REPLICAS_PER_SHARD,
            BankAccounts.deposit(account, INITIAL_BALANCE),
            label=f"seed-{account}",
        )
    # A barrage of strong transfers around the ring (mostly cross-shard
    # under hash placement) plus deliberately-overdrawn ones that must
    # abort without touching either balance.
    transfers = 0
    for index in range(N_ACCOUNTS):
        source = accounts[index]
        target = accounts[(index + 1) % N_ACCOUNTS]
        scenario.invoke(
            6.0 + 0.5 * index,
            index % REPLICAS_PER_SHARD,
            BankAccounts.transfer(source, target, 10 + index),
            strong=True,
            label=f"xfer-{index}",
        )
        transfers += 1
    for index in range(3):
        source = accounts[index * 3]
        target = accounts[(index * 3 + 5) % N_ACCOUNTS]
        scenario.invoke(
            14.0 + 0.5 * index,
            0,
            BankAccounts.transfer(source, target, 10_000),  # must abort
            strong=True,
            label=f"overdraw-{index}",
        )
        transfers += 1
    result = scenario.run(well_formed=False, max_time=2_000.0)

    cross = sum(
        1
        for index in range(N_ACCOUNTS)
        if result.deployment.owner_of(accounts[index])
        != result.deployment.owner_of(accounts[(index + 1) % N_ACCOUNTS])
    )
    final_total = sum(
        result.query(BankAccounts.balance(account)) for account in accounts
    )
    bit_identical = all(
        replica_fingerprint(replica) == replica_fingerprint(shard.replicas[0])
        for shard in result.deployment.shards
        for replica in shard.replicas
    )
    coordinator = result.router.coordinator
    return ConservationRun(
        tob_engine=tob_engine,
        n_shards=CONSERVATION_SHARDS,
        accounts=N_ACCOUNTS,
        initial_total=N_ACCOUNTS * INITIAL_BALANCE,
        final_total=final_total,
        conserved=final_total == N_ACCOUNTS * INITIAL_BALANCE,
        transfers=transfers,
        cross_shard_transfers=cross,
        committed_transfers=coordinator.committed_count,
        aborted_transfers=coordinator.aborted_count,
        shards_bit_identical=bit_identical,
        converged=result.converged,
    )


def run_conservation_matrix() -> List[ConservationRun]:
    return [run_conservation(engine) for engine in ("sequencer", "paxos")]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def to_json(
    scaling: List[ShardingRun], conservation: List[ConservationRun]
) -> Dict[str, Any]:
    """The E12 artifact (uploaded by CI next to E10/E11)."""
    return {
        "experiment": "E12-sharding",
        "speedup_4_shards_uniform": speedup(scaling, 4),
        "all_converged": all(row.converged for row in scaling),
        "all_conserved": all(row.conserved for row in conservation),
        "all_bit_identical": all(
            row.shards_bit_identical for row in conservation
        ),
        "scaling": [asdict(row) for row in scaling],
        "conservation": [asdict(row) for row in conservation],
    }


def render_scaling(rows: List[ShardingRun]) -> str:
    return format_table(
        [
            "shards",
            "skew",
            "TOB",
            "committed",
            "thpt (ops/t)",
            "staleness",
            "routed/shard",
            "converged",
        ],
        [
            [
                row.n_shards,
                row.skew,
                row.tob_engine,
                row.committed_ops,
                f"{row.committed_throughput:.2f}",
                f"{row.weak_staleness:.2f}",
                str(row.routed_per_shard),
                row.converged,
            ]
            for row in rows
        ],
        title="Sharded scaling: throughput & staleness vs shard count (E12)",
    )


def render_conservation(rows: List[ConservationRun]) -> str:
    return format_table(
        [
            "TOB",
            "shards",
            "transfers",
            "cross-shard",
            "committed",
            "aborted",
            "Σ before",
            "Σ after",
            "conserved",
            "bit-identical",
        ],
        [
            [
                row.tob_engine,
                row.n_shards,
                row.transfers,
                row.cross_shard_transfers,
                row.committed_transfers,
                row.aborted_transfers,
                row.initial_total,
                row.final_total,
                row.conserved,
                row.shards_bit_identical,
            ]
            for row in rows
        ],
        title="Cross-shard strong transfers: conservation (E12)",
    )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="FILE", help="also write the E12 artifact"
    )
    args = parser.parse_args(argv)
    scaling = run_scaling()
    conservation = run_conservation_matrix()
    print(render_scaling(scaling))
    print()
    print(render_conservation(conservation))
    print()
    print(
        f"committed-throughput speedup at 4 shards (uniform, sequencer): "
        f"{speedup(scaling, 4):.2f}x"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                to_json(scaling, conservation), handle, indent=2, sort_keys=True
            )
        print(f"wrote {args.json}")


if __name__ == "__main__":  # pragma: no cover
    main()
