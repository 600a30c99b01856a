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

Run with ``python -m repro shard`` (``--json FILE`` writes the artifact).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from statistics import mean
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.experiments import PAXOS_TIMERS
from repro.analysis.metrics import (
    committed_op_rate,
    replica_fingerprint,
    weak_staleness_samples,
)
from repro.analysis.report import format_columns
from repro.datatypes.bank import BankAccounts
from repro.datatypes.kvstore import KVStore
from repro.scenario import RunResult, Scenario

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


def keyed_scenario(
    prefix: str,
    n_shards: int,
    skew: str,
    tob_engine: str,
    *,
    keys: Sequence[str],
    sessions: int,
    ops_per_session: int,
    seed: int,
) -> Scenario:
    """The keyed KV workload of E12 and E13 on ``n_shards`` shards."""
    scenario = (
        Scenario(KVStore(), name=f"{prefix}-{n_shards}-{skew}-{tob_engine}")
        .shards(n_shards)
        .replicas(REPLICAS_PER_SHARD)
        .exec_delay(EXEC_DELAY)
        .message_delay(MESSAGE_DELAY)
        .config(record_perceived_traces=False)
        .workload(
            "kv",
            keys=keys,
            key_skew=skew,
            ops_per_session=ops_per_session,
            think_time=0.0,
            seed=seed,
            sessions=sessions,
            strong_probability=STRONG_PROBABILITY,
        )
    )
    if tob_engine == "paxos":
        scenario.tob("paxos").config(**PAXOS_TIMERS)
    return scenario


def stop_paxos(live, tob_engine: str) -> None:
    """Shut a Paxos deployment down and drain it (its timers never go quiet)."""
    if tob_engine == "paxos":
        live.shutdown()
        live.run_until_quiescent()


def run_scaling_case(
    n_shards: int, skew: str = "uniform", tob_engine: str = "sequencer"
) -> ShardingRun:
    """One scaling leg: fixed workload, ``n_shards`` shards."""
    live = keyed_scenario(
        "sharding",
        n_shards,
        skew,
        tob_engine,
        keys=[f"k{i}" for i in range(N_KEYS)],
        sessions=SESSIONS,
        ops_per_session=OPS_PER_SESSION,
        seed=WORKLOAD_SEED,
    ).build()
    live.settle(max_time=2_000.0)
    futures = live.workloads[0].futures
    responded = [f for f in futures if f.response_time is not None]
    stable = [f for f in futures if f.stable_time is not None]
    staleness = weak_staleness_samples(futures)
    converged = live.converged()
    routed = list(live.router.routed_counts)
    stop_paxos(live, tob_engine)
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
# Conservation: cross-shard strong transfers (E12 here, E13 through a split)
# ----------------------------------------------------------------------
N_ACCOUNTS = 12
INITIAL_BALANCE = 100
ACCOUNTS = [f"acct{i}" for i in range(N_ACCOUNTS)]
CONSERVATION_SHARDS = 4
#: 12 transfers around the ring plus 3 overdraws.
BARRAGE_TRANSFERS = N_ACCOUNTS + 3


def bank_barrage(
    scenario: Scenario, tob_engine: str, *, overdraw_at: float, max_time: float
) -> Tuple[RunResult, int]:
    """Seed every account, fire the transfer barrage, run to quiescence.

    ``scenario`` is a sharded ``BankAccounts`` scenario (shard count, any
    resharding). The barrage is a ring of strong transfers from t=6
    (mostly cross-shard under hash placement) and, from ``overdraw_at``,
    3 overdrawn ones that must abort without touching either balance.
    Returns the run and the final Σ balances.
    """
    scenario.replicas(REPLICAS_PER_SHARD).exec_delay(0.05).message_delay(0.5)
    if tob_engine == "paxos":
        scenario.tob("paxos").config(**PAXOS_TIMERS)
    for index, account in enumerate(ACCOUNTS):
        scenario.invoke(
            1.0 + 0.1 * index,
            index % REPLICAS_PER_SHARD,
            BankAccounts.deposit(account, INITIAL_BALANCE),
            label=f"seed-{account}",
        )
    for index in range(N_ACCOUNTS):
        scenario.invoke(
            6.0 + 0.5 * index,
            index % REPLICAS_PER_SHARD,
            BankAccounts.transfer(
                ACCOUNTS[index], ACCOUNTS[(index + 1) % N_ACCOUNTS], 10 + index
            ),
            strong=True,
            label=f"xfer-{index}",
        )
    for index in range(3):
        scenario.invoke(
            overdraw_at + 0.5 * index,
            0,
            BankAccounts.transfer(
                ACCOUNTS[index * 3],
                ACCOUNTS[(index * 3 + 5) % N_ACCOUNTS],
                10_000,  # must abort
            ),
            strong=True,
            label=f"overdraw-{index}",
        )
    result = scenario.run(well_formed=False, max_time=max_time)
    final_total = sum(
        result.query(BankAccounts.balance(account)) for account in ACCOUNTS
    )
    return result, final_total


def run_conservation(tob_engine: str = "sequencer") -> ConservationRun:
    """Strong transfers across 4 shards must conserve total money."""
    scenario = Scenario(
        BankAccounts(), name=f"conservation-{tob_engine}"
    ).shards(CONSERVATION_SHARDS)
    result, final_total = bank_barrage(
        scenario, tob_engine, overdraw_at=14.0, max_time=2_000.0
    )
    cross = sum(
        1
        for index in range(N_ACCOUNTS)
        if result.deployment.owner_of(ACCOUNTS[index])
        != result.deployment.owner_of(ACCOUNTS[(index + 1) % N_ACCOUNTS])
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
        transfers=BARRAGE_TRANSFERS,
        cross_shard_transfers=cross,
        committed_transfers=coordinator.committed_count,
        aborted_transfers=coordinator.aborted_count,
        shards_bit_identical=bit_identical,
        converged=result.converged,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def to_json(
    scaling: List[ShardingRun], conservation: List[ConservationRun]
) -> Dict[str, Any]:
    """The E12 artifact."""
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


SCALING_COLUMNS = (
    ("shards", lambda row: row.n_shards),
    ("skew", lambda row: row.skew),
    ("TOB", lambda row: row.tob_engine),
    ("committed", lambda row: row.committed_ops),
    ("thpt (ops/t)", lambda row: f"{row.committed_throughput:.2f}"),
    ("staleness", lambda row: f"{row.weak_staleness:.2f}"),
    ("routed/shard", lambda row: str(row.routed_per_shard)),
    ("converged", lambda row: row.converged),
)

CONSERVATION_COLUMNS = (
    ("TOB", lambda row: row.tob_engine),
    ("shards", lambda row: row.n_shards),
    ("transfers", lambda row: row.transfers),
    ("cross-shard", lambda row: row.cross_shard_transfers),
    ("committed", lambda row: row.committed_transfers),
    ("aborted", lambda row: row.aborted_transfers),
    ("Σ before", lambda row: row.initial_total),
    ("Σ after", lambda row: row.final_total),
    ("conserved", lambda row: row.conserved),
    ("bit-identical", lambda row: row.shards_bit_identical),
)


def main() -> Dict[str, Any]:
    scaling = run_scaling()
    conservation = [run_conservation(engine) for engine in ("sequencer", "paxos")]
    print(format_columns(
        SCALING_COLUMNS,
        scaling,
        title="Sharded scaling: throughput & staleness vs shard count (E12)",
    ))
    print()
    print(format_columns(
        CONSERVATION_COLUMNS,
        conservation,
        title="Cross-shard strong transfers: conservation (E12)",
    ))
    print()
    print(
        f"committed-throughput speedup at 4 shards (uniform, sequencer): "
        f"{speedup(scaling, 4):.2f}x"
    )
    return to_json(scaling, conservation)
