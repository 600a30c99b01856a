"""Experiment E11 — crash–recovery convergence (durable replica state).

The paper's fault model is crash-stop ("replicas may crash silently and
cease all communication"), but the original Bayou design it revisits kept
its write log in stable storage precisely so a replica could come back and
catch up. This experiment exercises that crash–recovery story end to end:

**Schedule** (the sequencer matrix): a three-replica cluster appends to the
paper's replicated list; the network partitions ``{0,1} | {2}``; replica 2
crashes *mid-partition*; the partition heals while it is still down (so the
partition-buffered traffic that would have brought it up to date is flushed
into a dead process and silently lost — ``Network.suppressed_count``);
replica 2 then recovers from its durable state, pulls what it missed
through its dissemination substrate (RB recovery sync or anti-entropy
version-vector pulls) and its TOB catch-up (sequencer replay), and takes
fresh client operations. The run passes when the recovered replica is
**bit-identical** to the survivors: same register snapshot, same committed
order, same executed sequence.

The matrix covers both dissemination substrates (``rb`` /
``anti_entropy``), both reorder engines (``stepwise`` / ``batched``) and
both protocols (``original`` / ``modified``) — eight runs whose survivors
also agree *across* engines, since the engines are required to be
observably equivalent.

**Ω/Paxos leg**: the same shape with the Paxos TOB engine, crashing the
*leader* (replica 0) while it is isolated by the partition. The survivors
form a majority, elect replica 1 and keep committing; after recovery the
heartbeats of replica 0 resume, every Ω re-elects it (smallest pid), its
Paxos engine catches up through status/repair anti-entropy from its durable
acceptor state, and the cluster reconverges.

Run with ``python -m repro recovery`` (``--json FILE`` writes the
convergence artifact).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import PAXOS_TIMERS
from repro.analysis.metrics import replica_fingerprint
from repro.analysis.report import format_columns
from repro.datatypes.rlist import RList
from repro.scenario import RunResult, Scenario

#: The crash-recovery timeline shared by every leg (simulated time units).
PARTITION_AT = 5.0
CRASH_AT = 12.0
HEAL_AT = 30.0
RECOVER_AT = 40.0


@dataclass
class RecoveryRun:
    """One crash–recovery run, reduced to its convergence verdict."""

    dissemination: str
    reorder_engine: str
    protocol: str
    tob_engine: str
    crashed_pid: int
    converged: bool
    #: Recovered replica bit-identical to the survivors (snapshot,
    #: committed order, executed sequence).
    recovered_matches_survivors: bool
    #: Messages silently lost into the crashed process.
    suppressed_messages: int
    #: Simulated downtime of the crashed replica.
    downtime: float
    #: Final list contents (identical on every replica when converged).
    final_value: str
    #: Committed order length at quiescence.
    committed_length: int
    #: Every node's Ω leader after recovery (Paxos leg only).
    leaders: Optional[List[int]] = None


def _populate(scenario: Scenario, crashed_pid: int) -> Scenario:
    """The shared workload around the crash window.

    Every replica appends before the partition; both sides keep appending
    during it; the crashed replica takes no operations while down (the
    cluster refuses them — a crashed replica is unreachable) and takes
    fresh ones after recovering.
    """
    survivors = [pid for pid in range(3) if pid != crashed_pid]
    for pid in range(3):
        scenario.invoke(1.0 + 0.3 * pid, pid, RList.append(f"a{pid}"))
    # Mid-partition traffic on both sides, including the soon-to-crash node.
    scenario.invoke(6.0, survivors[0], RList.append("p"))
    scenario.invoke(7.0, crashed_pid, RList.append("q"))
    scenario.invoke(8.0, survivors[1], RList.append("r"))
    # Survivors keep working while the replica is down.
    scenario.invoke(CRASH_AT + 3.0, survivors[0], RList.append("s"))
    scenario.invoke(CRASH_AT + 5.0, survivors[1], RList.append("t"))
    # Fresh operations on the recovered replica (its event numbering must
    # continue from the durable counter — a reused dot would collide).
    scenario.invoke(RECOVER_AT + 5.0, crashed_pid, RList.append("u"))
    scenario.invoke(RECOVER_AT + 6.0, survivors[0], RList.append("v"))
    return scenario


def _verdict(result: RunResult, crashed_pid: int, **leg: Any) -> RecoveryRun:
    """Reduce a finished leg to its row; ``leg`` names the configuration."""
    replicas = result.cluster.replicas
    fingerprints = [replica_fingerprint(replica) for replica in replicas]
    return RecoveryRun(
        crashed_pid=crashed_pid,
        converged=result.converged,
        recovered_matches_survivors=all(
            fingerprint == fingerprints[0] for fingerprint in fingerprints
        ),
        suppressed_messages=result.cluster.network.suppressed_count,
        downtime=replicas[crashed_pid].downtime,
        final_value=result.query(RList.read()),
        committed_length=len(replicas[0].committed),
        **leg,
    )


def run_recovery_case(
    dissemination: str,
    reorder_engine: str,
    protocol: str,
) -> RecoveryRun:
    """One sequencer-matrix leg: crash replica 2 mid-partition, recover it
    after heal, require bit-identical convergence."""
    crashed_pid = 2
    scenario = (
        Scenario(RList(), name=f"recovery-{dissemination}-{reorder_engine}-{protocol}")
        .replicas(3)
        .protocol(protocol)
        .dissemination(dissemination, sync_interval=1.5)
        .reorder(reorder_engine, checkpoint_interval=4)
        .durability("memory")
        .exec_delay(0.05)
        .message_delay(0.5)
        .partition(PARTITION_AT, [[0, 1], [crashed_pid]])
        .heal(HEAL_AT)
        .crash(crashed_pid, CRASH_AT, recover_at=RECOVER_AT)
    )
    _populate(scenario, crashed_pid)
    # A strong operation committed while the replica is down: recovery must
    # also restore the final (TOB) order, not just the weak updates.
    scenario.invoke(CRASH_AT + 8.0, 0, RList.duplicate(), strong=True)
    return _verdict(
        scenario.run(well_formed=False),
        crashed_pid,
        dissemination=dissemination,
        reorder_engine=reorder_engine,
        protocol=protocol,
        tob_engine="sequencer",
    )


def run_recovery_omega(protocol: str = "original") -> RecoveryRun:
    """The Ω/Paxos leg: crash the isolated *leader* mid-partition.

    The surviving majority elects replica 1 and keeps committing; the
    recovered replica 0 resumes heartbeats, is re-elected by every Ω, pulls
    the decided suffix through Paxos status/repair, and reconverges.
    """
    crashed_pid = 0
    scenario = (
        Scenario(RList(), name=f"recovery-omega-{protocol}")
        .replicas(3)
        .protocol(protocol)
        .tob("paxos")
        .reorder("batched", checkpoint_interval=4)
        .durability("memory")
        .exec_delay(0.05)
        .message_delay(0.5)
        .config(**PAXOS_TIMERS)
        .partition(PARTITION_AT, [[crashed_pid], [1, 2]])
        .heal(HEAL_AT)
        .crash(crashed_pid, CRASH_AT, recover_at=RECOVER_AT)
    )
    _populate(scenario, crashed_pid)
    scenario.invoke(CRASH_AT + 8.0, 1, RList.duplicate(), strong=True)
    live = scenario.build()
    live.settle(max_time=400.0)
    # Capture the leader view while Ω is still heartbeating: the recovered
    # node (smallest pid) must have been re-elected everywhere.
    leaders = [omega.leader() for omega in live.cluster.omegas]
    return _verdict(
        live.finish(well_formed=False),
        crashed_pid,
        dissemination="rb",
        reorder_engine="batched",
        protocol=protocol,
        tob_engine="paxos",
        leaders=leaders,
    )


def run_recovery() -> List[RecoveryRun]:
    """The full E11 matrix: 8 sequencer legs + the Ω/Paxos leg."""
    rows: List[RecoveryRun] = []
    for dissemination in ("rb", "anti_entropy"):
        for reorder_engine in ("stepwise", "batched"):
            for protocol in ("original", "modified"):
                rows.append(
                    run_recovery_case(dissemination, reorder_engine, protocol)
                )
    rows.append(run_recovery_omega())
    return rows


def cross_engine_identical(rows: List[RecoveryRun]) -> bool:
    """Engines must also agree with *each other*: same final value and
    committed length for every (dissemination, protocol) pair."""
    by_key: Dict[Tuple[str, str], set] = {}
    for row in rows:
        if row.tob_engine != "sequencer":
            continue
        by_key.setdefault((row.dissemination, row.protocol), set()).add(
            (row.final_value, row.committed_length)
        )
    return all(len(values) == 1 for values in by_key.values())


def to_json(rows: List[RecoveryRun]) -> Dict[str, Any]:
    """The E11 convergence artifact."""
    return {
        "experiment": "E11-recovery",
        "all_converged": all(row.converged for row in rows),
        "all_bit_identical": all(row.recovered_matches_survivors for row in rows),
        "cross_engine_identical": cross_engine_identical(rows),
        "omega_reelected_recovered_leader": all(
            leader == row.crashed_pid
            for row in rows
            if row.leaders is not None
            for leader in row.leaders
        ),
        "runs": [asdict(row) for row in rows],
    }


COLUMNS = (
    ("dissemination", lambda row: row.dissemination),
    ("engine", lambda row: row.reorder_engine),
    ("protocol", lambda row: row.protocol),
    ("TOB", lambda row: row.tob_engine),
    ("converged", lambda row: row.converged),
    ("bit-identical", lambda row: row.recovered_matches_survivors),
    ("suppressed", lambda row: row.suppressed_messages),
    ("downtime", lambda row: f"{row.downtime:g}"),
    ("leaders", lambda row: "-" if row.leaders is None else str(row.leaders)),
)


def main() -> Dict[str, Any]:
    rows = run_recovery()
    print(format_columns(
        COLUMNS, rows, title="Crash-recovery convergence (experiment E11)"
    ))
    return to_json(rows)
