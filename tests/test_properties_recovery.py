"""Property test: random crash/recover/partition schedules converge.

The crash–recovery guarantee this PR builds (satellite of E11): for random
schedules that partition the network, crash a replica mid-partition and
recover it after the heal, *all* correct replicas — including every
recovered one — converge to identical committed histories and snapshots,
under both dissemination substrates.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.net.faults import CrashSchedule
from repro.net.partition import PartitionSchedule

SLOW = settings(max_examples=20)


@st.composite
def crash_recover_schedules(draw):
    """A random partition window with a crash inside it and recovery after.

    Times are integers to keep the event interleavings coarse (and runs
    fast); the crashed replica is never the sequencer (a crashed sequencer
    stalls TOB by design — the fault-tolerance gap the paper points out).
    """
    partition_at = draw(st.integers(2, 6))
    heal_at = partition_at + draw(st.integers(3, 8))
    crash_at = draw(st.integers(partition_at, heal_at - 1)) + 0.5
    recover_at = heal_at + draw(st.integers(1, 5)) + 0.5
    crashed_pid = draw(st.integers(1, 2))
    lone = draw(st.sampled_from([1, 2]))
    groups = [[pid for pid in range(3) if pid != lone], [lone]]
    dissemination = draw(st.sampled_from(["rb", "anti_entropy"]))
    engine = draw(st.sampled_from(["stepwise", "batched"]))
    # Weak increments before the partition, during it (both sides), while
    # the replica is down (survivors only) and after recovery.
    survivors = [pid for pid in range(3) if pid != crashed_pid]
    ops = [(1.0, draw(st.sampled_from([0, 1, 2])))]
    for offset in range(draw(st.integers(1, 3))):
        at = partition_at + 0.25 + offset
        pid = draw(st.sampled_from([0, 1, 2]))
        if pid == crashed_pid and at >= crash_at:
            pid = survivors[offset % 2]  # a crashed replica is unreachable
        ops.append((at, pid))
    for offset in range(draw(st.integers(1, 3))):
        ops.append((crash_at + 0.75 + offset, draw(st.sampled_from(survivors))))
    ops.append((recover_at + 1.0, crashed_pid))
    ops.append((recover_at + 2.0, draw(st.sampled_from(survivors))))
    return {
        "partition_at": partition_at,
        "heal_at": heal_at,
        "crash_at": crash_at,
        "recover_at": recover_at,
        "crashed_pid": crashed_pid,
        "groups": groups,
        "dissemination": dissemination,
        "engine": engine,
        "ops": ops,
    }


@SLOW
@given(schedule=crash_recover_schedules(), seed=st.integers(0, 1_000))
def test_random_crash_recover_partition_schedules_converge(schedule, seed):
    partitions = PartitionSchedule(3)
    partitions.split(float(schedule["partition_at"]), schedule["groups"])
    partitions.heal(float(schedule["heal_at"]))
    crashes = CrashSchedule()
    crashes.add(
        schedule["crashed_pid"],
        crash_at=schedule["crash_at"],
        recover_at=schedule["recover_at"],
    )
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.4,
        dissemination=schedule["dissemination"],
        ae_sync_interval=1.0,
        reorder_engine=schedule["engine"],
        checkpoint_interval=3,
        durability="memory",
        seed=seed,
    )
    cluster = BayouCluster(Counter(), config, partitions=partitions, crashes=crashes)
    for index, (at, pid) in enumerate(schedule["ops"]):
        cluster.schedule_invoke(float(at), pid, Counter.increment(1 + index))
    cluster.run_until_quiescent()

    # All correct replicas — the recovered one included — agree on the
    # committed history and on the final state, byte for byte.
    committed = [
        tuple(req.dot for req in replica.committed) for replica in cluster.replicas
    ]
    assert committed[0] == committed[1] == committed[2]
    snapshots = [replica.state.snapshot() for replica in cluster.replicas]
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert snapshots[0]["counter:value"] == sum(
        1 + index for index in range(len(schedule["ops"]))
    )
    assert cluster.converged()
