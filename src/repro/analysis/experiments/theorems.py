"""Experiments E5/E6 — Theorems 2 and 3 checked on real runs.

**Theorem 2** (stable runs): the modified Bayou protocol satisfies
``FEC(weak, F) ∧ Seq(strong, F)``. We run randomized closed-loop workloads
over every data type, build the abstract execution with the Appendix A.2.3
construction, and check the conjunction.

**Theorem 3** (asynchronous runs): under a lasting partition the protocol
still satisfies ``FEC(weak, F)`` (safety part; EV is vacuous while the
partition lasts) but not ``Seq(strong, F)`` — strong operations invoked in
the minority partition are *pending* (∇). After the partition heals
(partitions are temporary in this model) the full conjunction holds again.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.cluster import MODIFIED
from repro.datatypes.bank import BankAccounts
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.orset import SetType
from repro.datatypes.rlist import RList
from repro.framework.history import STRONG, WEAK
from repro.scenario import RunResult, Scenario

#: The data type instance and read-only probe op per profile name.
DATATYPES: Dict[str, tuple] = {
    "counter": (Counter, Counter.read),
    "list": (RList, RList.read),
    "kv": (KVStore, lambda: KVStore.get("alpha")),
    "bank": (BankAccounts, lambda: BankAccounts.balance("checking")),
    "set": (SetType, SetType.elements),
}


def theorem2_scenario(
    profile_name: str = "counter",
    *,
    protocol: str = MODIFIED,
    ops_per_session: int = 12,
    n_replicas: int = 3,
    seed: int = 0,
    message_delay: float = 1.0,
    latency_jitter: float = 0.5,
    exec_delay: float = 0.05,
) -> Scenario:
    """A stable run: random workload, no partitions, full checking."""
    datatype_cls, probe = DATATYPES[profile_name]
    return (
        Scenario(datatype_cls(), name=f"theorem2:{profile_name}")
        .replicas(n_replicas)
        .protocol(protocol)
        .exec_delay(exec_delay)
        .message_delay(message_delay, jitter=latency_jitter)
        .seed(seed)
        .workload(profile_name, ops_per_session=ops_per_session, seed=seed)
        .probes(probe)
        .checks(fec="weak", seq="strong", bec="weak")
    )


def run_theorem2(profile_name: str = "counter", **options: Any) -> RunResult:
    """Run :func:`theorem2_scenario` to quiescence, every session done."""
    live = theorem2_scenario(profile_name, **options).build()
    live.run_until_quiescent()
    assert all(
        workload.all_done for workload in live.workloads
    ), "closed-loop sessions did not finish"
    return live.finish()


def theorem3_scenario(
    *, n_replicas: int = 3, partition_heals_at: float = 500.0
) -> Scenario:
    """An asynchronous run: the minority replica's strong ops block.

    Replica 2 is cut off from {0, 1} (which hosts the sequencer). During
    the partition its weak operations respond (high availability) while its
    strong operation stays pending, so ``Seq(strong)`` fails; after healing
    everything commits and the full conjunction holds.
    """
    return (
        Scenario(Counter(), name="theorem3")
        .replicas(n_replicas)
        .protocol(MODIFIED)
        .exec_delay(0.05)
        .message_delay(1.0)
        .tob("sequencer", sequencer=0)
        .partition(5.0, [[0, 1], [2]])
        .heal(partition_heals_at)
        # Scripted workload: weak ops everywhere, one strong op in the
        # minority partition.
        .invoke(1.0, 0, Counter.increment(1))
        .invoke(2.0, 1, Counter.increment(2))
        .invoke(10.0, 2, Counter.increment(4))  # during partition
        .invoke(12.0, 0, Counter.increment(8))
        .invoke(20.0, 2, Counter.read(), strong=True, label="blocked")
        .invoke(30.0, 2, Counter.increment(16))
        .probes(Counter.read)
        .checks(fec="weak", seq="strong")
    )


def run_theorem3(
    partition_heals_at: float = 500.0,
) -> Tuple[RunResult, RunResult]:
    """Snapshots of :func:`theorem3_scenario` 10 time units before the heal
    and after it has converged."""
    live = theorem3_scenario(partition_heals_at=partition_heals_at).build()
    live.run(until=partition_heals_at - 10.0)
    during = live.finish(settle=False, well_formed=False)
    live.run_until_quiescent()
    return during, live.finish(well_formed=False)


def main() -> None:
    for profile_name in DATATYPES:
        result = run_theorem2(profile_name)
        print(
            f"theorem2 {profile_name:8s} events={len(result.history):3d} "
            f"FEC(weak)={result.ok('fec:weak')} "
            f"Seq(strong)={result.ok('seq:strong')} "
            f"BEC(weak)={result.ok('bec:weak')} converged={result.converged}"
        )
    during, after = run_theorem3()
    strong = during.history.with_level(STRONG)
    weak = during.history.with_level(WEAK)
    print(
        f"theorem3 during: pending strong={sum(e.pending for e in strong)} "
        f"weak answered={sum(not e.pending for e in weak)} "
        f"Seq(strong)={during.ok('seq:strong')} "
        f"FEC(weak)={during.ok('fec:weak')}"
    )
    print(
        f"theorem3 after heal: Seq(strong)={after.ok('seq:strong')} "
        f"FEC(weak)={after.ok('fec:weak')} converged={after.converged}"
    )
