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

from dataclasses import dataclass, field
from typing import Dict

from repro.core.cluster import MODIFIED
from repro.datatypes.bank import BankAccounts
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.orset import SetType
from repro.datatypes.rlist import RList
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import GuaranteeReport, check_fec, check_seq
from repro.framework.history import History, STRONG, WEAK
from repro.scenario import Scenario

#: The data type instance and read-only probe op per profile name.
DATATYPES: Dict[str, tuple] = {
    "counter": (Counter, Counter.read),
    "list": (RList, RList.read),
    "kv": (KVStore, lambda: KVStore.get("alpha")),
    "bank": (BankAccounts, lambda: BankAccounts.balance("checking")),
    "set": (SetType, SetType.elements),
}


@dataclass
class TheoremCheckResult:
    """Checked guarantees of one run."""

    profile: str
    protocol: str
    n_events: int
    fec_weak: GuaranteeReport
    seq_strong: GuaranteeReport
    bec_weak: GuaranteeReport
    converged: bool
    history: History = field(repr=False, default=None)

    @property
    def theorem2_holds(self) -> bool:
        return self.fec_weak.ok and self.seq_strong.ok


def run_theorem2(
    profile_name: str = "counter",
    *,
    protocol: str = MODIFIED,
    ops_per_session: int = 12,
    n_replicas: int = 3,
    seed: int = 0,
    message_delay: float = 1.0,
    latency_jitter: float = 0.5,
    exec_delay: float = 0.05,
) -> TheoremCheckResult:
    """A stable run: random workload, no partitions, full checking."""
    datatype_cls, probe = DATATYPES[profile_name]
    scenario = (
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
    live = scenario.build()
    live.run_until_quiescent()
    assert all(
        workload.all_done for workload in live.workloads
    ), "closed-loop sessions did not finish"
    result = live.finish()
    return TheoremCheckResult(
        profile=profile_name,
        protocol=protocol,
        n_events=len(result.history),
        fec_weak=result.check("fec:weak"),
        seq_strong=result.check("seq:strong"),
        bec_weak=result.check("bec:weak"),
        converged=result.converged,
        history=result.history,
    )


@dataclass
class Theorem3Result:
    """Guarantees during and after an asynchronous window."""

    pending_strong_during: int
    weak_responses_during: int
    fec_weak_during: GuaranteeReport
    seq_strong_during: GuaranteeReport
    fec_weak_after: GuaranteeReport
    seq_strong_after: GuaranteeReport
    converged_after: bool


def run_theorem3(
    *,
    n_replicas: int = 3,
    partition_heals_at: float = 500.0,
) -> Theorem3Result:
    """An asynchronous run: the minority replica's strong ops block.

    Replica 2 is cut off from {0, 1} (which hosts the sequencer). During
    the partition its weak operations respond (high availability) while its
    strong operation stays pending, so ``Seq(strong)`` fails; after healing
    everything commits and the full conjunction holds.
    """
    scenario = (
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
    )
    live = scenario.build()

    # Run to the middle of the partition window and snapshot the history.
    live.run(until=partition_heals_at - 10.0)
    history_during = live.history(well_formed=False)
    execution_during = build_abstract_execution(history_during)
    pending_strong = sum(
        1
        for event in history_during.with_level(STRONG)
        if event.pending
    )
    weak_responded = sum(
        1
        for event in history_during.with_level(WEAK)
        if not event.pending
    )

    # Heal and converge; verify the temporary-partition model's promise.
    live.run_until_quiescent()
    live.add_probes()
    history_after = live.history(well_formed=False)
    execution_after = build_abstract_execution(history_after)

    return Theorem3Result(
        pending_strong_during=pending_strong,
        weak_responses_during=weak_responded,
        fec_weak_during=check_fec(execution_during, WEAK),
        seq_strong_during=check_seq(execution_during, STRONG),
        fec_weak_after=check_fec(execution_after, WEAK),
        seq_strong_after=check_seq(execution_after, STRONG),
        converged_after=live.converged(),
    )


def main() -> None:
    for profile_name in DATATYPES:
        result = run_theorem2(profile_name)
        print(
            f"theorem2 {profile_name:8s} events={result.n_events:3d} "
            f"FEC(weak)={result.fec_weak.ok} Seq(strong)={result.seq_strong.ok} "
            f"BEC(weak)={result.bec_weak.ok} converged={result.converged}"
        )
    result3 = run_theorem3()
    print(
        f"theorem3 during: pending strong={result3.pending_strong_during} "
        f"weak answered={result3.weak_responses_during} "
        f"Seq(strong)={result3.seq_strong_during.ok} "
        f"FEC(weak)={result3.fec_weak_during.ok}"
    )
    print(
        f"theorem3 after heal: Seq(strong)={result3.seq_strong_after.ok} "
        f"FEC(weak)={result3.fec_weak_after.ok} "
        f"converged={result3.converged_after}"
    )
