"""Experiment E7 — the guarantee matrix across systems.

The paper situates Bayou among eventually consistent stores (no anomalies,
limited semantics), strongly consistent replication (no availability) and
GSP (no inter-client speculation). This experiment makes the comparison
executable: each system runs a scenario on the shared substrate and we
record which guarantees its history satisfies and which anomalies occurred.

Rows reproduce the paper's qualitative claims (Sections 1, 2.2 and 6):

====================  ==========  ==========  ============  ===========
system                reordering  circular    weak avail.   strong ops
                                  causality   (partition)
====================  ==========  ==========  ============  ===========
Bayou (original)      yes         yes         yes           yes
Bayou (modified)      yes         no          yes           yes
EC store (LWW)        no          no          yes           no
SMR                   no          no          no            yes (all)
GSP                   no          no          yes (local)   no
====================  ==========  ==========  ============  ===========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.experiments.figure1 import figure1_scenario
from repro.analysis.experiments.figure2 import figure2_scenario
from repro.analysis.experiments.theorem1 import theorem1_scenario
from repro.analysis.metrics import (
    count_reordering_witnesses,
    count_trace_final_discords,
)
from repro.analysis.report import format_columns
from repro.baselines.ec_store import ECStoreCluster
from repro.baselines.gsp import GSPCluster
from repro.baselines.smr import SMRCluster
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.counter import Counter
from repro.datatypes.register import Register
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_bec, check_seq
from repro.framework.history import STRONG, WEAK
from repro.framework.predicates import check_ncc
from repro.net.partition import PartitionSchedule


@dataclass
class MatrixRow:
    """One system's measured row in the guarantee matrix."""

    system: str
    temporary_reordering: bool
    circular_causality: bool
    weak_available_under_partition: bool
    strong_ops: bool
    bec_weak: Optional[bool]
    seq_strong: Optional[bool]
    notes: str = ""


def _bayou_rows() -> List[MatrixRow]:
    rows = []
    for protocol, label in ((ORIGINAL, "Bayou (original)"), (MODIFIED, "Bayou (modified)")):
        figure1 = figure1_scenario(protocol=protocol).run()
        figure2 = figure2_scenario(protocol=protocol).run()
        theorem1 = theorem1_scenario(protocol=protocol).run()
        reordering = (
            count_reordering_witnesses(figure1.history) > 0
            or count_trace_final_discords(figure1.history) > 0
            or not theorem1.ok("bec:weak")
        )
        rows.append(
            MatrixRow(
                system=label,
                temporary_reordering=reordering,
                circular_causality=not figure2.ok("ncc")
                or not figure1.check("fec:weak").results[1].ok,  # NCC slot
                weak_available_under_partition=True,
                strong_ops=True,
                bec_weak=figure1.ok("bec:weak") and theorem1.ok("bec:weak"),
                seq_strong=figure1.ok("seq:strong"),
                notes="speculative tentative order + TOB",
            )
        )
    return rows


def _ec_row() -> MatrixRow:
    cluster = ECStoreCluster(Register(), n_replicas=3)
    for index in range(6):
        cluster.schedule_invoke(
            1.0 + index, index % 3, Register.write(f"v{index}")
        )
        cluster.schedule_invoke(1.5 + index, (index + 1) % 3, Register.read())
    cluster.run_until_quiescent()
    cluster.mark_horizon()
    for pid in range(3):
        cluster.schedule_invoke(cluster.sim.now + 1.0 + pid, pid, Register.read())
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    return MatrixRow(
        system="EC store (LWW)",
        temporary_reordering=count_reordering_witnesses(history) > 0,
        circular_causality=not check_ncc(execution).ok,
        weak_available_under_partition=True,
        strong_ops=False,
        bec_weak=check_bec(execution, WEAK).ok,
        seq_strong=None,
        notes="blind writes only (limited semantics)",
    )


def _smr_row() -> MatrixRow:
    # Part 1: a normal run, checked for Seq.
    cluster = SMRCluster(Counter(), n_replicas=3)
    for index in range(6):
        cluster.schedule_invoke(1.0 + index, index % 3, Counter.increment(1))
    cluster.run_until_quiescent()
    cluster.mark_horizon()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    seq_ok = check_seq(execution, STRONG).ok

    # Part 2: a partitioned run — the minority gets no responses.
    partitions = PartitionSchedule(3)
    partitions.split(0.5, [[0, 1], [2]])
    blocked = SMRCluster(Counter(), n_replicas=3, partitions=partitions)
    blocked.schedule_invoke(1.0, 2, Counter.increment(1))
    blocked.run(until=200.0)
    minority_answered = any(
        future.done for future in blocked.ops.futures.values()
    )
    return MatrixRow(
        system="SMR",
        temporary_reordering=count_reordering_witnesses(history) > 0,
        circular_causality=not check_ncc(execution).ok,
        weak_available_under_partition=minority_answered,
        strong_ops=True,
        bec_weak=None,
        seq_strong=seq_ok,
        notes="all ops via TOB; minority partition blocks",
    )


def _gsp_row() -> MatrixRow:
    cluster = GSPCluster(Counter(), n_replicas=3)
    for index in range(6):
        cluster.schedule_invoke(1.0 + index * 0.4, index % 3, Counter.increment(1))
    cluster.run_until_quiescent()
    cluster.mark_horizon()
    # GSP probes go through the cloud; space them beyond the commit
    # round-trip so each probe observes the previous one.
    for pid in range(3):
        cluster.schedule_invoke(cluster.sim.now + 1.0 + pid * 5.0, pid, Counter.read())
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    return MatrixRow(
        system="GSP",
        temporary_reordering=count_reordering_witnesses(history) > 0,
        circular_causality=not check_ncc(execution).ok,
        weak_available_under_partition=True,
        strong_ops=False,
        bec_weak=check_bec(execution, WEAK).ok,
        seq_strong=None,
        notes="no mutual visibility while cloud is unreachable",
    )


def run_matrix() -> List[MatrixRow]:
    """Compute the full guarantee matrix."""
    rows = _bayou_rows()
    rows.append(_ec_row())
    rows.append(_smr_row())
    rows.append(_gsp_row())
    return rows


COLUMNS = (
    ("system", lambda row: row.system),
    ("reordering", lambda row: row.temporary_reordering),
    ("circular", lambda row: row.circular_causality),
    ("weak-avail", lambda row: row.weak_available_under_partition),
    ("strong-ops", lambda row: row.strong_ops),
    ("BEC(weak)", lambda row: "n/a" if row.bec_weak is None else row.bec_weak),
    ("Seq(strong)", lambda row: "n/a" if row.seq_strong is None else row.seq_strong),
)


def render_matrix(rows: List[MatrixRow]) -> str:
    """The matrix as an ASCII table."""
    return format_columns(COLUMNS, rows, title="Guarantee matrix (experiment E7)")


def main() -> None:
    print(render_matrix(run_matrix()))
