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
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.base import DataType, Operation
from repro.datatypes.counter import Counter
from repro.datatypes.register import Register
from repro.scenario import Scenario


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


def _answered_in_minority(
    protocol: str, datatype: DataType, op: Operation, *, strong: bool = False
) -> bool:
    """Whether one operation at replica 2, cut off from the majority
    ``{0, 1}``, is answered by t = 200."""
    result = (
        Scenario(datatype)
        .replicas(3)
        .protocol(protocol)
        .partition(0.5, [[0, 1], [2]])
        .invoke(1.0, 2, op, strong=strong, label="minority")
        .run(until=200.0, well_formed=False)
    )
    return result.future("minority").done


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
                weak_available_under_partition=_answered_in_minority(
                    protocol, Counter(), Counter.increment(1)
                ),
                strong_ops=True,
                bec_weak=figure1.ok("bec:weak") and theorem1.ok("bec:weak"),
                seq_strong=figure1.ok("seq:strong"),
                notes="speculative tentative order + TOB",
            )
        )
    return rows


def ec_scenario() -> Scenario:
    """Blind writes interleaved with reads on an LWW store, then probes."""
    scenario = Scenario(Register()).replicas(3).protocol("ec")
    for index in range(6):
        scenario.invoke(1.0 + index, index % 3, Register.write(f"v{index}"))
        scenario.invoke(1.5 + index, (index + 1) % 3, Register.read())
    return scenario.probes(Register.read).checks(bec="weak", ncc=True)


def smr_scenario() -> Scenario:
    """Six strong increments under state machine replication."""
    scenario = Scenario(Counter()).replicas(3).protocol("smr")
    for index in range(6):
        scenario.invoke(1.0 + index, index % 3, Counter.increment(1), strong=True)
    return scenario.checks(seq="strong", ncc=True)


def gsp_scenario() -> Scenario:
    """Six increments from three GSP clients, then probes."""
    scenario = Scenario(Counter()).replicas(3).protocol("gsp")
    for index in range(6):
        scenario.invoke(1.0 + index * 0.4, index % 3, Counter.increment(1))
    return scenario.probes(Counter.read).checks(bec="weak", ncc=True)


def _baseline_row(
    system: str,
    scenario: Scenario,
    minority_op: Operation,
    notes: str,
    *,
    strong: bool = False,
) -> MatrixRow:
    """``strong`` says whether the system's operations are strong (SMR) or
    weak (EC, GSP); it picks the minority operation's level and whether
    the row is checked for sequential or basic eventual consistency."""
    result = scenario.run()
    return MatrixRow(
        system=system,
        temporary_reordering=count_reordering_witnesses(result.history) > 0,
        circular_causality=not result.ok("ncc"),
        weak_available_under_partition=_answered_in_minority(
            result.protocol, result.history.datatype, minority_op, strong=strong
        ),
        strong_ops=strong,
        bec_weak=None if strong else result.ok("bec:weak"),
        seq_strong=result.ok("seq:strong") if strong else None,
        notes=notes,
    )


def run_matrix() -> List[MatrixRow]:
    """Compute the full guarantee matrix."""
    return _bayou_rows() + [
        _baseline_row(
            "EC store (LWW)",
            ec_scenario(),
            Register.write("minority"),
            "blind writes only (limited semantics)",
        ),
        _baseline_row(
            "SMR",
            smr_scenario(),
            Counter.increment(1),
            "all ops via TOB; minority partition blocks",
            strong=True,
        ),
        _baseline_row(
            "GSP",
            gsp_scenario(),
            Counter.increment(1),
            "no mutual visibility while cloud is unreachable",
        ),
    ]


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
