"""Composite consistency guarantees: BEC, FEC and Seq (Section 4).

    BEC(l, F) = EV ∧ NCC ∧ RVal(l, F)
    FEC(l, F) = EV ∧ NCC ∧ FRVal(l, F) ∧ CPar(l)
    Seq(l, F) = SinOrd(l) ∧ SessArb(l) ∧ RVal(l, F)

Each ``check_*`` function evaluates the conjunction against one abstract
execution and returns a :class:`GuaranteeReport` with every constituent's
:class:`~repro.framework.predicates.CheckResult`, so a failed guarantee
pinpoints the offending predicate and events.

Remember the quantifier structure of the paper: ``H |= P`` means *some*
extension of H satisfies P. Checking the single builder-derived extension
can therefore only prove satisfaction, not violation — except where the
paper's proofs show the builder's extension is canonical, and except for
:mod:`repro.framework.search`, which does close the existential for small
histories by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.framework.abstract_execution import AbstractExecution
from repro.framework.predicates import (
    CheckResult,
    check_cpar,
    check_ev,
    check_frval,
    check_ncc,
    check_rval,
    check_sessarb,
    check_sinord,
)


@dataclass
class GuaranteeReport:
    """The outcome of a composite guarantee check."""

    guarantee: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def __bool__(self) -> bool:
        return self.ok

    def failed(self) -> List[CheckResult]:
        """The constituent checks that failed."""
        return [result for result in self.results if not result.ok]

    def summary(self) -> str:
        """A one-line human-readable verdict."""
        status = "SATISFIED" if self.ok else "VIOLATED"
        parts = ", ".join(
            f"{result.name}={'ok' if result.ok else 'FAIL'}"
            for result in self.results
        )
        return f"{self.guarantee}: {status} [{parts}]"

    def __repr__(self) -> str:
        return self.summary()


def check_bec(execution: AbstractExecution, level: str) -> GuaranteeReport:
    """Basic Eventual Consistency for operations of the given level."""
    return GuaranteeReport(
        guarantee=f"BEC({level})",
        results=[
            check_ev(execution),
            check_ncc(execution),
            check_rval(execution, level),
        ],
    )


def check_fec(execution: AbstractExecution, level: str) -> GuaranteeReport:
    """Fluctuating Eventual Consistency (the paper's new criterion)."""
    return GuaranteeReport(
        guarantee=f"FEC({level})",
        results=[
            check_ev(execution),
            check_ncc(execution),
            check_frval(execution, level),
            check_cpar(execution, level),
        ],
    )


def check_seq(execution: AbstractExecution, level: str) -> GuaranteeReport:
    """Sequential consistency for operations of the given level."""
    return GuaranteeReport(
        guarantee=f"Seq({level})",
        results=[
            check_sinord(execution, level),
            check_sessarb(execution, level),
            check_rval(execution, level),
        ],
    )


#: Registry used by the guarantee-matrix experiment (E7).
GUARANTEE_CHECKS: dict = {
    "BEC": check_bec,
    "FEC": check_fec,
    "Seq": check_seq,
}
