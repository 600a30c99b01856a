"""Experiment E2 — Figure 2: circular causality between two weak appends.

Schedule (two replicas, list initially holding the committed ``a``):

- R0 invokes weak ``append("x")`` (timestamp 10); R1 invokes weak
  ``append("y")`` slightly later in real time with a *smaller* timestamp
  (clock offset −0.5), so the tentative order is ``y, x``.
- R0 executes speculatively before TOB settles: ``append(x)`` returns
  **ayx** — evidence that x observed y.
- R1 is slow (per-step cost 30), so by the time it first executes
  ``append(y)`` the TOB order ``a, x, y`` is already committed there:
  ``append(y)`` returns **axy** — evidence that y observed x.

Each return value claims the *other* operation happened first: circular
causality, detected by the NCC checker as an hb-cycle. Under the modified
protocol (Algorithm 2) the same schedule is cycle-free: each weak append
executes immediately at invocation, so its response can only reflect
operations that were already in the replica's state (x → ``ax``; y → ``y``,
since the slow R1 has not even executed ``a`` yet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.rlist import RList
from repro.framework.guarantees import GuaranteeReport
from repro.framework.history import History
from repro.framework.predicates import CheckResult
from repro.scenario import Scenario


@dataclass
class Figure2Result:
    """The Figure 2 observables."""

    protocol: str
    responses: Dict[str, Any]
    circular_causality: bool
    cycle_description: str
    converged: bool
    ncc: CheckResult = field(repr=False, default=None)
    fec_weak: GuaranteeReport = field(repr=False, default=None)
    history: History = field(repr=False, default=None)


def figure2_scenario(*, protocol: str = ORIGINAL) -> Scenario:
    """The Figure 2 schedule as a declarative scenario."""
    return (
        Scenario(RList(), name="figure2")
        .replicas(2)
        .protocol(protocol)
        .exec_delay(1.5, overrides={1: 30.0})
        .message_delay(1.0)
        .clock_drift(1, offset=-0.5)
        .tob("sequencer", sequencer=0)
        .tob_extra_delay(10.0)
        .invoke(1.0, 0, RList.append("a"), label="append_a")
        .invoke(10.0, 0, RList.append("x"), label="append_x")
        .invoke(10.2, 1, RList.append("y"), label="append_y")
        .probes(RList.read)
        .checks(fec="weak", ncc=True)
    )


def run_figure2(*, protocol: str = ORIGINAL) -> Figure2Result:
    """Run the Figure 2 schedule under the chosen protocol."""
    result = figure2_scenario(protocol=protocol).run()
    ncc = result.check("ncc")
    return Figure2Result(
        protocol=protocol,
        responses=result.responses,
        circular_causality=not ncc.ok,
        cycle_description=ncc.violations[0] if ncc.violations else "",
        converged=result.converged,
        ncc=ncc,
        fec_weak=result.check("fec:weak"),
        history=result.history,
    )


def main() -> None:
    for protocol in (ORIGINAL, MODIFIED):
        result = run_figure2(protocol=protocol)
        print(
            f"{protocol:8s} responses={result.responses} "
            f"circular={result.circular_causality} "
            f"({result.cycle_description}) converged={result.converged}"
        )
