"""Benchmark E4 — Theorem 1, both halves.

- mechanised: exhaustive search over all abstract executions of the proof's
  four-event history finds no ``BEC(weak) ∧ Seq(strong)`` extension, while
  an ``FEC(weak) ∧ Seq(strong)`` witness exists;
- live: a real Bayou cluster driven through the proof's schedule produces
  exactly that history, violating BEC while satisfying FEC ∧ Seq.
"""

from repro.analysis.experiments.theorem1 import theorem1_scenario
from repro.framework.impossibility import (
    build_fec_witness,
    prove_impossibility,
)
from repro.framework.search import find_bec_seq_execution


def test_mechanised_impossibility(bench):
    outcome = bench(prove_impossibility)
    assert not outcome.satisfiable
    assert outcome.arbitrations_tried == 24


def test_fec_witness_construction(bench):
    witness = bench(build_fec_witness)
    assert witness.ok


def test_live_theorem1_schedule(bench):
    result = bench(theorem1_scenario().run, bench_rounds=2)
    assert result.responses["r"] == "ab"
    assert result.responses["c"] == "bc"
    assert not result.ok("bec:weak")
    assert result.ok("fec:weak")
    assert result.ok("seq:strong")
    search = find_bec_seq_execution(result.sub_history(["a", "b", "r", "c"]))
    assert not search.satisfiable
