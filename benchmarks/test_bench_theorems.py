"""Benchmark E5/E6 — Theorems 2 and 3 checked end-to-end.

Theorem 2: random workloads on the modified protocol over every data type
satisfy ``FEC(weak) ∧ Seq(strong)`` in stable runs.
Theorem 3: in an asynchronous run weak operations stay FEC-correct while
strong operations block (Seq fails), recovering after the heal.
"""

import pytest

from repro.analysis.experiments.theorems import run_theorem2, run_theorem3
from repro.framework.history import STRONG


@pytest.mark.parametrize("profile", ["counter", "list", "kv", "bank", "set"])
def test_theorem2_per_datatype(bench, profile):
    result = bench(run_theorem2, profile, bench_rounds=2)
    assert result.ok("fec:weak") and result.ok("seq:strong")
    assert result.converged


def test_theorem3_async_run(bench):
    during, after = bench(run_theorem3, bench_rounds=2)
    strong = during.history.with_level(STRONG)
    assert sum(event.pending for event in strong) == 1
    assert not during.ok("seq:strong")
    assert during.ok("fec:weak")
    assert after.ok("seq:strong") and after.ok("fec:weak")
