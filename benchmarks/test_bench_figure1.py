"""Benchmark E1 — Figure 1: temporary operation reordering.

Paper row reproduced: weak ``append(x) → aax`` vs strong
``duplicate() → axax`` (and the ``(→ ax)`` strong-append variant), with
convergence of both replicas to ``axax``.
"""

from repro.analysis.experiments.figure1 import figure1_scenario
from repro.analysis.metrics import count_reordering_witnesses
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.rlist import RList


def test_figure1_original(bench):
    result = bench(figure1_scenario(protocol=ORIGINAL).run)
    assert result.responses == {
        "append_a": "a",
        "append_x": "aax",
        "duplicate": "axax",
    }
    assert result.query(RList.read()) == "axax"
    assert result.converged
    assert count_reordering_witnesses(result.history) >= 1
    assert not result.ok("bec:weak")
    assert result.ok("seq:strong")


def test_figure1_strong_append_variant(bench):
    result = bench(figure1_scenario(protocol=ORIGINAL, strong_append=True).run)
    assert result.responses["append_x"] == "ax"
    assert result.ok("bec:weak")


def test_figure1_modified_protocol(bench):
    result = bench(figure1_scenario(protocol=MODIFIED).run)
    assert result.responses["duplicate"] == "axax"
    assert result.ok("fec:weak")
    assert result.ok("seq:strong")
