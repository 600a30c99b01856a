"""Benchmark E2 — Figure 2: circular causality.

Paper row reproduced: ``append(x) → ayx`` and ``append(y) → axy`` — each
return value claims the other operation came first — under the original
protocol; the modified protocol (Algorithm 2) is cycle-free on the same
schedule.
"""

from repro.analysis.experiments.figure2 import figure2_scenario
from repro.core.cluster import MODIFIED, ORIGINAL


def test_figure2_original_has_cycle(bench):
    result = bench(figure2_scenario(protocol=ORIGINAL).run)
    assert result.responses["append_x"] == "ayx"
    assert result.responses["append_y"] == "axy"
    assert not result.ok("ncc")  # circular causality
    assert result.converged


def test_figure2_modified_is_cycle_free(bench):
    result = bench(figure2_scenario(protocol=MODIFIED).run)
    assert result.ok("ncc")
    assert result.ok("fec:weak")
    assert result.converged
