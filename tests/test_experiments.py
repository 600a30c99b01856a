"""Integration tests: every paper artifact reproduces (experiments E1–E8)."""

import pytest

from repro.analysis.experiments.figure1 import figure1_scenario
from repro.analysis.experiments.figure2 import figure2_scenario
from repro.analysis.experiments.progress import run_clock_slowdown, run_slow_replica
from repro.analysis.experiments.theorem1 import theorem1_scenario
from repro.analysis.experiments.theorems import run_theorem2, run_theorem3
from repro.analysis.metrics import (
    count_reordering_witnesses,
    count_trace_final_discords,
)
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.rlist import RList
from repro.framework.history import STRONG, WEAK
from repro.framework.search import find_bec_seq_execution


# ----------------------------------------------------------------------
# E1 — Figure 1
# ----------------------------------------------------------------------
class TestFigure1:
    def test_weak_append_returns_tentative_aax(self):
        result = figure1_scenario(protocol=ORIGINAL).run()
        assert result.responses["append_a"] == "a"
        assert result.responses["append_x"] == "aax"       # tentative!
        assert result.responses["duplicate"] == "axax"     # final order

    def test_strong_append_variant_returns_ax(self):
        result = figure1_scenario(protocol=ORIGINAL, strong_append=True).run()
        assert result.responses["append_x"] == "ax"        # paper's "(→ ax)"
        assert result.responses["duplicate"] == "axax"

    def test_replicas_converge_to_axax(self):
        result = figure1_scenario(protocol=ORIGINAL).run()
        assert result.converged
        assert result.query(RList.read()) == "axax"

    def test_reordering_witnessed_and_bec_violated(self):
        result = figure1_scenario(protocol=ORIGINAL).run()
        assert count_reordering_witnesses(result.history) >= 1
        assert count_trace_final_discords(result.history) >= 1
        assert not result.ok("bec:weak")

    def test_original_protocol_also_shows_circular_causality_here(self):
        # Figure 1's schedule creates the hb-cycle too (Section 2.2).
        result = figure1_scenario(protocol=ORIGINAL).run()
        ncc = next(r for r in result.check("fec:weak").results if r.name == "NCC")
        assert not ncc.ok

    def test_modified_protocol_same_schedule_is_clean(self):
        result = figure1_scenario(protocol=MODIFIED).run()
        assert result.responses["append_x"] == "ax"
        assert result.responses["duplicate"] == "axax"
        assert result.ok("bec:weak")
        assert result.ok("fec:weak")
        assert result.ok("seq:strong")

    def test_strong_ops_satisfy_seq_even_in_original(self):
        result = figure1_scenario(protocol=ORIGINAL).run()
        assert result.ok("seq:strong")


# ----------------------------------------------------------------------
# E2 — Figure 2
# ----------------------------------------------------------------------
class TestFigure2:
    def test_circular_causality_in_original(self):
        result = figure2_scenario(protocol=ORIGINAL).run()
        assert result.responses["append_x"] == "ayx"   # x observed y
        assert result.responses["append_y"] == "axy"   # y observed x
        assert not result.ok("ncc")                     # circular causality
        assert result.converged

    def test_modified_protocol_avoids_the_cycle(self):
        result = figure2_scenario(protocol=MODIFIED).run()
        assert result.ok("ncc")
        assert result.ok("fec:weak")
        assert result.converged
        # Immediate execution: responses reflect only local state.
        assert result.responses["append_x"] == "ax"
        assert result.responses["append_y"] == "y"


# ----------------------------------------------------------------------
# E3 — Section 2.3 progress
# ----------------------------------------------------------------------
class TestProgress:
    def test_original_bayou_latency_grows_without_bound(self):
        result = run_slow_replica(protocol=ORIGINAL, rounds=24)
        assert result.growth > 5.0
        # Strictly increasing trend on the tail.
        tail = result.latencies[-6:]
        assert all(later > earlier for earlier, later in zip(tail, tail[1:]))

    def test_modified_bayou_is_bounded_wait_free(self):
        result = run_slow_replica(protocol=MODIFIED, rounds=24)
        assert result.growth == 0.0
        assert all(latency == 0.0 for latency in result.latencies)

    def test_backlog_grows_on_the_slow_replica(self):
        result = run_slow_replica(protocol=ORIGINAL, rounds=24)
        assert result.backlog_curve[-1] > result.backlog_curve[2]

    def test_slowed_clock_causes_rollback_storm(self):
        baseline = run_clock_slowdown(slow_rate=1.0, rounds=20)
        slowed = run_clock_slowdown(slow_rate=0.4, rounds=20)
        assert slowed.rollbacks_fast_replicas > 3 * baseline.rollbacks_fast_replicas

    def test_rollback_storm_grows_over_time(self):
        slowed = run_clock_slowdown(slow_rate=0.4, rounds=20)
        assert slowed.late_vs_early_ratio > 2.0


# ----------------------------------------------------------------------
# E4 — Theorem 1 (live)
# ----------------------------------------------------------------------
class TestTheorem1Live:
    @pytest.fixture(scope="class")
    def result(self):
        return theorem1_scenario().run()

    def test_proof_schedule_observables(self, result):
        assert result.responses["a"] == "a"
        assert result.responses["b"] == "b"
        assert result.responses["r"] == "ab"   # tentative order a, b
        assert result.responses["c"] == "bc"   # committed prefix b only

    def test_bec_weak_violated_fec_and_seq_hold(self, result):
        assert not result.ok("bec:weak")
        assert result.ok("fec:weak")
        assert result.ok("seq:strong")

    def test_exhaustive_search_confirms_impossibility(self, result):
        search = find_bec_seq_execution(result.sub_history(["a", "b", "r", "c"]))
        assert not search.satisfiable
        assert search.arbitrations_tried == 24

    def test_cluster_converges_after_quarantine_lifts(self, result):
        assert result.converged


# ----------------------------------------------------------------------
# E5/E6 — Theorems 2 and 3
# ----------------------------------------------------------------------
class TestTheorems:
    @pytest.mark.parametrize("profile", ["counter", "list", "kv", "bank", "set"])
    def test_theorem2_fec_weak_and_seq_strong(self, profile):
        result = run_theorem2(profile)
        assert result.ok("fec:weak") and result.ok("seq:strong"), (
            result.check("fec:weak").summary()
            + " / "
            + result.check("seq:strong").summary()
        )
        assert result.converged

    def test_theorem2_different_seeds(self):
        for seed in (7, 21):
            result = run_theorem2("counter", seed=seed)
            assert result.ok("fec:weak") and result.ok("seq:strong")

    def test_theorem2_original_protocol_strong_ops_still_seq(self):
        result = run_theorem2("counter", protocol=ORIGINAL)
        assert result.ok("seq:strong")

    def test_theorem3_async_run(self):
        during, after = run_theorem3()
        strong = during.history.with_level(STRONG)
        weak = during.history.with_level(WEAK)
        assert sum(event.pending for event in strong) == 1
        assert sum(not event.pending for event in weak) >= 4
        assert not during.ok("seq:strong")  # pending strong op
        assert during.ok("fec:weak")        # weak ops stay correct
        assert after.ok("seq:strong")       # temporary partitions heal
        assert after.ok("fec:weak")
        assert after.converged
