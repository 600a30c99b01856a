"""The strength relations of Section 3.3/4.2, verified empirically.

The paper proves ``BEC(l, F) > FEC(l, F)``: FEC is a strict weakening
(it uses ``par`` instead of ``ar`` for return values, but ``par`` must
converge to ``ar``). We verify both directions:

- (⇒, at the abstract-execution level) any execution satisfying BEC's
  predicates with ``par = ar`` also satisfies FEC's;
- (strictness) there are histories satisfying FEC but not BEC — Figure 1
  and the Theorem-1 history are the canonical witnesses.
"""

import random

import pytest

from repro.analysis.workload import PROFILES, RandomWorkload
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.framework.abstract_execution import AbstractExecution
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_bec, check_fec, check_seq
from repro.framework.history import STRONG, WEAK
from repro.framework.impossibility import build_theorem1_history


def _run_random(seed, protocol):
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.03,
        message_delay=0.8,
        latency_jitter=0.3,
        seed=seed,
    )
    cluster = BayouCluster(Counter(), config, protocol=protocol)
    workload = RandomWorkload(
        cluster, PROFILES["counter"](), ops_per_session=8, seed=seed
    )
    workload.start()
    cluster.run_until_quiescent()
    cluster.add_horizon_probes(Counter.read)
    cluster.run_until_quiescent()
    return build_abstract_execution(cluster.build_history())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_bec_implies_fec_with_trivial_par(seed):
    """If A (with par := ar) satisfies BEC's predicates, it satisfies FEC's."""
    execution = _run_random(seed, MODIFIED)
    collapsed = AbstractExecution(
        history=execution.history,
        vis=execution.vis,
        ar=execution.ar,
        par={},  # par defaults to ar: the BEC special case of FEC
    )
    if check_bec(collapsed, WEAK).ok:
        assert check_fec(collapsed, WEAK).ok


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_fec_holds_whenever_bec_holds_on_real_runs(seed):
    execution = _run_random(seed, MODIFIED)
    bec = check_bec(execution, WEAK)
    fec = check_fec(execution, WEAK)
    if bec.ok:
        assert fec.ok


def test_fec_strictly_weaker_than_bec():
    """The Theorem-1 history separates the two criteria."""
    from repro.framework.impossibility import build_fec_witness

    witness = build_fec_witness()
    assert witness.fec_weak.ok
    assert not check_bec(witness.execution, WEAK).ok


def test_seq_strong_independent_of_weak_violations():
    """Seq(strong) can hold while BEC(weak) fails (Figure 1's very point)."""
    from repro.analysis.experiments.figure1 import figure1_scenario

    result = figure1_scenario(protocol=ORIGINAL).run()
    assert result.ok("seq:strong")
    assert not result.ok("bec:weak")


def test_guarantee_reports_expose_failures():
    execution = _run_random(8, MODIFIED)
    report = check_fec(execution, WEAK)
    assert report.ok
    assert report.failed() == []
    assert "FEC(weak)" in report.summary()
    assert "SATISFIED" in repr(report)
