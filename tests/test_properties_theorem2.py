"""Property-based Theorem 2: FEC(weak) ∧ Seq(strong) across random configs.

Where ``test_experiments.py`` checks fixed seeds, this sweeps the
configuration space with hypothesis: data type, timing parameters, clock
offsets and workload seeds all vary. Every stable run of the modified
protocol must pass the paper's conjunction — this is the strongest
single statement of Theorem 2 in the test suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.workload import PROFILES, RandomWorkload
from repro.core.cluster import BayouCluster, MODIFIED
from repro.core.config import BayouConfig
from repro.analysis.experiments.theorems import DATATYPES
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_fec, check_seq
from repro.framework.history import STRONG, WEAK


@settings(max_examples=12)
@given(
    profile_name=st.sampled_from(sorted(DATATYPES)),
    seed=st.integers(0, 10_000),
    message_delay=st.sampled_from([0.3, 1.0, 2.5]),
    jitter=st.sampled_from([0.0, 0.4]),
    exec_delay=st.sampled_from([0.01, 0.2]),
    offset=st.floats(-0.2, 0.2),
)
def test_theorem2_holds_for_random_configurations(
    profile_name, seed, message_delay, jitter, exec_delay, offset
):
    datatype_cls, probe = DATATYPES[profile_name]
    config = BayouConfig(
        n_replicas=3,
        exec_delay=exec_delay,
        message_delay=message_delay,
        latency_jitter=jitter,
        clock_offsets={1: offset},
        seed=seed,
    )
    cluster = BayouCluster(datatype_cls(), config, protocol=MODIFIED)
    workload = RandomWorkload(
        cluster,
        PROFILES[profile_name](),
        ops_per_session=5,
        think_time=0.4,
        seed=seed,
    )
    workload.start()
    cluster.run_until_quiescent()
    assert workload.all_done
    cluster.add_horizon_probes(probe)
    cluster.run_until_quiescent()

    history = cluster.build_history()
    execution = build_abstract_execution(history)
    fec = check_fec(execution, WEAK)
    seq = check_seq(execution, STRONG)
    assert fec.ok, fec.summary() + " " + str(fec.failed()[0].violations[:3])
    assert seq.ok, seq.summary() + " " + str(seq.failed()[0].violations[:3])
    assert cluster.converged()
