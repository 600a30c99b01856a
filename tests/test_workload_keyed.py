"""Tests for workload sampling: bisect-based draws, key skew, sessions.

Covers the PR-4 satellite fixes: ``WorkloadProfile.sample`` precomputes
cumulative weights once and picks with ``bisect`` (the old path re-summed
every factory weight per draw and leaned on a float-edge ``else``), plus
the keyed/skewed generator (``KeySampler``) shared by E12 and the fluent
``Scenario.workload(keys=..., key_skew=...)``.
"""

from collections import Counter as Histogram

import pytest

from repro.analysis.workload import (
    KeySampler,
    PROFILES,
    RandomWorkload,
    ShiftingHotspotSampler,
    WorkloadProfile,
    bank_profile,
    kv_profile,
    make_sampler,
)
from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.sim.rng import SeededRngRegistry


def _ops(names_weights):
    """A profile whose factories return distinguishable no-arg ops."""
    return WorkloadProfile(
        "hist",
        [
            (weight, (lambda n: (lambda rng: RList.append(n)))(name))
            for name, weight in names_weights
        ],
    )


# ----------------------------------------------------------------------
# The bisect sampler (satellite regression)
# ----------------------------------------------------------------------
def test_sample_histogram_matches_weights():
    """10⁴ draws land within 10% (relative) of every declared weight."""
    weights = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    profile = _ops(list(weights.items()))
    rng = SeededRngRegistry(42).stream("hist")
    draws = 10_000
    histogram = Histogram(
        profile.sample(rng)[0].args[0] for _ in range(draws)
    )
    total_weight = sum(weights.values())
    for name, weight in weights.items():
        expected = draws * weight / total_weight
        assert abs(histogram[name] - expected) <= 0.1 * expected, (
            f"{name}: drew {histogram[name]}, expected ~{expected:.0f}"
        )


def test_sample_covers_first_and_last_factory():
    profile = _ops([("first", 1.0), ("last", 1.0)])
    rng = SeededRngRegistry(7).stream("edges")
    drawn = {profile.sample(rng)[0].args[0] for _ in range(200)}
    assert drawn == {"first", "last"}


def test_profile_rejects_non_positive_weights():
    with pytest.raises(ValueError, match="positive"):
        WorkloadProfile("bad", [(0.0, lambda rng: RList.read())])
    with pytest.raises(ValueError, match="positive"):
        WorkloadProfile("bad", [(-1.0, lambda rng: RList.read())])


def test_dataclasses_replace_recomputes_cumulative_weights():
    import dataclasses

    profile = _ops([("a", 1.0), ("b", 3.0)])
    clone = dataclasses.replace(profile, strong_probability=1.0)
    rng = SeededRngRegistry(3).stream("replace")
    op, strong = clone.sample(rng)
    assert strong is True
    assert op.args[0] in ("a", "b")


def test_strong_ops_always_issued_strong_without_disturbing_the_stream():
    """Forcing transfer strong must not consume extra random draws."""
    plain = bank_profile(strong_probability=0.0)
    rng_a = SeededRngRegistry(9).stream("s")
    rng_b = SeededRngRegistry(9).stream("s")
    forced = [plain.sample(rng_a) for _ in range(100)]
    replay = [plain.sample(rng_b) for _ in range(100)]
    assert [op.name for op, _ in forced] == [op.name for op, _ in replay]
    for op, strong in forced:
        assert strong is (op.name == "transfer")


# ----------------------------------------------------------------------
# Key samplers
# ----------------------------------------------------------------------
def test_uniform_sampler_covers_all_keys_evenly():
    sampler = KeySampler.uniform(list(range(8)))
    rng = SeededRngRegistry(1).stream("uniform")
    histogram = Histogram(sampler.sample(rng) for _ in range(8_000))
    for key in range(8):
        assert abs(histogram[key] - 1_000) < 150


def test_zipf_sampler_prefers_head_keys():
    sampler = KeySampler.zipf([f"k{i}" for i in range(16)], s=1.2)
    rng = SeededRngRegistry(2).stream("zipf")
    histogram = Histogram(sampler.sample(rng) for _ in range(5_000))
    assert histogram["k0"] > histogram["k7"] > histogram["k15"]
    assert histogram["k0"] > 3 * histogram["k15"]


def test_sampler_determinism_under_seed():
    keys = [f"k{i}" for i in range(10)]
    draws_a = [
        KeySampler.zipf(keys).sample(SeededRngRegistry(5).stream("d"))
    ]
    draws_b = [
        KeySampler.zipf(keys).sample(SeededRngRegistry(5).stream("d"))
    ]
    assert draws_a == draws_b


def test_sampler_validation():
    with pytest.raises(ValueError, match="at least one key"):
        KeySampler([])
    with pytest.raises(ValueError, match="one-to-one"):
        KeySampler(["a"], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        KeySampler(["a"], [0.0])
    with pytest.raises(ValueError, match="exponent"):
        KeySampler.zipf(["a"], s=0.0)
    with pytest.raises(ValueError, match="unknown key skew"):
        make_sampler(["a"], "pareto")


def test_keyed_profiles_draw_from_custom_sampler():
    keys = ["only-key"]
    rng = SeededRngRegistry(4).stream("kv")
    profile = kv_profile(sampler=KeySampler.uniform(keys))
    for _ in range(20):
        op, _ = profile.sample(rng)
        assert op.args[0] == "only-key"


# ----------------------------------------------------------------------
# RandomWorkload session count
# ----------------------------------------------------------------------
def test_random_workload_session_override():
    config = BayouConfig(n_replicas=2, exec_delay=0.01, message_delay=0.2)
    cluster = BayouCluster(Counter(), config)
    workload = RandomWorkload(
        cluster, PROFILES["counter"](), ops_per_session=3, seed=1, sessions=5
    )
    workload.start()
    cluster.run_until_quiescent()
    assert len(workload.sessions) == 5
    assert workload.all_done
    assert len(workload.latencies()) == 15
    # Sessions bind round-robin over the replica indexes.
    assert [s.pid for s in workload.sessions] == [0, 1, 0, 1, 0]


def test_random_workload_rejects_zero_sessions():
    config = BayouConfig(n_replicas=2)
    cluster = BayouCluster(Counter(), config)
    with pytest.raises(ValueError, match="sessions"):
        RandomWorkload(cluster, PROFILES["counter"](), sessions=0)


# ----------------------------------------------------------------------
# The fluent entry point
# ----------------------------------------------------------------------
def test_scenario_workload_rejects_keys_for_unkeyed_profiles():
    from repro.scenario import Scenario
    from repro.datatypes.counter import Counter as CounterType

    with pytest.raises(ValueError, match="not keyed"):
        Scenario(CounterType()).workload("counter", keys=["a"])


def test_scenario_workload_rejects_keys_with_profile_instance():
    from repro.scenario import Scenario

    with pytest.raises(ValueError, match="named profiles"):
        Scenario(Counter()).workload(PROFILES["counter"](), keys=["a"])


# ----------------------------------------------------------------------
# The shifting hotspot (time-varying Zipf, E14's adversary)
# ----------------------------------------------------------------------
def test_shifting_hotspot_rotates_the_zipf_head_per_phase():
    """The histogram's hottest key is keys[phase] in every phase."""
    keys = ["a", "b", "c", "d", "e", "f"]
    sampler = ShiftingHotspotSampler(keys, [10.0, 20.0], s=1.4)
    rng = SeededRngRegistry(11).stream("hotspot")
    for now, expected_phase, expected_hot in [
        (0.0, 0, "a"), (10.0, 1, "b"), (25.0, 2, "c"),
    ]:
        sampler.set_now(now)
        assert sampler.phase() == expected_phase
        histogram = Histogram(sampler.sample(rng) for _ in range(3_000))
        hottest = max(histogram, key=histogram.get)
        assert hottest == expected_hot
        # The shape is unchanged — only which key carries the head.
        assert histogram[expected_hot] > 2 * min(histogram.values())


def test_shifting_hotspot_phase_boundaries_are_inclusive_and_sorted():
    sampler = ShiftingHotspotSampler(["x", "y"], [20.0, 5.0])  # unsorted
    assert sampler.shift_times == (5.0, 20.0)
    assert sampler.phase(4.9) == 0
    assert sampler.phase(5.0) == 1  # a shift takes effect at its time
    assert sampler.phase(20.0) == 2
    assert sampler.time_varying is True
    with pytest.raises(ValueError, match="exponent"):
        ShiftingHotspotSampler(["x"], [1.0], s=0.0)


def test_time_varying_profile_forces_lazy_submission_and_completes():
    """A time-varying kv profile runs lazily (one draw per response) and
    still issues every op; keys drawn late follow the shifted head."""
    from repro.datatypes.kvstore import KVStore

    keys = [f"k{i}" for i in range(8)]
    profile = kv_profile(
        strong_probability=0.0,
        sampler=ShiftingHotspotSampler(keys, [6.0], s=2.5),
    )
    assert profile.time_varying
    config = BayouConfig(n_replicas=2, exec_delay=0.05, message_delay=0.2)
    cluster = BayouCluster(KVStore(), config)
    workload = RandomWorkload(
        cluster, profile, ops_per_session=20, think_time=0.3, seed=2,
        sessions=4,
    )
    workload.start()
    cluster.run_until_quiescent()
    assert workload.all_done
    futures = [f for session in workload.sessions for f in session.futures]
    assert len(futures) == 80
    # Ops invoked in each phase draw from that phase's rotated head.
    early = Histogram(
        f.op.args[0] for f in futures if f.invoke_time < 6.0
    )
    late = Histogram(
        f.op.args[0] for f in futures if f.invoke_time >= 6.0
    )
    assert max(early, key=early.get) == "k0"
    assert max(late, key=late.get) == "k1"


def test_fixed_skew_profiles_still_presample_eagerly():
    """The historical eager path is untouched for fixed-skew samplers:
    every op of every session is submitted at start()."""
    config = BayouConfig(n_replicas=2, exec_delay=0.01, message_delay=0.2)
    cluster = BayouCluster(Counter(), config)
    profile = PROFILES["counter"]()
    assert not profile.time_varying
    workload = RandomWorkload(cluster, profile, ops_per_session=5, seed=1)
    workload.start()
    # Eager mode: the full op list is enqueued before the sim runs.
    assert all(len(s.futures) == 5 for s in workload.sessions)


def test_scenario_workload_hotspot_shift_validation():
    from repro.scenario import Scenario
    from repro.datatypes.kvstore import KVStore

    with pytest.raises(ValueError, match="needs keys"):
        Scenario(KVStore()).workload("kv", hotspot_shift=[5.0])
    with pytest.raises(ValueError, match="named profiles"):
        Scenario(KVStore()).workload(
            kv_profile(), hotspot_shift=[5.0]
        )
    # The happy path builds a ShiftingHotspotSampler under the hood.
    scenario = Scenario(KVStore()).shards(2).workload(
        "kv", keys=["a", "b"], hotspot_shift=[5.0]
    )
    (spec,) = scenario._records
    assert isinstance(spec.profile.sampler, ShiftingHotspotSampler)
    assert spec.profile.sampler.shift_times == (5.0,)
