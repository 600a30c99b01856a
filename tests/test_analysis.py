"""Tests for the analysis layer: metrics, workloads, reports, CLI."""

import pytest

from repro.analysis.metrics import (
    LatencyStats,
    count_reordering_witnesses,
    count_trace_final_discords,
    stable_vs_tentative_mismatches,
)
from repro.analysis.report import format_columns, format_table
from repro.analysis.workload import PROFILES, RandomWorkload, WorkloadProfile
from repro.cli import EXPERIMENTS, WITH_ARTIFACT, WITH_SMOKE, build_parser, main
from repro.core.cluster import BayouCluster, MODIFIED
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.framework.history import History, HistoryEvent, WEAK
from repro.sim.rng import SeededRngRegistry


# ----------------------------------------------------------------------
# LatencyStats
# ----------------------------------------------------------------------
def test_latency_stats_basic():
    stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == 2.5
    assert stats.maximum == 4.0
    assert stats.p50 in (2.0, 3.0)


def test_latency_stats_empty():
    stats = LatencyStats.from_samples([])
    assert stats.count == 0
    assert stats.mean == 0.0


def test_latency_stats_percentiles_bounded():
    stats = LatencyStats.from_samples(list(range(100)))
    assert stats.p95 >= stats.p50
    assert stats.maximum >= stats.p95


# ----------------------------------------------------------------------
# Reordering metrics
# ----------------------------------------------------------------------
def _event(eid, trace, tob_no, op=None, rval="x"):
    return HistoryEvent(
        eid=eid,
        session=0 if isinstance(eid, str) else eid[0],
        op=op or RList.append("x"),
        level=WEAK,
        invoke_time=float(tob_no if tob_no is not None else 99),
        return_time=float(tob_no if tob_no is not None else 99) + 0.1,
        rval=rval,
        timestamp=float(tob_no if tob_no is not None else 99),
        tob_no=tob_no,
        perceived_trace=trace,
    )


def test_reordering_witness_counts_discordant_pairs():
    # Figure-2 style: each event perceived the *other* one before itself.
    history = History(
        [
            _event("x", ("y",), 0),
            _event("y", ("x",), 1),
        ],
        RList(),
        well_formed=False,
    )
    assert count_reordering_witnesses(history) == 1


def test_no_witnesses_when_orders_agree():
    history = History(
        [
            _event("x", (), 0),
            _event("y", ("x",), 1),
        ],
        RList(),
        well_formed=False,
    )
    assert count_reordering_witnesses(history) == 0


def test_trace_final_discords():
    history = History(
        [
            _event("x", ("y",), 0),
            _event("y", (), 1),
        ],
        RList(),
        well_formed=False,
    )
    # x's extended trace (y, x) contradicts final order (x=0 < y=1).
    assert count_trace_final_discords(history) == 1


def test_stable_vs_tentative_mismatch_detection():
    history = History(
        [
            _event("a", (), 0, op=RList.append("a"), rval="a"),
            # b tentatively saw nothing ("b"), but the final order puts it
            # after a, so its final-order value would be "ab".
            _event("b", (), 1, op=RList.append("b"), rval="b"),
        ],
        RList(),
        well_formed=False,
    )
    assert stable_vs_tentative_mismatches(history) == 1


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
def test_profiles_sample_valid_operations():
    rng = SeededRngRegistry(5).stream("t")
    for name, factory in PROFILES.items():
        profile = factory()
        for _ in range(20):
            op, strong = profile.sample(rng)
            assert isinstance(strong, bool)
            assert op.name


def test_profile_strong_probability_extremes():
    rng = SeededRngRegistry(6).stream("t")
    always = WorkloadProfile(
        "t", [(1.0, lambda r: Counter.read())], strong_probability=1.0
    )
    never = WorkloadProfile(
        "t", [(1.0, lambda r: Counter.read())], strong_probability=0.0
    )
    assert all(always.sample(rng)[1] for _ in range(10))
    assert not any(never.sample(rng)[1] for _ in range(10))


def test_random_workload_runs_to_completion():
    config = BayouConfig(n_replicas=2, exec_delay=0.01, message_delay=0.2)
    cluster = BayouCluster(Counter(), config, protocol=MODIFIED)
    workload = RandomWorkload(
        cluster, PROFILES["counter"](), ops_per_session=5, seed=11
    )
    workload.start()
    cluster.run_until_quiescent()
    assert workload.all_done
    assert len(workload.latencies()) == 10


def test_random_workload_deterministic_under_seed():
    def run(seed):
        config = BayouConfig(n_replicas=2, exec_delay=0.01, message_delay=0.2)
        cluster = BayouCluster(Counter(), config, protocol=MODIFIED)
        workload = RandomWorkload(
            cluster, PROFILES["counter"](), ops_per_session=5, seed=seed
        )
        workload.start()
        cluster.run_until_quiescent()
        return [
            (event.eid, event.rval)
            for event in cluster.build_history(well_formed=False).events
        ]

    assert run(3) == run(3)
    assert run(3) != run(4)


# ----------------------------------------------------------------------
# Report tables
# ----------------------------------------------------------------------
def test_format_table_alignment_and_title():
    table = format_table(
        ["name", "value"],
        [["alpha", 1.23456], ["b", True]],
        title="Demo",
    )
    lines = table.splitlines()
    assert lines[0] == "Demo"
    assert "alpha" in table
    assert "1.235" in table  # floats rendered to 3 decimals
    assert "yes" in table    # booleans rendered yes/no


def test_format_table_handles_wide_cells():
    table = format_table(["h"], [["a-very-wide-cell-value"]])
    header_line, _, row_line = table.splitlines()
    assert len(header_line) == len(row_line)


def test_format_table_rejects_a_row_longer_than_the_header():
    with pytest.raises(ValueError, match="row 1"):
        format_table(["a"], [[0], [1, 2]])


def test_format_table_rejects_a_row_shorter_than_the_header():
    with pytest.raises(ValueError, match="row 0"):
        format_table(["a", "b"], [[1]])


def test_format_columns_declares_each_column_once():
    columns = (("name", lambda row: row[0]), ("twice", lambda row: 2 * row[1]))
    assert format_columns(columns, [("x", 1)], title="T") == format_table(
        ["name", "twice"], [["x", 2]], title="T"
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_experiment_table_resolves_every_module():
    """The table names modules as strings; a misspelt one must fail here,
    not the first time someone runs that experiment."""
    import importlib

    import inspect

    assert all(len(entry) == 2 for entry in EXPERIMENTS.values())
    assert WITH_ARTIFACT <= set(EXPERIMENTS) and WITH_SMOKE <= set(EXPERIMENTS)
    for name, (_, module) in EXPERIMENTS.items():
        experiment = importlib.import_module(f"repro.analysis.experiments.{module}")
        assert callable(experiment.main)
        takes_smoke = "smoke" in inspect.signature(experiment.main).parameters
        assert takes_smoke == (name in WITH_SMOKE)


def test_cli_runs_single_experiment(capsys):
    assert main(["sessions"]) == 0
    out = capsys.readouterr().out
    assert "RYW" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["not-an-experiment"])


def _stub_experiment(monkeypatch, artifact):
    """Register ``stub``, an experiment whose ``main`` returns ``artifact``."""
    import sys
    import types

    module = types.ModuleType("repro.analysis.experiments.stub")
    module.main = lambda: artifact
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(EXPERIMENTS, "stub", ("a stub experiment", "stub"))
    monkeypatch.setattr("repro.cli.WITH_ARTIFACT", WITH_ARTIFACT | {"stub"})


def test_cli_writes_a_failed_artifact_and_exits_1(monkeypatch, tmp_path, capsys):
    import json

    _stub_experiment(monkeypatch, {"ok": False, "n": 1})
    path = tmp_path / "stub.json"
    assert main(["stub", "--json", str(path)]) == 1
    assert json.loads(path.read_text()) == {"ok": False, "n": 1}
    assert f"wrote {path}" in capsys.readouterr().out


def test_cli_exit_status_follows_ok_without_json(monkeypatch):
    _stub_experiment(monkeypatch, {"ok": False})
    assert main(["stub"]) == 1
    _stub_experiment(monkeypatch, {"ok": True})
    assert main(["stub"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--json", "FILE"],
        ["all", "--json", "FILE"],
        ["figure1", "--smoke"],
        ["shard", "--smoke"],
    ],
)
def test_cli_flag_the_experiment_lacks_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert not path.exists()
    assert "==" not in capsys.readouterr().out  # nothing ran


def test_cli_shard_smoke(capsys):
    """The E12 command runs end to end and prints both tables."""
    assert main(["shard"]) == 0
    out = capsys.readouterr().out
    assert "Sharded scaling" in out
    assert "conservation" in out.lower()
    assert "speedup" in out


def test_shard_json_artifact(tmp_path):
    """The --json artifact CI uploads carries the headline verdicts."""
    import json

    path = tmp_path / "E12.json"
    assert main(["shard", "--json", str(path)]) == 0
    artifact = json.loads(path.read_text())
    assert artifact["experiment"] == "E12-sharding"
    assert artifact["speedup_4_shards_uniform"] >= 2.0
    assert artifact["all_converged"]
    assert artifact["all_conserved"]
    assert artifact["all_bit_identical"]
    assert len(artifact["scaling"]) == 10
    assert len(artifact["conservation"]) == 2


def test_cli_reshard_smoke(capsys):
    """The E13 command runs end to end and prints both tables."""
    assert main(["reshard"]) == 0
    out = capsys.readouterr().out
    assert "Live split under traffic" in out
    assert "conservation" in out.lower()
    assert "post-split deviation" in out


def test_reshard_json_artifact(tmp_path):
    """The E13 --json artifact carries the elasticity gates CI checks."""
    import json

    path = tmp_path / "E13.json"
    assert main(["reshard", "--json", str(path)]) == 0
    artifact = json.loads(path.read_text())
    assert artifact["experiment"] == "E13-resharding"
    assert artifact["all_converged"]
    assert artifact["all_conserved"]
    assert artifact["max_post_split_deviation"] <= 0.10
    assert artifact["min_dip_ratio"] > 0.0
    assert len(artifact["splits"]) == 4
    assert len(artifact["conservation"]) == 2
