"""Self-check of the benchmark against its own contract.

Run with ``python -m pytest bench -q`` (tier-1's ``testpaths`` do not
collect this directory). Every run here is ``--size quick``: about a second
per simulated run, a few for the TCP one.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


def test_spec_shape() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload: str, trace: int) -> None:
    """The last stdout line carries exactly the declared metrics, with
    their units; a metric the code computes but the spec does not name is a
    run failure (non-zero exit)."""
    completed = _run("--workload", workload, "--size", "quick", "--seed", "3", "--trace", str(trace))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, f"{metric['name']} must never be 0"


def test_same_seed_same_outputs() -> None:
    """Simulated-time metrics are a function of the seed alone."""
    runs = [
        json.loads(_run("--workload", "heal_storm", "--size", "quick", "--seed", "5").stdout.strip().splitlines()[-1])
        for _ in range(2)
    ]
    for name in ("weak_respond_mean_ms", "strong_respond_p50_ms", "strong_respond_p95_ms"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_no_program_no_result(tmp_path) -> None:
    """In a directory holding only the benchmark, the run fails cleanly."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache")
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paxos_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_compare_baseline_with_itself() -> None:
    baseline = os.path.join(BENCH_DIR, "results", "BENCH_11.json")
    completed = _run("--compare", baseline, baseline)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    deltas = re.findall(r"([+-]\d+\.\d)%", completed.stdout)
    assert deltas and all(float(delta) == 0.0 for delta in deltas)
