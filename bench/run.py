#!/usr/bin/env python3
"""The repo's benchmark: five named workloads, end-to-end and per-layer.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload paxos_steady --seed 11 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` is the
traced pass that yields the per-layer metrics. The exit code is non-zero
when a correctness check fails.

Without ``--workload`` the whole ledger is run (every workload, several
runs each, each run in a fresh child process) — see ``suite.py``::

    python3 bench/run.py --out bench/results/BENCH_local.json
    python3 bench/run.py --quick
    python3 bench/run.py --compare bench/results/BENCH_11.json BENCH_local.json
    python3 bench/run.py --cprofile paxos_steady

Everything is read and written inside the checkout: the program under test
is imported from ``<checkout>/src`` and scratch files (WAL directories,
cluster specs) live under ``<checkout>/.bench_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("heal_storm", "paxos_steady", "shard_mixed", "paxos_failover", "tcp_closed")


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names and units are fixed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def use_checkout() -> str:
    """Put the checkout's program on the path and scratch space under it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: no program to measure: {SRC}/repro is missing")
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Child replica processes inherit both: they must import the same
    # checkout and drop their temp files (cluster specs) inside it.
    os.environ["PYTHONPATH"] = SRC
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    return work


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
#: Simulated-time numbers that must be identical in every instance of a
#: run (same seed, same inputs): the determinism check, with the digest.
EXACT = (
    "weak_respond_mean_ms",
    "strong_respond_p50_ms",
    "strong_respond_p95_ms",
    "sends_per_op",
    "execs_per_op",
)


#: Build-only repetitions per run (a build takes 10-50 ms); the median is
#: reported, normalised by the machine speed measured around the batch.
SETUP_REPEATS = 9


def _instances_until(budget_s: float, started: float, make: Any) -> List[Dict[str, Any]]:
    """Run instances back to back until starting another would overshoot."""
    instances: List[Dict[str, Any]] = []
    while True:
        instances.append(make())
        typical = median([i["setup_s"] + i["wall_s"] for i in instances])
        if perf_counter() - started + 0.5 * typical >= budget_s:
            return instances


def _same_outputs(instances: List[Dict[str, Any]]) -> List[str]:
    first = instances[0]
    failures = []
    for other in instances[1:]:
        if other["digest"] != first["digest"]:
            failures.append("digest differs between two instances of one seed")
        for key in EXACT:
            if other[key] != first[key]:
                failures.append(f"{key} differs between two instances of one seed")
    return failures


def run_simulated(name: str, seed: int, seconds: float, trace: bool, size: str, work: str) -> Dict[str, Any]:
    import machine
    import tracing
    import workloads

    setups = workloads.time_setups(name, seed, size, work, SETUP_REPEATS)
    meter = machine.Speedometer()
    started = perf_counter()

    def plain() -> Dict[str, Any]:
        return workloads.run_instance(name, seed, size, work, meter)

    detail: Dict[str, Any] = {"missing_wrap_points": []}
    if not trace:
        instances = _instances_until(seconds, started, plain)
        traced: List[Dict[str, Any]] = []
        observed: Optional[Dict[str, Any]] = None
    else:
        # Untraced and traced instances alternate (the untraced ones are
        # the baseline the overhead is measured against, and the host's
        # speed drifts), then one instance runs with the telemetry plane
        # on and nothing wrapped.
        instances, traced = [], []

        def pair() -> Dict[str, Any]:
            instances.append(plain())
            tracer = tracing.install()
            try:
                traced.append(workloads.run_instance(name, seed, size, work, meter, tracer=tracer))
            finally:
                tracer.uninstall()
            detail["missing_wrap_points"] = tracer.missing
            return {key: instances[-1][key] + traced[-1][key] for key in ("setup_s", "wall_s")}

        _instances_until(seconds, started, pair)
        observed = workloads.run_instance(name, seed, size, work, meter, telemetry=True)
    contract = workloads.contract_check(name, seed, work)

    measured = instances + traced + ([observed] if observed else [])
    failures = _same_outputs(measured) + contract["failures"]
    for instance in measured:
        failures.extend(instance["failures"])
    first = instances[0]
    wall = median([i["wall_s"] for i in instances])
    # One machine-speed factor for the whole run scales every clocked second.
    factor = meter.factor()
    e2e = {
        "setup_s": median(setups),
        "ops_per_s": median([i["ops_per_s"] for i in instances]) / factor,
        "weak_respond_mean_ms": first["weak_respond_mean_ms"],
        "strong_respond_p50_ms": first["strong_respond_p50_ms"],
        "strong_respond_p95_ms": first["strong_respond_p95_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = simulated_layers(traced, wall, observed, factor)
    detail.update(
        speed_factor=factor,
        instances=[_slim(i) for i in measured],
        digest=first["digest"],
        contract=contract["reported"],
        samples={"weak_n": first["weak_n"], "strong_n": first["strong_n"]},
        extras={
            key: first[key]
            for key in (
                "weak_respond_p50_ms",
                "weak_respond_p99_ms",
                "strong_respond_mean_ms",
                "weak_staleness_p50_ms",
                "outage_ms",
                "reconverge_ms",
                "sim_time",
            )
        },
    )
    return {
        "failures": failures,
        "attempted": sum(i["attempted"] for i in measured),
        "failed": sum(i["failed"] for i in measured),
        "end_to_end": e2e,
        "per_layer": layers,
        "detail": detail,
    }


def _slim(instance: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: instance[key]
        for key in ("setup_s", "wall_s", "ops", "failed", "ops_per_s", "digest")
    }


def simulated_layers(
    traced: List[Dict[str, Any]], untraced_wall: float, observed: Dict[str, Any], factor: float
) -> Dict[str, float]:
    """The per-layer metrics of a simulated workload's traced pass
    (``untraced_wall`` as clocked; ``factor`` normalises the self times)."""
    from workloads import ratio

    first = traced[0]
    ops = first["ops"]
    counts = first["counts"]

    def self_s(layer: str) -> float:
        return median([t["self_s"].get(layer, 0.0) for t in traced]) * factor

    def per_op(key: str) -> float:
        return ratio(counts.get(key, 0), ops)

    tob_msgs = counts.get("msgs.paxos", 0) + counts.get("msgs.seqtob", 0)
    unattributed = median(
        [1.0 - ratio(sum(t["self_s"].values()), t["setup_s"] + t["wall_s"]) for t in traced]
    )
    return {
        "sim.self_s": self_s("sim"),
        "sim.events_per_op": first["events_per_op"],
        "sim.timers_per_op": per_op("sim.timers"),
        "sim.timers_cancelled_frac": ratio(counts.get("sim.timers_cancelled", 0), counts.get("sim.timers", 0)),
        "net.self_s": self_s("net"),
        "net.sends_per_op": first["sends_per_op"],
        "net.held_per_op": first["held_per_op"],
        "net.dropped_frac": first["dropped_frac"],
        "runtime.self_s": self_s("runtime"),
        "broadcast.rb.self_s": self_s("broadcast.rb"),
        "broadcast.rb.msgs_per_op": per_op("msgs.rb"),
        "broadcast.tob.self_s": self_s("broadcast.tob"),
        "broadcast.tob.msgs_per_op": ratio(tob_msgs, ops),
        "broadcast.tob.ops_per_instance": ratio(counts.get("paxos.instance_ops", 0), counts.get("paxos.instances", 0)),
        "broadcast.tob.prepares": counts.get("msgs.paxos.p1a", 0),
        "broadcast.tob.nacks": counts.get("msgs.paxos.nack", 0),
        "broadcast.tob.catchup_msgs": counts.get("msgs.paxos.status", 0) + counts.get("msgs.paxos.repair", 0),
        "broadcast.tob.order_wait_p50_ms": first["order_wait_p50_ms"],
        "broadcast.tob.outage_ms": first["outage_ms"],
        "broadcast.omega.self_s": self_s("broadcast.omega"),
        "broadcast.omega.msgs_per_op": per_op("msgs.omega"),
        "core.replica.self_s": self_s("core.replica"),
        "core.replica.rediffs_per_op": ratio(counts.get("replica.rediffs", 0), counts.get("replica.deliveries", 0)),
        "core.replica.rollbacks_per_op": first["rollbacks_per_op"],
        "core.replica.execs_per_op": first["execs_per_op"],
        "core.replica.reconverge_ms": first["reconverge_ms"],
        "core.replica.weak_staleness_p50_ms": first["weak_staleness_p50_ms"],
        "core.state.self_s": self_s("core.state"),
        "core.state.checkpoint_restores": first["checkpoint_restores"],
        "core.state.undo_unwinds": first["undo_unwinds"],
        "core.durability.self_s": self_s("core.durability"),
        "core.durability.appends_per_op": per_op("durability.appends"),
        "core.durability.bytes_per_op": first["wal_bytes_per_op"],
        "core.session.self_s": self_s("core.session"),
        "shard.router.self_s": self_s("shard.router"),
        "shard.router.deferred_frac": first.get("deferred_frac", 0.0),
        "shard.coordinator.self_s": self_s("shard.coordinator"),
        "shard.coordinator.subs_per_plan": first.get("subs_per_plan", 0.0),
        "shard.coordinator.aborted_frac": first.get("aborted_frac", 0.0),
        "shard.coordinator.lost": first.get("lost", 0),
        "datatypes.self_s": self_s("datatypes"),
        "obs.overhead_frac": ratio(observed["wall_s"], untraced_wall) - 1.0,
        "obs.spans_per_op": observed["spans_per_op"],
        "bench.trace_overhead_frac": ratio(median([t["wall_s"] for t in traced]), untraced_wall) - 1.0,
        "bench.unattributed_frac": max(0.0, unattributed),
    }


# ----------------------------------------------------------------------
# The TCP workload
# ----------------------------------------------------------------------
#: Deployments spawned per untraced run.
TCP_SETUPS = 3


def run_tcp(seed: int, seconds: float, trace: bool, size: str, work: str) -> Dict[str, Any]:
    import random

    import machine
    import tcp
    import tracing
    from workloads import ratio

    meter = machine.Speedometer()
    rng = random.Random(seed)
    n_ops = tcp.QUICK_OPS if size == "quick" else max(tcp.QUICK_OPS, int(seconds * tcp.OPS_PER_BUDGET_SECOND))
    setups: List[float] = []
    layers: Dict[str, float] = {}
    detail: Dict[str, Any] = {"missing_wrap_points": []}
    windows: List[Dict[str, Any]] = []

    def measure(telemetry: bool, ops: int, tracer: Any = None) -> Dict[str, Any]:
        deployment = tcp.Deployment(work, telemetry=telemetry)
        try:
            meter.sample()
            setups.append(deployment.start(rng))
            window = tcp.run_window(deployment, rng, ops, meter, tracer)
            if telemetry:
                window["telemetry"] = deployment.telemetry()
            windows.append(window)
            return window
        finally:
            deployment.close()

    if not trace:
        # Three fresh deployments, a third of the operations on each: how
        # the four processes land on the two cores differs from spawn to
        # spawn and moves every number by ~10 %, so each metric is the
        # median over the three.
        shares = 1 if size == "quick" else TCP_SETUPS
        for _ in range(shares):
            measure(False, n_ops // shares)
        window = {
            key: median([w[key] for w in windows])
            for key, value in windows[0].items()
            if isinstance(value, (int, float))
        }
    else:
        # The same number of operations on a plain deployment (the
        # baseline) and on one with the telemetry plane armed and the
        # client calls wrapped.
        half = min(tcp.TRACED_OPS, n_ops)
        window = measure(False, half)
        tracer = tracing.install_client()
        try:
            traced = measure(True, half, tracer)
        finally:
            tracer.uninstall()
        detail["missing_wrap_points"] = tracer.missing
        ops = traced["ops"]
        call_s = traced["self_s"].get("runtime", 0.0)
        codec_s = traced["self_s"].get("runtime.codec", 0.0)
        overhead = ratio(window["ops_per_s"], traced["ops_per_s"]) - 1.0
        layers = {
            "runtime.self_s": (call_s + codec_s) * meter.factor(),
            "runtime.frames_per_op": ratio(traced["telemetry"]["frames"], ops + tcp.WARMUP_OPS),
            "runtime.codec_us_per_frame": ratio(codec_s * 1e6, 2 * ops) * meter.factor(),
            "runtime.redials": traced["telemetry"]["redials"],
            "core.durability.bytes_per_op": traced["wal_bytes_per_op"],
            "obs.overhead_frac": overhead,
            "obs.spans_per_op": ratio(traced["telemetry"]["spans"], ops + tcp.WARMUP_OPS),
            "tcp.replica_cpu_ms_per_op": traced["replica_cpu_ms_per_op"],
            "tcp.client_cpu_ms_per_op": traced["client_cpu_ms_per_op"],
            "tcp.rpc_wait_frac": ratio(call_s, traced["wall_s"]),
            "bench.trace_overhead_frac": overhead,
            "bench.unattributed_frac": max(0.0, 1.0 - ratio(call_s + codec_s, traced["wall_s"])),
        }
    failures = [failure for w in windows for failure in w["failures"]]
    # One machine-speed factor for the whole run scales every clocked second.
    factor = meter.factor()
    e2e = {
        "setup_s": median(setups) * factor,
        "ops_per_s": window["ops_per_s"] / factor,
        "weak_respond_mean_ms": window["weak_respond_mean_ms"] * factor,
        "strong_respond_p50_ms": window["strong_respond_p50_ms"] * factor,
        "strong_respond_p95_ms": window["strong_respond_p95_ms"] * factor,
        "peak_rss_mb": window["peak_rss_mb"],
    }
    detail.update(
        speed_factor=factor,
        instances=[
            {"setup_s": s, "wall_s": w["wall_s"], "ops": w["ops"], "ops_per_s": w["ops_per_s"]}
            for s, w in zip(setups, windows)
        ],
        digest="",
        contract={},
        samples={"weak_n": window["weak_n"], "strong_n": window["strong_n"]},
        extras={
            "weak_respond_p50_ms": window["weak_respond_p50_ms"] * factor,
            "weak_respond_p99_ms": window["weak_respond_p99_ms"] * factor,
            "strong_respond_mean_ms": window["strong_respond_mean_ms"] * factor,
            "replica_cpu_ms_per_op": window["replica_cpu_ms_per_op"],
            "client_cpu_ms_per_op": window["client_cpu_ms_per_op"],
        },
    )
    return {
        "failures": failures,
        "attempted": sum(w["attempted"] for w in windows),
        "failed": sum(w["failed"] for w in windows),
        "end_to_end": e2e,
        "per_layer": layers,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# One run, as the driver invokes it
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    work = use_checkout()
    try:
        if args.workload == "tcp_closed":
            outcome = run_tcp(args.seed, args.seconds, bool(args.trace), args.size, work)
        else:
            outcome = run_simulated(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = spec[kind]
    # A layer that is not on this workload's path reads 0.
    values = {m["name"]: outcome[kind].get(m["name"], 0.0) for m in declared}
    for name in sorted(set(outcome[kind]) - set(values)):
        outcome["failures"].append(f"metric {name} is computed but not in BENCHMARK.json")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    correct = not outcome["failures"]
    result = {
        "correct": correct,
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "failures": outcome["failures"],
                    "result": result,
                    **outcome["detail"],
                },
                handle,
            )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for failure in outcome["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload once (the driver's form)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--size", choices=("full", "quick"), default="full", help="quick = 1/20 sizes, for smoke runs")
    parser.add_argument("--detail", metavar="FILE", help="also write this run's full detail as JSON")
    parser.add_argument("--quick", action="store_true", help="ledger at 1/20 sizes, one run per workload (< 30 s)")
    parser.add_argument("--out", metavar="FILE", help="ledger: write the result JSON here")
    parser.add_argument("--only", action="append", choices=WORKLOADS, help="ledger: restrict to these workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="print the deltas between two ledgers")
    parser.add_argument("--cprofile", choices=WORKLOADS[:-1], metavar="WORKLOAD", help="cross-check layer shares with cProfile")
    args = parser.parse_args(argv)

    if args.compare:
        import suite

        return suite.compare(*args.compare, load_spec())
    if args.seconds is None:
        args.seconds = 0.0 if (args.quick or args.size == "quick") else float(load_spec()["run_seconds"])
    if args.workload:
        return run_workload(args)
    work = use_checkout()
    try:
        import suite

        if args.cprofile:
            return suite.cprofile(args.cprofile, args.seed, work)
        return suite.run(args, load_spec(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
