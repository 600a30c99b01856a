"""The whole ledger: every workload, several runs each, one JSON file.

Each run is ``run.py --workload ...`` in a **fresh child process**, so peak
memory, imports and the traced pass's class patches are per run. Simulated
workloads get 3 untraced runs and the TCP one 5 (wall-clock latencies need
the extra samples); every workload gets one traced run. The ledger keeps
every raw value, the median and the quartiles, the per-layer table, the
digests, the sample counts and the probes.

``compare`` prints two ledgers side by side; ``cprofile`` cross-checks the
traced pass's layer shares against a profiler.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

REPEATS = {"simulated": 3, "tcp_closed": 5}


def _child(workload: str, seed: int, seconds: float, trace: int, size: str, work: str) -> Dict[str, Any]:
    handle, detail_path = tempfile.mkstemp(prefix="detail-", suffix=".json", dir=work)
    os.close(handle)
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--detail", detail_path,
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    try:
        with open(detail_path, "r", encoding="utf-8") as detail_file:
            detail = json.load(detail_file)
    except ValueError:
        raise RuntimeError(
            f"{workload} (trace={trace}) produced no result:\n{completed.stdout}\n{completed.stderr}"
        ) from None
    finally:
        os.unlink(detail_path)
    detail["exit_code"] = completed.returncode
    return detail


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "values": values,
    }


def run(args: argparse.Namespace, spec: Dict[str, Any], work: str) -> int:
    """Run the ledger; print it, and write it to ``--out`` if given."""
    import tcp

    size = "quick" if args.quick else "full"
    seconds = args.seconds
    started = perf_counter()
    ledger: Dict[str, Any] = {
        "bench": 11,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "settings": {"seed": args.seed, "seconds": seconds, "size": size},
        "workloads": {},
        "probes": {},
    }
    ok = True
    names = args.only or [w["name"] for w in spec["workloads"]]
    for name in names:
        kind = "tcp_closed" if name == "tcp_closed" else "simulated"
        repeats = 1 if args.quick else REPEATS[kind]
        runs = [_child(name, args.seed, seconds, 0, size, work) for _ in range(repeats)]
        traced = _child(name, args.seed, seconds, 1, size, work)
        failures = [f for r in runs + [traced] for f in r["failures"]]
        digests = sorted({r["digest"] for r in runs + [traced]})
        if len(digests) > 1:
            failures.append("digest differs between runs of one seed")
        ok = ok and not failures
        first = runs[0]
        entry = {
            "end_to_end": {
                m["name"]: _summary([r["result"]["metrics"][m["name"]]["value"] for r in runs], m["unit"])
                for m in spec["end_to_end"]
            },
            "extras": {
                key: _summary([r["extras"][key] for r in runs], "")
                for key in first["extras"]
            },
            "per_layer": {
                name_: metric for name_, metric in traced["result"]["metrics"].items()
            },
            "samples": first["samples"],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "failed_frac": sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs),
            "digest": digests[0],
            "contract_reported": first["contract"],
            "missing_wrap_points": traced["missing_wrap_points"],
            "failures": failures,
        }
        ledger["workloads"][name] = entry
        _print_workload(name, entry)
    if not args.quick and "tcp_closed" in names:
        ledger["probes"]["tcp_paxos_start"] = tcp.probe_paxos_start()
        print(f"\nprobes.tcp_paxos_start: {ledger['probes']['tcp_paxos_start']}")
    ledger["elapsed_s"] = perf_counter() - started
    print(f"\nledger took {ledger['elapsed_s']:.1f} s; {'all checks passed' if ok else 'CHECKS FAILED'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


def layer_shares(per_layer: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's share of the attributed self time, largest first."""
    seconds = {
        name[: -len(".self_s")]: metric["value"]
        for name, metric in per_layer.items()
        if name.endswith(".self_s") and metric["value"] > 0
    }
    total = sum(seconds.values())
    return {
        layer: value / total
        for layer, value in sorted(seconds.items(), key=lambda item: -item[1])
    }


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"\n== {name}  (failed_frac {entry['failed_frac']:g}, digest {entry['digest'][:12] or '-'})")
    for metric, s in entry["end_to_end"].items():
        print(f"  {metric:<26} {s['median']:>12.6g} {s['unit']:<4} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={len(s['values'])}]")
    for metric, s in entry["extras"].items():
        print(f"  ({metric:<24} {s['median']:>12.6g})")
    print(f"  samples: {entry['samples']}")
    shares = layer_shares(entry["per_layer"])
    print("  layer shares: " + ", ".join(f"{layer} {share:.0%}" for layer, share in list(shares.items())[:6]))
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
#: Simulated-time numbers are exact under a seed, so on the simulated
#: workloads they are held to 2 % whatever ``BENCHMARK.json`` allows (its
#: bounds must also cover the same metric on ``tcp_closed``).
SIMULATED_TIME_BOUND = 0.02
SIMULATED_TIME = frozenset({"weak_respond_mean_ms", "strong_respond_p50_ms", "strong_respond_p95_ms"})


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """End-to-end deltas against the bounds, per-layer deltas side by side.

    Returns 1 when a metric got worse by more than its bound, ``failed_frac``
    rose, or a digest changed (the program's outputs differ for the same
    inputs).
    """
    with open(path_a, "r", encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        b = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n== {name}: only in {path_a}")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        simulated = bool(wa["digest"])
        print(f"\n== {name}")
        if wa["digest"] != wb["digest"]:
            regressed = True
            print(f"  DIGEST CHANGED: {wa['digest'][:16]} -> {wb['digest'][:16]}")
        print(f"  {'end-to-end':<28}{'A':>14}{'B':>14}{'delta':>10}{'bound':>8}")
        rows = [(metric, sa, wb["end_to_end"].get(metric), False) for metric, sa in wa["end_to_end"].items()]
        rows += [(metric, sa, wb["extras"].get(metric), True) for metric, sa in wa["extras"].items()]
        for metric, sa, sb, extra in rows:
            if sb is None:
                continue
            delta = _relative(sa["median"], sb["median"])
            if simulated and (extra or metric in SIMULATED_TIME):
                bound, better = SIMULATED_TIME_BOUND, "lower"
            elif extra:
                bound, better = None, "lower"
            else:
                bound, better = declared[metric]["bound"], declared[metric]["better"]
            worse = delta if better == "lower" else -delta
            verdict = ""
            if bound is not None and worse > bound:
                verdict = "  REGRESSION"
                regressed = True
            elif bound is not None and _spread(sa) > bound:
                verdict = "  (unresolved: A's own spread exceeds the bound)"
            label = f"({metric})" if extra else metric
            limit = f"{bound:>8.0%}" if bound is not None else f"{'-':>8}"
            print(f"  {label:<28}{sa['median']:>14.6g}{sb['median']:>14.6g}{delta:>+10.1%}{limit}{verdict}")
        if wa["failed_frac"] < wb["failed_frac"]:
            regressed = True
            print(f"  failed_frac ROSE: {wa['failed_frac']:g} -> {wb['failed_frac']:g}")
        print(f"  {'per-layer':<38}{'A':>14}{'B':>14}{'delta':>10}")
        for metric, ma in wa["per_layer"].items():
            mb = wb["per_layer"].get(metric)
            if mb is None or (ma["value"] == 0 and mb["value"] == 0):
                continue
            delta = _relative(ma["value"], mb["value"])
            print(f"  {metric:<38}{ma['value']:>14.6g}{mb['value']:>14.6g}{delta:>+10.1%}")
    return 1 if regressed else 0


def _relative(before: float, after: float) -> float:
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    return (after - before) / abs(before)


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["median"]) if summary["median"] else 0.0


# ----------------------------------------------------------------------
# --cprofile
# ----------------------------------------------------------------------
def cprofile(workload: str, seed: int, work: str) -> int:
    """One instance under cProfile, self time folded into layers by the
    defining module; the last column is the share among the program's own
    layers, which is what the traced pass's shares are compared with.

    Built-ins and stdlib functions are folded into the layer that called
    them. cProfile taxes every Python call, so call-heavy layers read a few
    points high here.
    """
    import machine
    import tracing
    import workloads

    profiler = cProfile.Profile()
    profiler.enable()
    instance = workloads.run_instance(workload, seed, "full", work, machine.Speedometer())
    profiler.disable()
    totals: Dict[str, float] = {}

    def layer_for(filename: str) -> Optional[str]:
        if filename.startswith(BENCH_DIR):
            return "(bench)"
        return tracing.layer_of(_module_of(filename))

    stats = pstats.Stats(profiler)
    for (filename, _line, _function), (_cc, _nc, self_time, _ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        layer = layer_for(filename)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + self_time
            continue
        # A C built-in or stdlib function (heap pushes, set and list
        # operations, json, file writes): its time belongs to the layer
        # that called it, which cProfile records per caller.
        for (caller_file, _cl, _cf), (_n, _c, caller_self, _t) in callers.items():
            owner = layer_for(caller_file) or "(stdlib)"
            totals[owner] = totals.get(owner, 0.0) + caller_self
    total = sum(totals.values())
    program = sum(seconds for layer, seconds in totals.items() if not layer.startswith("("))
    print(f"# cProfile of one {workload} instance (seed {seed}, {instance['ops']} ops)")
    print(f"{'layer':<22}{'self s':>9}{'of all':>9}{'of program':>12}")
    for layer, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        own = "" if layer.startswith("(") else f"{seconds / program:>11.1%}"
        print(f"{layer:<22}{seconds:>9.3f}{seconds / total:>9.1%}{own:>12}")
    return 0


def _module_of(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    if marker not in filename or not filename.endswith(".py"):
        return None
    relative = "repro" + os.sep + filename.rsplit(marker, 1)[1]
    return relative[: -len(".py")].replace(os.sep, ".")
