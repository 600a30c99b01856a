"""Command-line interface: the one runner for every experiment.

Usage::

    python -m repro list                 # available experiments
    python -m repro figure1              # one experiment
    python -m repro all                  # the full reproduction sweep
    python -m repro shard --json E12.json
                                         # also write the JSON artifact
    python -m repro realtime --smoke     # E15's quick variant
    python -m repro serve --replica 0 --config cluster.json
                                         # one real replica over TCP
    python -m repro obs telemetry.jsonl  # render a recorded trace file

Each experiment module under ``repro.analysis.experiments`` has one entry
function, ``main``, that prints its tables and returns its JSON artifact
(or ``None``). This runner owns the rest: ``--json FILE`` writes the
artifact, ``--smoke`` picks the quick variant, and the exit status is 1
when an artifact says ``"ok": false``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Dict, List, Tuple

#: name -> (description, module under ``repro.analysis.experiments``).
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "figure1": ("E1: Figure 1 — temporary operation reordering", "figure1"),
    "figure2": ("E2: Figure 2 — circular causality", "figure2"),
    "progress": ("E3: Section 2.3 — unbounded waits, rollback storm", "progress"),
    "theorem1": ("E4: Theorem 1 — live schedule + exhaustive search", "theorem1"),
    "theorems": ("E5/E6: Theorems 2 & 3 — FEC ∧ Seq checked on runs", "theorems"),
    "matrix": ("E7: guarantee matrix across systems", "matrix"),
    "performance": ("E8: latency/throughput envelope", "performance"),
    "sessions": ("E9: session-guarantee cost of Algorithm 2", "sessions"),
    "reorder": ("E10: checkpointed reorder engine at scale", "reorder"),
    "recovery": ("E11: crash-recovery — durable state, catch-up, convergence", "recovery"),
    "shard": ("E12: sharded scaling, key skew, cross-shard strong transfers", "sharding"),
    "reshard": ("E13: live resharding — split under traffic, dip, conservation", "resharding"),
    "rebalance": ("E14: autonomous rebalancing — controller vs oracle under a moving hotspot", "rebalancing"),
    "realtime": ("E15: realtime deployment over TCP cross-checked against the sim", "realtime"),
    "batch": ("E16: batched pipelined Multi-Paxos — ops per message round across engines", "batching"),
}

#: Experiments whose ``main`` returns a JSON artifact (``--json FILE``).
WITH_ARTIFACT = {"recovery", "shard", "reshard", "rebalance", "realtime", "batch"}

#: Experiments whose ``main`` takes ``smoke=True`` (``--smoke``).
WITH_SMOKE = {"realtime"}

#: Experiments excluded from ``all``: they spawn real OS processes and bind
#: sockets, so they run only when asked for by name.
NOT_IN_ALL = {"realtime"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On mixing eventual and strong consistency: "
            "Bayou revisited' (PODC 2019). Runs the paper's experiments."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="experiment id, 'all' for the full sweep, 'list' to enumerate",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="also write the experiment's JSON artifact"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run the quick variant"
    )
    return parser


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``serve`` has its own option surface (--replica/--config), so it
        # dispatches before the experiment parser sees the argument list.
        from repro.runtime.serve import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "obs":
        # Same arrangement: ``obs`` takes a file path plus filters.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    chosen = args.experiment
    if args.json and chosen not in WITH_ARTIFACT:
        parser.error(f"--json: {chosen!r} writes no artifact")
    if args.smoke and chosen not in WITH_SMOKE:
        parser.error(f"--smoke: {chosen!r} has no smoke variant")
    if chosen == "list":
        for name in sorted(EXPERIMENTS):
            print(f"  {name:12s} {EXPERIMENTS[name][0]}")
        return 0
    selected = sorted(set(EXPERIMENTS) - NOT_IN_ALL) if chosen == "all" else [chosen]
    status = 0
    for name in selected:
        description, module = EXPERIMENTS[name]
        print(f"== {description} ==")
        experiment = importlib.import_module(f"repro.analysis.experiments.{module}")
        artifact = experiment.main(smoke=True) if args.smoke else experiment.main()
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        if artifact is not None and artifact.get("ok") is False:
            status = 1
        print()
    return status
