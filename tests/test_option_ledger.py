"""Option ledger: every option must still have a user in the program.

A knob that lost its last reader is dead weight that tests and benchmarks
keep having to cover (the seven ``paxos_*`` pass-through fields lived that
way for several PRs). Two ledgers:

- a ``BayouConfig`` field fails the moment it is no longer read anywhere
  under ``src/repro`` outside ``core/config.py`` itself — directly as
  ``.<field>``, or through a ``BayouConfig`` accessor such as
  ``exec_delay_for`` (``validate`` does not count: checking a value is not
  using it);
- a keyword of a ledgered constructor (the broadcast endpoints, the
  sharded deployment and its load statistics) fails the moment no module
  under ``src/repro`` other than the constructor's own passes it by name.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib
import re

import repro
from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.sequencer import SequencerTOB
from repro.core.config import BayouConfig
from repro.shard.control.stats import ShardStats
from repro.shard.deployment import ShardedCluster

#: Fields allowed to have no reader, each with the reason it survives.
TOMBSTONES = {
    # No effect since the trace log went; the frozen bench/workloads.py
    # still passes it. Goes with the next benchmark PR (see ROADMAP item 3).
    "enable_trace",
}


CONSTRUCTORS = (
    PaxosTOB,
    SequencerTOB,
    ReliableBroadcast,
    AntiEntropy,
    OmegaFailureDetector,
    ShardedCluster,
    ShardStats,
)

#: Keywords allowed to have no caller under src/repro, each with the
#: reason it survives.
TEST_ONLY_KEYWORDS = {
    # Only tests set these, to drive the catch-up token bucket at small
    # sizes; every deployment runs the defaults.
    ("PaxosTOB", "catchup_batch"),
    ("PaxosTOB", "catchup_rate"),
    ("PaxosTOB", "catchup_burst"),
    # Only the window-ring test sets it, to fill the ring in a few ticks;
    # the controller keeps the default 64 windows.
    ("ShardStats", "window_limit"),
}

ROOT = pathlib.Path(repro.__file__).parent


def _source_outside_config() -> str:
    config = ROOT / "core" / "config.py"
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(ROOT.rglob("*.py"))
        if path != config
    )


def _accessors_reading(field: str) -> set:
    """``BayouConfig`` methods (other than ``validate``) that read ``field``."""
    return {
        name
        for name, function in inspect.getmembers(BayouConfig, inspect.isfunction)
        if name != "validate"
        and not name.startswith("__")
        and re.search(rf"self\.{field}\b", inspect.getsource(function))
    }


def test_every_config_field_is_read_outside_config_py():
    source = _source_outside_config()
    unread = [
        field.name
        for field in dataclasses.fields(BayouConfig)
        if not any(
            re.search(rf"\.{name}\b", source)
            for name in {field.name} | _accessors_reading(field.name)
        )
    ]
    assert sorted(unread) == sorted(TOMBSTONES), (
        "BayouConfig fields with no reader under src/repro (delete the "
        f"field, or list it in TOMBSTONES with a reason): {unread}"
    )


def _called_name(call: ast.Call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _keywords_passed_to(cls, calls_by_module) -> set:
    """Keywords passed by name to ``cls(...)`` from modules under
    ``src/repro`` other than its own. A call that spreads ``**knobs`` counts
    every keyword of the ``dict(...)`` calls in its module."""
    own = pathlib.Path(inspect.getfile(cls)).resolve()
    passed = set()
    for path, calls in calls_by_module.items():
        if path == own:
            continue
        for call in calls:
            if _called_name(call) != cls.__name__:
                continue
            names = {keyword.arg for keyword in call.keywords}
            if None in names:
                names |= {
                    keyword.arg
                    for spread in calls
                    if _called_name(spread) == "dict"
                    for keyword in spread.keywords
                }
            passed |= names - {None}
    return passed


def test_every_endpoint_keyword_is_passed_outside_its_module():
    calls_by_module = {
        path.resolve(): [
            node
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
        ]
        for path in sorted(ROOT.rglob("*.py"))
    }
    unpassed = set()
    for cls in CONSTRUCTORS:
        passed = _keywords_passed_to(cls, calls_by_module)
        unpassed |= {
            (cls.__name__, name)
            for name, parameter in inspect.signature(cls).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
            and name not in passed
        }
    assert sorted(unpassed) == sorted(TEST_ONLY_KEYWORDS), (
        "constructor keywords that no module under src/repro passes "
        "(delete the keyword, or list it in TEST_ONLY_KEYWORDS with a "
        f"reason): {sorted(unpassed - TEST_ONLY_KEYWORDS)}"
    )
