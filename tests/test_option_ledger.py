"""Option ledger: every ``BayouConfig`` field must still have a reader.

A knob that lost its last reader is dead weight that tests and benchmarks
keep having to cover (the seven ``paxos_*`` pass-through fields lived that
way for several PRs). This test fails the moment a field is no longer read
anywhere under ``src/repro`` outside ``core/config.py`` itself — directly
as ``.<field>``, or through a ``BayouConfig`` accessor such as
``exec_delay_for`` (``validate`` does not count: checking a value is not
using it).
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re

import repro
from repro.core.config import BayouConfig

#: Fields allowed to have no reader, each with the reason it survives.
TOMBSTONES = {
    # No effect since the trace log went; the frozen bench/workloads.py
    # still passes it. Goes with the next benchmark PR (see ROADMAP item 3).
    "enable_trace",
}


def _source_outside_config() -> str:
    root = pathlib.Path(repro.__file__).parent
    config = root / "core" / "config.py"
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*.py"))
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
