"""Tier-1 reads no wall clock.

A test that asserts on elapsed time passes or fails with the host's load,
not with the code. Such modules carry a ``timing`` (or ``realtime``)
``pytestmark``, which tier-1 deselects, and Hypothesis's deadline and
too-slow health check are switched off once, by ``tests/conftest.py``.
This walks every module under ``tests/`` and ``benchmarks/`` so neither
creeps back in.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOCKS = {"perf_counter", "time", "process_time"}
PROFILE_MODULE = Path("tests", "conftest.py")


def _deselected(tree):
    """Whether a module-level ``pytestmark`` names ``timing`` or ``realtime``."""
    return any(
        isinstance(statement, ast.Assign)
        and any(getattr(t, "id", None) == "pytestmark" for t in statement.targets)
        and any(
            f"mark.{mark}" in ast.unparse(statement.value)
            for mark in ("timing", "realtime")
        )
        for statement in tree.body
    )


def _violations(relative, source):
    tree = ast.parse(source)
    timed = _deselected(tree)
    found = []
    for node in ast.walk(tree):
        where = f"{relative}:{getattr(node, 'lineno', 0)}"
        reads_clock = (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCKS
            and getattr(node.value, "id", None) == "time"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name in CLOCKS for alias in node.names)
        )
        if reads_clock and not timed:
            found.append(f"{where}: wall clock outside a timing module")
        if relative == PROFILE_MODULE:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "too_slow":
            found.append(f"{where}: too_slow suppressed per test")
        func = getattr(node, "func", None)
        names = (getattr(func, "id", None), getattr(func, "attr", None))
        if "settings" in names and any(k.arg == "deadline" for k in node.keywords):
            found.append(f"{where}: Hypothesis deadline set per test")
    return found


def test_tier1_modules_read_no_wall_clock():
    found = [
        violation
        for directory in ("tests", "benchmarks")
        for path in sorted((ROOT / directory).rglob("*.py"))
        for violation in _violations(path.relative_to(ROOT), path.read_text("utf-8"))
    ]
    assert found == []


def test_guard_sees_each_kind_of_violation():
    source = (
        "import time\n"
        "from time import perf_counter\n"
        "time.time()\n"
        "@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])\n"
        "def test(): pass\n"
    )
    lines = sorted(v.split(": ")[0] for v in _violations(Path("t.py"), source))
    assert lines == ["t.py:2", "t.py:3", "t.py:4", "t.py:4"]
    timed = "pytestmark = [pytest.mark.timing]\n" + source
    assert len(_violations(Path("t.py"), timed)) == 2
    profile = "settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])\n"
    assert _violations(PROFILE_MODULE, profile) == []
