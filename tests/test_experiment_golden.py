"""Every experiment's printed text and JSON artifact are pinned by digest.

For each experiment in :data:`repro.cli.EXPERIMENTS` (except ``realtime``,
which spawns OS processes), the module's ``main()`` is called and two
sha256 digests are compared: one of what it printed and one of the
artifact it returned, as ``json.dumps(artifact, sort_keys=True)``
(``null`` for an experiment that returns none).

Wall-clock figures are masked before hashing: E16's ``wall ops/s`` column
and its ``wall_seconds`` / ``wall_ops_per_sec`` / ``wall_speedup`` keys,
and E10's ``waves=…s total=…s`` timings. Everything else is simulated, so
it is exact under the seeds.

Re-record (``python tests/test_experiment_golden.py``) only in a change
that *means* to alter an experiment's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
from typing import Any, Tuple

import pytest

from repro.cli import EXPERIMENTS

#: Artifact keys that hold wall-clock measurements (E16).
WALL_KEYS = {"wall_seconds", "wall_ops_per_sec", "wall_speedup"}

#: E10 prints the wall time of its reorder waves and of the whole run.
WALL_TIMINGS = re.compile(r"waves=[0-9.]+s total=[0-9.]+s")

GOLDEN = {
    'batch': (
        'e77d2619e0bea27ad5a02f7eb1096fbeee7195b1f7e5fe1af36f8f90868e095e',
        '3381cb3ddc2ec5436a622f0b6d7d7b6f33d1c76cb1f59c54bf486edf8dd2223f',
    ),
    'figure1': (
        'a25cb745ee70d4bc9acd4491fa76230d80ef21a0780966ccd5ba503702b37674',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'figure2': (
        'b63527619f78937d85d8e24613ecaf63043a116c6716d2734c9542be1dd801bc',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'matrix': (
        'fbfd5712d5322973530c0225b8e62d49b7ebc84e76e0b9d225a525359a9c0f4c',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'performance': (
        'f683ffc6e0e86e3f74cb223915c48fdff9ece77cfcbcb5590a12982ebda72356',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'progress': (
        '39002d7b7f723997c400bcf8e8860d98858b9c994cf29d7fdf9a923556380feb',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'rebalance': (
        '2cd804b65511f2781a3466407aed2cfeb83c1d9488e0c58c997c13aeda7a5754',
        'ae5e4481e2d9005c00742550b6269294671447c88f339c2b12b78877e008a40f',
    ),
    'recovery': (
        'ab9d9fcbe16680a1241ad659d35862ebba1686e6ce24120b0ce275eeccd37b37',
        '4d0575c2855f3181da4fe80ff90fcacccc930f77fdc52ec32b4a348018c57c57',
    ),
    'reorder': (
        'af94d0798de7d94081bacc2975da89814c59ccf7ac13449e9d6aff19b546b37c',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'reshard': (
        '5150e519ab81c86114abfb693214af4c58477cb0cb265defa2fc24e622ccf815',
        'e2166ab6709167d3603a629a0de2a72b616e63f9b4b48459e7302bb080c5d7ac',
    ),
    'sessions': (
        '701eb0830241f40b7e5eab9782c1f1a41fdb814acf5e498d3b1b5b9249ff5cae',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'shard': (
        '94cfd89a612f1ae0bd6678618f9ce374f6375d593a4db52243fef1143db40031',
        '37b841057abdbf22e5794b41fc0ae624cbe0925be5dfa1e6360424e5cb9dc8c9',
    ),
    'theorem1': (
        '869c57d1f792cffa29c800648460205f457b1fc5160471dec4a4656e8284b2f6',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
    'theorems': (
        'fca75b141689badf982e0d1e86792e00d0376360b8dc0805ec2d4a260ea4f8ff',
        '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
    ),
}

NAMES = sorted(set(EXPERIMENTS) - {"realtime"})


def _mask_text(text: str) -> str:
    """Cut E16's table at its ``wall ops/s`` column; blank E10's timings."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        column = line.find("wall ops/s")
        if column < 0:
            continue
        for row in range(index, len(lines)):
            if not lines[row].strip():
                break
            lines[row] = lines[row][:column]
    return WALL_TIMINGS.sub("waves=*s total=*s", "\n".join(lines))


def _mask_artifact(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: "*" if key in WALL_KEYS else _mask_artifact(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask_artifact(item) for item in value]
    return value


def _digests(name: str) -> Tuple[str, str]:
    module = importlib.import_module(
        f"repro.analysis.experiments.{EXPERIMENTS[name][1]}"
    )
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        artifact = module.main()
    text = _mask_text(printed.getvalue())
    encoded = json.dumps(_mask_artifact(artifact), sort_keys=True)
    return (
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
        hashlib.sha256(encoded.encode("utf-8")).hexdigest(),
    )


def test_golden_covers_every_experiment():
    assert sorted(GOLDEN) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_experiment_output_is_pinned(name):
    assert _digests(name) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    print("GOLDEN = {")
    for recorded_name in NAMES:
        print(f"    {recorded_name!r}: (")
        for digest in _digests(recorded_name):
            print(f"        {digest!r},")
        print("    ),")
    print("}")
