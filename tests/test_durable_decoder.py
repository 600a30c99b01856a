"""The one-pass decoder against the two-pass decoder it replaced.

:func:`repro.core.durability.loads` decodes :func:`dumps` text in one
C-scanner pass, turning each tagged object into its value as the object
closes. Its contract is the old decoder, kept here as the oracle
``_reference_from_jsonable(json.loads(text))``: equal values, and — checked
through :func:`dumps`, which tells a tuple from a list where ``==`` does
not — the same types. Wire frames and journal replay both read through it,
and :func:`from_jsonable` walks the same tag table over a parsed tree.
"""

from __future__ import annotations

import json
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durability
from repro.core.durability import (
    _CODECS,
    DurabilityError,
    JsonLinesStore,
    dumps,
    from_jsonable,
    loads,
)
from repro.core.request import Req
from repro.datatypes.base import Operation
from repro.runtime.wire import decode_body
from tests.test_durable_encoder import (
    EDGE_CASES,
    JOURNAL_SHA256,
    _journal_golden_run,
    batches,
)
from tests.test_wire_codec import CODEC_EXAMPLES, values


def _reference_from_jsonable(value: Any) -> Any:
    """The tagged-tree decoder ``loads`` replaced, one ``if`` per tag."""
    if isinstance(value, list):
        return [_reference_from_jsonable(item) for item in value]
    if isinstance(value, dict):
        if "~req" in value:
            timestamp, dot, strong, op = value["~req"]
            return Req(
                timestamp=timestamp,
                dot=_reference_from_jsonable(dot),
                strong=strong,
                op=_reference_from_jsonable(op),
            )
        if "~op" in value:
            name, args = value["~op"]
            return Operation(name=name, args=_reference_from_jsonable(args))
        if "~t" in value:
            return tuple(_reference_from_jsonable(item) for item in value["~t"])
        for tag, (_cls, _encode, decode) in _CODECS.items():
            if tag in value:
                return decode(_reference_from_jsonable(value[tag]))
        if "~d" in value:
            return {
                _reference_from_jsonable(key): _reference_from_jsonable(item)
                for key, item in value["~d"]
            }
        return {key: _reference_from_jsonable(item) for key, item in value.items()}
    return value


def _old_loads(text: str):
    return _reference_from_jsonable(json.loads(text))


def _check(value) -> None:
    text = dumps(value)
    new = loads(text)
    assert new == _old_loads(text)
    assert from_jsonable(json.loads(text)) == new
    assert dumps(new) == text
    assert dumps(from_jsonable(json.loads(text))) == text


@settings(max_examples=300, deadline=None)
@given(st.one_of(values, batches, st.sampled_from(sorted(CODEC_EXAMPLES.values(), key=repr))))
def test_loads_equals_the_two_pass_decoder(value):
    _check(value)


@pytest.mark.parametrize("tag", sorted(CODEC_EXAMPLES))
def test_every_registered_codec_decodes_alike(tag):
    _check({"payload": CODEC_EXAMPLES[tag], "again": [CODEC_EXAMPLES[tag]]})


TAG_LIKE_KEYS = {
    "~t": {"~t": [1, 2]},
    "~req": {"~req": [1.0, (0, 1), True, None]},
    "~d": {"~d": [["a", 1]]},
    "~op": {"~op": ["put", ("k",)]},
    "codec-tag": {"~paxb": "not a batch"},
    "tag-among-others": {"~t": 1, "plain": 2},
    "nested": [{"~d": {"~t": ({"~req": "x"},)}}],
}


@pytest.mark.parametrize(
    "value", list(TAG_LIKE_KEYS.values()), ids=list(TAG_LIKE_KEYS)
)
def test_keys_that_look_like_tags_stay_keys(value):
    _check(value)
    assert loads(dumps(value)) == value


@pytest.mark.parametrize("value", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_edge_cases_decode_alike(value):
    """NaN, ±inf, non-ASCII text and the rest; ``repr`` compares NaN too."""
    text = dumps(value)
    new = loads(text)
    assert repr(new) == repr(_old_loads(text))
    assert dumps(new) == text


def test_raw_utf8_text_is_read():
    """Frames are written ASCII-only, but any UTF-8 body is read."""
    body = '{"k": ["é日本\U0001f600", {"~t": ["ü"]}]}'.encode("utf-8")
    assert decode_body(body) == {"k": ["é日本\U0001f600", ("ü",)]}
    assert decode_body(body) == _old_loads(body.decode("utf-8"))


def test_a_codec_cannot_take_a_builtin_tag():
    with pytest.raises(DurabilityError, match="built-in"):
        durability.register_codec("~t", complex, repr, complex)
    assert "~t" not in durability._CODECS
    assert durability._UNTAG["~t"] is tuple


def test_the_pinned_journals_replay_alike(tmp_path):
    _journal_golden_run(str(tmp_path))
    for node in sorted(JOURNAL_SHA256):
        path = tmp_path / node / "journal.jsonl"
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines
        for line in lines:
            new = loads(line)
            assert new == _old_loads(line)
            assert dumps(new) == line
        # The store's replay reads through loads: the records it rebuilds
        # equal the old decoder's, line by line.
        store = JsonLinesStore(str(path.parent))
        expected: dict = {}
        kv: dict = {}
        for line in lines:
            name, record = _old_loads(line)
            if name == "~kv":
                kv[record[0]] = record[1]
            else:
                expected.setdefault(name, []).append(record)
        assert {name: store.log(name).records() for name in expected} == expected
        assert {key: store.get(key) for key in kv} == kv
