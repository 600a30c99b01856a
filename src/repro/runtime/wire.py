"""Wire codec for the asyncio backend: length-prefixed JSON frames.

Messages between real replica processes are encoded by the durability
layer's one encoder, :func:`repro.core.durability.dumps`, and decoded by
its one decoder, :func:`~repro.core.durability.loads` (a single C-scanner
pass) — including every extension codec registered through
``register_codec``. A frame body is byte for byte the text a journal line
would hold for the same value. Anything a replica can persist it can also
send, and both surfaces evolve together: teaching the durability registry a
new record type teaches the wire automatically.

Framing is the classic 4-byte big-endian length prefix followed by a JSON
body (ASCII as written; any UTF-8 is read). :class:`FrameDecoder` is an
incremental deframer: feed it whatever ``bytes`` the socket produced — one
frame, twenty frames, or a single byte — and it yields each completed value
exactly once, carrying partial frames across calls. TCP guarantees a byte
*stream*, not message boundaries, so the decoder must (and does) survive
frames split at every possible offset; the hypothesis round-trip suite feeds
frames byte by byte to pin that down.

>>> decoder = FrameDecoder()
>>> data = encode_frame({"op": "put", "key": ("k", 1)})
>>> [decoder.feed(data[i:i + 1]) for i in range(len(data) - 1)] == [
...     [] for _ in range(len(data) - 1)]
True
>>> decoder.feed(data[-1:])
[{'op': 'put', 'key': ('k', 1)}]
"""

from __future__ import annotations

import struct
from typing import Any, List

from repro.core.durability import DurabilityError, dumps, loads

__all__ = ["FrameDecoder", "WireError", "decode_body", "encode_frame"]

_HEADER = struct.Struct(">I")

#: Refuse frames larger than this (64 MiB): a corrupt or hostile length
#: prefix must not make the decoder buffer unboundedly.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(DurabilityError):
    """A frame could not be encoded or decoded."""


def encode_frame(value: Any) -> bytes:
    """Encode ``value`` into one length-prefixed frame."""
    try:
        body = dumps(value).encode("ascii")
    except RecursionError as exc:
        raise WireError(
            f"unencodable wire value of type {type(value).__name__}: "
            "it contains itself (or nests too deep)"
        ) from exc
    except (DurabilityError, TypeError, ValueError) as exc:
        raise WireError(f"unencodable wire value {value!r}: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Any:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        return loads(body.decode("utf-8"))
    except (ValueError, TypeError) as exc:  # UnicodeDecodeError included
        raise WireError(f"undecodable frame body: {exc}") from exc


class FrameDecoder:
    """Incremental deframer over a TCP byte stream."""

    def __init__(self, *, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame = max_frame

    def feed(self, data: bytes) -> List[Any]:
        """Absorb ``data``; return every frame completed by it, in order."""
        self._buffer.extend(data)
        frames: List[Any] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self._max_frame:
                raise WireError(
                    f"frame length {length} exceeds max_frame={self._max_frame}"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            frames.append(decode_body(body))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)
