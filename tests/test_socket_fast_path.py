"""The socket runtime's per-frame fast path, over real localhost sockets.

Three :class:`AsyncioRuntime` instances share one event loop and talk
through real TCP connections. Pinned here:

- a broadcast is encoded once and every remote peer reads the same bytes;
- a link writes its queue in order, one frame per ``write`` and
  ``drain()``, and pops a frame only after its drain;
- a connection error during a drain leaves that frame queued, and the next
  connection delivers every frame once, in order;
- a send or broadcast that fails (unknown pid, unencodable payload) counts
  nothing, queues nothing and delivers nothing, not even its loopback copy;
- the deframer returns 10⁴ frames read in one chunk, in order.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.core.request import Req
from repro.datatypes.base import Operation
from repro.runtime import asyncio_net, wire
from repro.runtime.asyncio_net import AsyncioRuntime
from repro.runtime.wire import FrameDecoder, WireError, encode_frame
from repro.sim.process import Process

HOST = "127.0.0.1"


class Sink(Process):
    """Puts every delivered message on an asyncio queue."""

    def __init__(self, runtime: AsyncioRuntime, pid: int) -> None:
        super().__init__(runtime, pid)
        self.got: asyncio.Queue = asyncio.Queue()
        runtime.register(self)

    def on_message(self, sender, message):
        self.got.put_nowait((sender, message))

    async def take(self, count: int) -> list:
        return [await asyncio.wait_for(self.got.get(), 5) for _ in range(count)]


async def _cluster(n: int = 3) -> List[AsyncioRuntime]:
    """``n`` started runtimes on ephemeral ports, each knowing the others'."""
    runtimes = []
    for pid in range(n):
        runtime = AsyncioRuntime(pid, {peer: (HOST, 0) for peer in range(n)})
        await runtime.start()
        runtimes.append(runtime)
    for runtime in runtimes:
        for other in runtimes:
            runtime.peers[other.pid] = (HOST, other.bound_port)
    return runtimes


async def _stop(runtimes: List[AsyncioRuntime]) -> None:
    for runtime in runtimes:
        await runtime.stop()


def _req(number: int) -> Req:
    return Req(float(number), (0, number), number % 2 == 0,
               Operation("put", (f"k{number}", number)))


# ---------------------------------------------------------------------------
# Encode once
# ---------------------------------------------------------------------------


def test_a_broadcast_is_encoded_once_and_peers_read_equal_bytes(monkeypatch):
    encoded = []
    real_dumps = wire.dumps

    def counting_dumps(value):
        encoded.append(value)
        return real_dumps(value)

    monkeypatch.setattr(wire, "dumps", counting_dumps)

    decoders: List["Recording"] = []

    class Recording(FrameDecoder):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.seen = bytearray()
            decoders.append(self)

        def feed(self, data):
            self.seen += data
            return super().feed(data)

    monkeypatch.setattr(asyncio_net, "FrameDecoder", Recording)
    payload = ("rb", ("cast", (0, 1), _req(1)))

    async def scenario():
        runtimes = await _cluster()
        sinks = [Sink(runtime, runtime.pid) for runtime in runtimes]
        sender = runtimes[0]
        sender.broadcast(0, payload, include_self=True)
        assert len(encoded) == 1
        assert sender.sent_count == 3
        frame = sender._links[1].queue[0]
        assert list(sender._links[2].queue) == [frame]
        assert sender._links[2].queue[0] is frame
        for sink in sinks:
            assert await sink.take(1) == [(0, payload)]
        assert len(encoded) == 1  # the loopback copy was never encoded
        assert sorted(bytes(decoder.seen) for decoder in decoders) == [frame, frame]
        await _stop(runtimes)

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# One frame per write, popped after its drain
# ---------------------------------------------------------------------------


def test_frames_queued_in_one_loop_turn_go_out_in_order(monkeypatch):
    drains = []
    real_drain = asyncio.StreamWriter.drain

    async def counting_drain(self):
        drains.append(len(link.queue))
        await real_drain(self)

    monkeypatch.setattr(asyncio.StreamWriter, "drain", counting_drain)

    async def scenario():
        nonlocal link
        runtimes = await _cluster()
        receiver = Sink(runtimes[1], 1)
        sender = runtimes[0]
        for number in range(200):
            sender.send(0, 1, ("seq", number))
        link = sender._links[1]
        received = await receiver.take(200)
        assert received == [(0, ("seq", number)) for number in range(200)]
        # One drain per frame, each while its frame was still queued.
        assert drains == list(range(200, 0, -1))
        assert link.sent_frames == 200
        assert not link.queue
        assert sender.sent_count == 200
        await _stop(runtimes)

    link = None
    asyncio.run(scenario())


def test_a_reset_during_drain_resends_the_queue_once_in_order(monkeypatch):
    class ResetWriter:
        """The first connection: takes the write, then resets on drain."""

        def __init__(self) -> None:
            self.written: List[bytes] = []

        def write(self, data: bytes) -> None:
            self.written.append(bytes(data))

        async def drain(self) -> None:
            raise ConnectionResetError("reset before the peer read anything")

        def close(self) -> None:
            pass

    broken = ResetWriter()
    real_open = asyncio.open_connection
    dials = []

    async def open_connection(host, port, **kwargs):
        dials.append(port)
        if len(dials) == 1:
            return None, broken
        return await real_open(host, port, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", open_connection)
    messages = [("seq", number, _req(number)) for number in range(50)]

    async def scenario():
        runtimes = await _cluster()
        receiver = Sink(runtimes[1], 1)
        sender = runtimes[0]
        for message in messages:
            sender.send(0, 1, message)
        frames = list(sender._links[1].queue)
        assert await receiver.take(len(messages)) == [(0, m) for m in messages]
        await asyncio.sleep(0.05)
        assert receiver.got.empty()  # exactly once: nothing after the queue
        # The reset connection took only the first frame, which stayed queued.
        assert broken.written == frames[:1]
        assert len(dials) == 2
        assert not sender._links[1].queue
        assert sender._links[1].sent_frames == len(messages)
        await _stop(runtimes)

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# A failed send counts nothing and queues nothing
# ---------------------------------------------------------------------------


#: Pid 2 is inside range(n_processes) but missing from this peer map.
GAPPED = {0: (HOST, 0), 1: (HOST, 0), 3: (HOST, 0)}
#: Every pid in range(n_processes) has an address.
FULL = {0: (HOST, 0), 1: (HOST, 0), 2: (HOST, 0)}


@pytest.mark.parametrize(
    "peers, attempt, error",
    [
        (GAPPED, lambda runtime: runtime.send(0, 7, "to nobody"), "unknown"),
        (FULL, lambda runtime: runtime.send(0, 1, object()), "unencodable"),
        (GAPPED, lambda runtime: runtime.broadcast(0, "to nobody"), "unknown"),
        (FULL, lambda runtime: runtime.broadcast(0, object(), include_self=True),
         "unencodable"),
    ],
    ids=["send-unknown-pid", "send-unencodable", "broadcast-unknown-pid",
         "broadcast-unencodable"],
)
def test_a_failed_send_is_not_counted(peers, attempt, error):
    async def scenario():
        runtime = AsyncioRuntime(0, peers)
        sink = Sink(runtime, 0)
        runtime.send(0, 0, "loopback")
        assert runtime.sent_count == 1
        with pytest.raises(WireError, match=error):
            attempt(runtime)
        assert runtime.sent_count == 1
        assert runtime._links == {}
        assert await sink.take(1) == [(0, "loopback")]
        for _ in range(3):
            await asyncio.sleep(0)
        assert sink.got.empty()  # a failed broadcast delivered nothing locally

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Deframing a coalesced read
# ---------------------------------------------------------------------------


def test_ten_thousand_frames_in_one_chunk_decode_in_order():
    values = [(number, f"v{number}", _req(number % 7)) for number in range(10_000)]
    chunk = b"".join(encode_frame(value) for value in values)
    decoder = FrameDecoder()
    assert decoder.feed(chunk + chunk[:3]) == values
    assert decoder.pending_bytes == 3
