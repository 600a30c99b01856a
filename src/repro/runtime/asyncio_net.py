"""The real-socket backend: an asyncio event loop over TCP.

One :class:`AsyncioRuntime` lives in one operating-system process and hosts
(usually) one protocol process — a replica's :class:`RoutingNode` with its
full component stack. Peers are other OS processes reached over TCP;
messages travel as length-prefixed JSON frames (:mod:`repro.runtime.wire`),
so everything the durability codec registry can persist can also cross the
wire.

Coroutine structure (the 500lines crawler idiom — a small set of
long-lived tasks around queues, no thread anywhere):

- one **server task** accepts inbound connections; each connection gets a
  reader coroutine that deframes the byte stream and dispatches frames;
- one **link task per peer** owns the outbound connection: it dials (with
  retry/backoff — peers boot in arbitrary order), then drains that peer's
  outbound queue, writing frames in order. Per-link FIFO therefore holds,
  exactly like the simulated network's per-link FIFO floor;
- timers are plain ``loop.call_later`` handles behind the
  :class:`RuntimeTimer` contract.

The per-frame cost is kept small in two places:

- **a broadcast is encoded once**: :meth:`AsyncioRuntime.broadcast` builds
  the frame once and queues the same ``bytes`` on every remote link (the
  loopback copy, if any, is delivered unencoded). ``sent_count`` and the
  ``repro_net_frames_sent`` counter still count one frame per receiver;
- **frames are decoded in one pass** by the durability layer's
  :func:`~repro.core.durability.loads` (see :mod:`repro.runtime.wire`).

A link writes one frame per ``write`` and ``drain()``, and a frame leaves
the queue only after its drain succeeds: a connection error re-sends it on
the next connection, so delivery is at-least-once with a window of one
frame (RB, the sequencer and Paxos all drop duplicates). Writes are not
coalesced: on the closed-loop ``tcp_closed`` benchmark a link finds 1.4
frames queued per wake-up on average, too few to pay for a wider
duplicate window.

What this backend does **not** provide: determinism. Delivery order across
links, timer interleavings and clock readings are whatever the OS gives
us. Protocol correctness must come from the protocols (that is the point);
reproducible experiments stay on :class:`~repro.runtime.sim.SimRuntime`.

Frames on the wire are dicts:

- ``{"kind": "msg", "sender": pid, "payload": ...}`` — protocol traffic,
  delivered to the registered process as ``deliver(sender, payload)``;
- ``{"kind": "rpc", "id": n, "verb": ..., "args": {...}}`` — a client
  request for the hosting harness (health pings, invokes, status probes);
  answered on the same connection with ``{"kind": "reply", "id": n, ...}``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.base import Runtime, RuntimeTimer
from repro.runtime.wire import FrameDecoder, WireError, encode_frame

#: An RPC handler: ``async def handle(verb, args) -> jsonable reply value``.
RpcHandler = Callable[[str, Dict[str, Any]], Awaitable[Any]]

#: Initial reconnect backoff; doubles up to the cap below.
_DIAL_BACKOFF = 0.05
_DIAL_BACKOFF_MAX = 1.0


class AsyncioTimer(RuntimeTimer):
    """``loop.call_later`` behind the runtime timer contract.

    The loop's handle calls this timer, so the timer lets go of the handle
    as soon as it fires or is cancelled; otherwise each timer and its
    handle would form a reference cycle left to the cyclic collector.
    """

    __slots__ = ("_handle", "_cancelled", "label", "_callback", "_args")

    def __init__(
        self, label: str, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        #: None while the timer waits for the runtime to start.
        self._handle: Optional[asyncio.TimerHandle] = None
        self._cancelled = False
        self.label = label
        self._callback = callback
        self._args = args

    def __call__(self) -> None:
        """What the loop runs when the timer is due; a cancel that raced the
        loop's own dispatch still wins."""
        self._handle = None
        if not self._cancelled:
            self._callback(*self._args)

    def cancel(self) -> None:
        self._cancelled = True
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._handle = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class _PeerLink:
    """Outbound queue + dialing task for one remote peer."""

    def __init__(self, pid: int, host: str, port: int) -> None:
        self.pid = pid
        self.host = host
        self.port = port
        self.queue: Deque[bytes] = deque()
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.sent_frames = 0


class AsyncioRuntime(Runtime):
    """A runtime whose transport is TCP between OS processes.

    Parameters
    ----------
    pid:
        The pid this OS process hosts.
    peers:
        ``pid -> (host, port)`` for *every* process in the deployment,
        including our own (that entry is where our server binds).
    """

    def __init__(
        self,
        pid: int,
        peers: Dict[int, Tuple[str, int]],
        *,
        telemetry: Optional[Any] = None,
    ) -> None:
        if pid not in peers:
            raise ValueError(f"own pid {pid} missing from peer map {sorted(peers)}")
        self.pid = pid
        self.peers = dict(peers)
        self._processes: Dict[int, Any] = {}
        self._links: Dict[int, _PeerLink] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._epoch: Optional[float] = None
        self._stopped = False
        #: Timers requested before a loop was running; armed by start().
        self._prestart: List[Tuple[AsyncioTimer, float]] = []
        self._conn_tasks: List[asyncio.Task] = []
        #: Harness hook answering ``rpc`` frames; ``None`` refuses them.
        self.rpc_handler: Optional[RpcHandler] = None
        # Transport counters (the sim network keeps the same ones).
        self.sent_count = 0
        self.delivered_count = 0
        #: An optional :class:`~repro.obs.Telemetry` plane. When armed,
        #: outbound frames carry the current trace context (old frames
        #: without the field decode exactly as before) and the transport
        #: exports frame/redial/queue-depth instruments.
        self.telemetry = telemetry
        if telemetry:
            self._m_sent = telemetry.counter(
                "repro_net_frames_sent", pid=pid
            )
            self._m_received = telemetry.counter(
                "repro_net_frames_received", pid=pid
            )
            self._m_redials = telemetry.counter("repro_net_redials", pid=pid)
            self._g_queue = telemetry.gauge("repro_net_queue_depth", pid=pid)

    # ------------------------------------------------------------------
    # Runtime surface
    # ------------------------------------------------------------------
    def _loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.get_running_loop()

    def now(self) -> float:
        loop = self._loop()
        if self._epoch is None:
            self._epoch = loop.time()
        return loop.time() - self._epoch

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> AsyncioTimer:
        timer = AsyncioTimer(label, callback, args)
        try:
            loop = self._loop()
        except RuntimeError:
            # No loop is running yet (components arm timers while they are
            # constructed, before ``asyncio.run``): count from start().
            self._prestart.append((timer, delay))
        else:
            timer._handle = loop.call_later(max(0.0, delay), timer)
        return timer

    def register(self, process: Any) -> None:
        self._processes[process.pid] = process

    @property
    def n_processes(self) -> int:
        return len(self.peers)

    def send(self, sender: int, receiver: int, payload: Any) -> None:
        if receiver == self.pid:
            self._loopback(sender, payload)
        elif receiver not in self.peers:
            raise WireError(f"unknown receiver pid {receiver}")
        else:
            self._enqueue(self._frame(sender, payload), [receiver])
        self.sent_count += 1

    def broadcast(
        self, sender: int, payload: Any, *, include_self: bool = False
    ) -> None:
        """Send to the same pids as :meth:`Runtime.broadcast`, encoding once.

        Every remote link queues the same ``bytes``. A payload that cannot
        be encoded, or a pid outside the peer map, raises :class:`WireError`
        before anything is queued or delivered.
        """
        receivers = [
            pid for pid in range(self.n_processes)
            if include_self or pid != sender
        ]
        remote = [pid for pid in receivers if pid != self.pid]
        unknown = [pid for pid in remote if pid not in self.peers]
        if unknown:
            raise WireError(f"unknown receiver pids {unknown}")
        if remote:
            self._enqueue(self._frame(sender, payload), remote)
        if self.pid in receivers:
            self._loopback(sender, payload)
        self.sent_count += len(receivers)

    def _loopback(self, sender: int, payload: Any) -> None:
        # Loopback stays on the loop (never reentrant) and is never encoded:
        # protocol code that sends to itself mid-handler sees the same
        # "later" the simulated network gives it. The trace context is
        # captured now and restored at delivery, like a remote frame's.
        context = self.telemetry.current if self.telemetry else None
        self._loop().call_soon(self._deliver_traced, sender, payload, context)

    def _frame(self, sender: int, payload: Any) -> bytes:
        message: Dict[str, Any] = {
            "kind": "msg", "sender": sender, "payload": payload,
        }
        if self.telemetry:
            context = self.telemetry.current
            if context is not None:
                message["trace"] = context
        return encode_frame(message)

    def _enqueue(self, frame: bytes, receivers: List[int]) -> None:
        for receiver in receivers:
            link = self._link(receiver)
            link.queue.append(frame)
            link.wakeup.set()
        if self.telemetry:
            self._m_sent.inc(len(receivers))
            self._g_queue.set(
                sum(len(peer.queue) for peer in self._links.values())
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind our server socket; links dial lazily on first send."""
        host, port = self.peers[self.pid]
        self.now()  # pin the epoch to runtime start
        prestart, self._prestart = self._prestart, []
        for timer, delay in prestart:
            timer._handle = self._loop().call_later(max(0.0, delay), timer)
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port
        )

    @property
    def bound_port(self) -> int:
        """The actually bound server port (useful with port 0)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the server, all links and their tasks."""
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in self._links.values():
            link.wakeup.set()
            if link.task is not None:
                link.task.cancel()
            if link.writer is not None:
                link.writer.close()
        for task in self._conn_tasks:
            task.cancel()
        await asyncio.gather(
            *[l.task for l in self._links.values() if l.task is not None],
            *self._conn_tasks,
            return_exceptions=True,
        )

    # ------------------------------------------------------------------
    # Outbound links
    # ------------------------------------------------------------------
    def _link(self, receiver: int) -> _PeerLink:
        link = self._links.get(receiver)
        if link is None:
            host, port = self.peers[receiver]
            link = _PeerLink(receiver, host, port)
            self._links[receiver] = link
            link.task = self._loop().create_task(self._run_link(link))
        return link

    async def _run_link(self, link: _PeerLink) -> None:
        backoff = _DIAL_BACKOFF
        while not self._stopped:
            try:
                _, writer = await asyncio.open_connection(link.host, link.port)
            except OSError:
                if self.telemetry:
                    self._m_redials.inc()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _DIAL_BACKOFF_MAX)
                continue
            backoff = _DIAL_BACKOFF
            link.writer = writer
            try:
                while not self._stopped:
                    while link.queue:
                        writer.write(link.queue[0])
                        await writer.drain()
                        # Popped only after a successful drain: a write
                        # error re-sends the frame on the next connection
                        # instead of silently dropping it.
                        link.queue.popleft()
                        link.sent_frames += 1
                        if self.telemetry:
                            self._g_queue.set(
                                sum(
                                    len(peer.queue)
                                    for peer in self._links.values()
                                )
                            )
                    link.wakeup.clear()
                    await link.wakeup.wait()
            except (ConnectionError, OSError):
                if self.telemetry:
                    self._m_redials.inc()
                continue  # redial; unsent frames are still queued
            finally:
                link.writer = None
                writer.close()

    # ------------------------------------------------------------------
    # Inbound connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.append(task)
        decoder = FrameDecoder()
        try:
            while not self._stopped:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                for frame in decoder.feed(data):
                    await self._dispatch(frame, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
        finally:
            writer.close()
            if task is not None and task in self._conn_tasks:
                self._conn_tasks.remove(task)

    async def _dispatch(
        self, frame: Any, writer: asyncio.StreamWriter
    ) -> None:
        if not isinstance(frame, dict) or "kind" not in frame:
            raise WireError(f"malformed frame {frame!r}")
        kind = frame["kind"]
        if self.telemetry:
            self._m_received.inc()
        if kind == "msg":
            self._deliver_traced(
                frame["sender"], frame["payload"], frame.get("trace")
            )
        elif kind == "rpc":
            reply: Dict[str, Any] = {"kind": "reply", "id": frame.get("id")}
            if self.rpc_handler is None:
                reply["error"] = "no RPC handler registered"
            else:
                try:
                    reply["value"] = await self.rpc_handler(
                        frame.get("verb", ""), frame.get("args") or {}
                    )
                except Exception as exc:  # surfaced to the caller, not fatal
                    reply["error"] = f"{type(exc).__name__}: {exc}"
            writer.write(encode_frame(reply))
            await writer.drain()
        else:
            raise WireError(f"unknown frame kind {kind!r}")

    def _deliver_traced(self, sender: int, payload: Any, context: Any) -> None:
        """Deliver with the sender's trace context current, if one rode in."""
        if self.telemetry and context is not None:
            with self.telemetry.using(context):
                self._deliver_local(sender, payload)
        else:
            self._deliver_local(sender, payload)

    def _deliver_local(self, sender: int, payload: Any) -> None:
        process = self._processes.get(self.pid)
        if process is None:
            return
        self.delivered_count += 1
        process.deliver(sender, payload)
