"""Asyncio HTTP/1.1 + RFC 6455 websocket server over the aggregator.

Stdlib-only by design (ROADMAP: no new runtime deps): a small
hand-rolled HTTP request parser over :mod:`asyncio` streams, plus the
minimal server side of RFC 6455 — handshake, unmasking, text frames,
ping/pong/close. One port serves three surfaces:

* ``/`` — the single-file HTML/JS dashboard (:mod:`.dashboard`);
* ``/api/campaigns`` and ``/api/campaigns/{id}/series`` — REST reads
  of the aggregator, rendered with :func:`.aggregator.canonical_json`
  so the bytes are a pure function of the ingested events (the
  live-vs-post-hoc parity tests compare these bytes directly);
* ``/ws/live`` — websocket: one snapshot frame, then delta frames as
  campaigns progress (the replay protocol of
  :meth:`.aggregator.TelemetryAggregator.apply_delta`).

Every request handler and the background poll task funnel through
:meth:`TelemetryServer.pump`, the single place the filesystem is read
and websocket clients are fed — so a REST response is never staler
than the request that asked for it, and deltas reach every client in
seq order exactly once.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
from typing import Dict, List, Optional, Tuple
from urllib.parse import unquote

from ...core.errors import TelemetryError
from .aggregator import AggregatorService, canonical_json

__all__ = ["TelemetryServer", "WS_GUID", "parse_ws_text_frames"]

#: RFC 6455 §1.3 handshake GUID.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 100

# Websocket opcodes (RFC 6455 §5.2).
_OP_TEXT = 0x1
_OP_CLOSE = 0x8
_OP_PING = 0x9
_OP_PONG = 0xA


def _accept_key(key: str) -> str:
    """Sec-WebSocket-Accept for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _encode_text_frame(payload: bytes) -> bytes:
    """One unmasked FIN text frame (server→client is never masked)."""
    head = bytearray([0x80 | _OP_TEXT])
    n = len(payload)
    if n < 126:
        head.append(n)
    elif n < 1 << 16:
        head.append(126)
        head += n.to_bytes(2, "big")
    else:
        head.append(127)
        head += n.to_bytes(8, "big")
    return bytes(head) + payload


async def _read_frame(reader: asyncio.StreamReader
                      ) -> Tuple[int, bytes]:
    """(opcode, payload) of one client frame, unmasked."""
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    n = head[1] & 0x7F
    if n == 126:
        n = int.from_bytes(await reader.readexactly(2), "big")
    elif n == 127:
        n = int.from_bytes(await reader.readexactly(8), "big")
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(n) if n else b""
    if masked:
        payload = bytes(b ^ mask[i % 4]
                        for i, b in enumerate(payload))
    return opcode, payload


class _HttpRequest:
    def __init__(self, method: str, path: str,
                 headers: Dict[str, str]) -> None:
        self.method = method
        self.path = path
        self.headers = headers


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[_HttpRequest]:
    line = await reader.readline()
    if not line or len(line) > _MAX_REQUEST_LINE:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, target = parts[0], parts[1]
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return _HttpRequest(method, target.split("?", 1)[0], headers)


class TelemetryServer:
    """The live telemetry service (see module docstring).

    Args:
        service: the :class:`.aggregator.AggregatorService` to serve
            (or a telemetry root string, wrapped automatically).
        host/port: bind address; ``port=0`` picks a free port, read
            the bound one from :attr:`port` after :meth:`start`.
        poll_interval: seconds between background filesystem polls
            feeding the websocket (REST reads poll inline regardless).
    """

    def __init__(self, service, *, host: str = "127.0.0.1",
                 port: int = 0, poll_interval: float = 0.5) -> None:
        if isinstance(service, str):
            service = AggregatorService(service)
        self.service = service
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._poll_task: Optional[asyncio.Task] = None
        self._clients: List[asyncio.Queue] = []
        #: Open connections: each handler task and its stream writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._poll_task = asyncio.ensure_future(self._poll_loop())

    async def stop(self) -> None:
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        if self._server is not None:
            self._server.close()
            # Close every open connection, so each handler (websocket
            # clients included) sees EOF and returns on its own, and
            # wait for them: loop teardown then has no handler task
            # left to cancel.
            handlers = list(self._connections)
            for writer in self._connections.values():
                writer.close()
            if handlers:
                await asyncio.wait(handlers)
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- polling / broadcast -------------------------------------------

    def pump(self) -> List[dict]:
        """Poll the filesystem once; fan new deltas out to every
        websocket client. The only ingestion entry point, called both
        by the background loop and inline by REST handlers, so the
        event loop's single thread is the serialization point."""
        deltas = self.service.poll()
        if deltas:
            for queue in list(self._clients):
                for delta in deltas:
                    queue.put_nowait(delta)
        return deltas

    async def _poll_loop(self) -> None:
        while True:
            self.pump()
            await asyncio.sleep(self.poll_interval)

    # -- request handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            request = await _read_request(reader)
            if request is None:
                return
            if (request.path == "/ws/live" and
                    "websocket" in
                    request.headers.get("upgrade", "").lower()):
                await self._handle_websocket(request, reader, writer)
                return
            status, ctype, body = self._respond(request)
            writer.write(
                (f"HTTP/1.1 {status}\r\n"
                 f"Content-Type: {ctype}\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Cache-Control: no-store\r\n"
                 f"Connection: close\r\n\r\n").encode("ascii"))
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            del self._connections[task]

    def _respond(self, request: _HttpRequest
                 ) -> Tuple[str, str, bytes]:
        if request.method not in ("GET", "HEAD"):
            return self._json_error("405 Method Not Allowed",
                                    "method not allowed")
        try:
            return self._route(request.path)
        except TelemetryError as exc:
            return self._json_error("500 Internal Server Error",
                                    str(exc))

    @staticmethod
    def _json_error(status: str, message: str
                    ) -> Tuple[str, str, bytes]:
        body = canonical_json({"error": message}).encode("utf-8")
        return status, "application/json", body

    @staticmethod
    def _json_ok(payload_bytes: bytes) -> Tuple[str, str, bytes]:
        return "200 OK", "application/json", payload_bytes

    def _route(self, path: str) -> Tuple[str, str, bytes]:
        if path == "/":
            return "200 OK", "text/html; charset=utf-8", \
                self.dashboard_html().encode("utf-8")
        if path == "/api/campaigns":
            self.pump()
            return self._json_ok(self.campaigns_body())
        if (path.startswith("/api/campaigns/") and
                path.endswith("/series")):
            cid = unquote(
                path[len("/api/campaigns/"):-len("/series")])
            self.pump()
            body = self.series_body(cid)
            if body is None:
                return self._json_error(
                    "404 Not Found", f"unknown campaign {cid!r}")
            return self._json_ok(body)
        return self._json_error("404 Not Found",
                                f"no route for {path!r}")

    def dashboard_html(self) -> str:
        from .dashboard import DASHBOARD_HTML
        return DASHBOARD_HTML

    # -- REST bodies (bytes are the parity-tested surface) -------------

    def campaigns_body(self) -> bytes:
        agg = self.service.aggregator
        listing = []
        for cid in agg.campaigns:
            series = agg.campaign(cid)
            listing.append({
                "id": cid,
                "meta": dict(series.meta),
                "final": dict(series.final),
                "events": sum(len(series.series[name])
                              for name in sorted(series.series)),
            })
        payload = {"seq": agg.seq, "campaigns": listing}
        return canonical_json(payload).encode("utf-8")

    def series_body(self, campaign_id: str) -> Optional[bytes]:
        series = self.service.aggregator.campaign(campaign_id)
        if series is None:
            return None
        return canonical_json(series.as_dict()).encode("utf-8")

    # -- websocket -----------------------------------------------------

    async def _handle_websocket(self, request: _HttpRequest,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(b"HTTP/1.1 400 Bad Request\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            return
        writer.write(
            ("HTTP/1.1 101 Switching Protocols\r\n"
             "Upgrade: websocket\r\n"
             "Connection: Upgrade\r\n"
             f"Sec-WebSocket-Accept: {_accept_key(key)}\r\n\r\n"
             ).encode("ascii"))
        await writer.drain()

        # Register BEFORE snapshotting so no delta can fall in the gap
        # between the snapshot frame and the first queued delta; the
        # pump below drains pending filesystem state into the snapshot
        # itself, and queue entries at or below the snapshot seq are
        # dropped on send.
        queue: asyncio.Queue = asyncio.Queue()
        self._clients.append(queue)
        try:
            self.pump()
            snapshot = self.service.aggregator.snapshot()
            seq = snapshot["seq"]
            frame = canonical_json(
                {"type": "snapshot", "snapshot": snapshot})
            writer.write(_encode_text_frame(frame.encode("utf-8")))
            await writer.drain()
            reader_task = asyncio.ensure_future(
                self._ws_reader(reader, writer))
            try:
                while not reader_task.done():
                    getter = asyncio.ensure_future(queue.get())
                    done, _ = await asyncio.wait(
                        {getter, reader_task},
                        return_when=asyncio.FIRST_COMPLETED)
                    if getter not in done:
                        getter.cancel()
                        break
                    delta = getter.result()
                    if delta["seq"] <= seq:
                        continue
                    seq = delta["seq"]
                    frame = canonical_json(
                        {"type": "delta", "delta": delta})
                    writer.write(
                        _encode_text_frame(frame.encode("utf-8")))
                    await writer.drain()
            finally:
                reader_task.cancel()
                try:
                    await reader_task
                except (asyncio.CancelledError, ConnectionError,
                        EOFError):
                    pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._clients.remove(queue)

    @staticmethod
    async def _ws_reader(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        """Drain client frames until close/EOF; answer pings."""
        while True:
            opcode, payload = await _read_frame(reader)
            if opcode == _OP_CLOSE:
                writer.write(bytes([0x80 | _OP_CLOSE, 0]))
                await writer.drain()
                return
            if opcode == _OP_PING:
                frame = bytearray([0x80 | _OP_PONG, len(payload)])
                writer.write(bytes(frame) + payload)
                await writer.drain()


def parse_ws_text_frames(data: bytes) -> List[str]:
    """Decode unmasked server→client text frames from a byte stream.

    Test/CI helper mirroring :func:`_encode_text_frame`; raises
    :class:`TelemetryError` on a truncated or non-text frame so smoke
    checks fail loudly.
    """
    frames: List[str] = []
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise TelemetryError("truncated websocket frame header")
        opcode = data[offset] & 0x0F
        n = data[offset + 1] & 0x7F
        offset += 2
        if n == 126:
            n = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
        elif n == 127:
            n = int.from_bytes(data[offset:offset + 8], "big")
            offset += 8
        if opcode != _OP_TEXT:
            raise TelemetryError(
                f"expected text frame, got opcode {opcode:#x}")
        if offset + n > len(data):
            raise TelemetryError("truncated websocket frame payload")
        frames.append(data[offset:offset + n].decode("utf-8"))
        offset += n
    return frames
