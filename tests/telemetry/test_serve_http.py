"""TelemetryServer: REST endpoints and websocket protocol.

The acceptance pin for DESIGN.md §10: bytes served live (REST series,
websocket snapshot+deltas) are identical to a post-hoc aggregation of
the same JSONL files.
"""

import asyncio
import json
import logging

from repro.telemetry.serve.aggregator import (AggregatorService,
                                              TelemetryAggregator,
                                              canonical_json)
from repro.telemetry.serve.http import TelemetryServer, _read_frame
from repro.telemetry.serve.tailer import EVENTS_FILENAME
from repro.telemetry.sinks import encode_event

from test_serve_aggregator import sample_stream


def write_stream(directory, events, mode="w"):
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / EVENTS_FILENAME, mode,
              encoding="utf-8") as fh:
        for event in events:
            fh.write(encode_event(event) + "\n")


async def http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((f"GET {path} HTTP/1.1\r\n"
                  f"Host: test\r\n\r\n").encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n")[0].decode("ascii")
    return status, body


async def ws_connect(port):
    """Open a ``/ws/live`` websocket: ``(reader, writer, headers)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"GET /ws/live HTTP/1.1\r\n"
        b"Host: test\r\n"
        b"Upgrade: websocket\r\n"
        b"Connection: Upgrade\r\n"
        b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
        b"Sec-WebSocket-Version: 13\r\n\r\n")
    await writer.drain()
    return reader, writer, await reader.readuntil(b"\r\n\r\n")


def serve(tmp_path, coro_factory):
    """Start a server on a free port, run the test coroutine, stop."""

    async def run():
        server = TelemetryServer(str(tmp_path), poll_interval=0.05)
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestRest:
    def test_campaigns_listing(self, tmp_path):
        write_stream(tmp_path / "instance-0", sample_stream())

        async def check(server):
            status, body = await http_get(server.port,
                                          "/api/campaigns")
            assert status == "HTTP/1.1 200 OK"
            payload = json.loads(body)
            (campaign,) = payload["campaigns"]
            assert campaign["id"] == "instance-0"
            assert campaign["meta"]["benchmark"] == "zlib"
            assert payload["seq"] > 0

        serve(tmp_path, check)

    def test_series_bytes_equal_post_hoc_aggregation(self, tmp_path):
        write_stream(tmp_path / "instance-0", sample_stream())

        async def check(server):
            _, body = await http_get(
                server.port, "/api/campaigns/instance-0/series")
            return body

        live_bytes = serve(tmp_path, check)
        post_hoc = AggregatorService(str(tmp_path))
        post_hoc.poll()
        expected = canonical_json(
            post_hoc.aggregator.campaign("instance-0").as_dict()
        ).encode("utf-8")
        assert live_bytes == expected

    def test_dashboard_and_errors(self, tmp_path):
        async def check(server):
            status, body = await http_get(server.port, "/")
            assert status == "HTTP/1.1 200 OK"
            assert b"repro-fuzz live telemetry" in body
            status, _ = await http_get(
                server.port, "/api/campaigns/nope/series")
            assert status.startswith("HTTP/1.1 404")
            status, _ = await http_get(server.port, "/definitely/not")
            assert status.startswith("HTTP/1.1 404")

        serve(tmp_path, check)

    def test_rest_poll_sees_events_written_after_start(self, tmp_path):
        async def check(server):
            write_stream(tmp_path / "late", sample_stream())
            _, body = await http_get(server.port, "/api/campaigns")
            assert [c["id"] for c in
                    json.loads(body)["campaigns"]] == ["late"]

        serve(tmp_path, check)


class TestWebsocket:
    def test_snapshot_then_deltas_replay_byte_identically(
            self, tmp_path):
        write_stream(tmp_path / "instance-0", sample_stream()[:2])

        async def check(server):
            reader, writer, head = await ws_connect(server.port)
            assert b"101 Switching Protocols" in head
            assert (b"Sec-WebSocket-Accept: "
                    b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=") in head

            _, payload = await _read_frame(reader)
            frame = json.loads(payload)
            assert frame["type"] == "snapshot"
            replayed = frame["snapshot"]

            # Grow the stream while connected; deltas must arrive.
            write_stream(tmp_path / "instance-0",
                         sample_stream()[2:], mode="a")
            while True:
                _, payload = await asyncio.wait_for(
                    _read_frame(reader), timeout=5.0)
                frame = json.loads(payload)
                assert frame["type"] == "delta"
                TelemetryAggregator.apply_delta(replayed,
                                                frame["delta"])
                if replayed["seq"] == server.service.aggregator.seq:
                    break
            writer.close()
            return replayed

        replayed = serve(tmp_path, check)
        post_hoc = AggregatorService(str(tmp_path))
        post_hoc.poll()
        assert (canonical_json(replayed) ==
                canonical_json(post_hoc.aggregator.snapshot()))

    def test_stop_closes_live_clients_without_errors(self, tmp_path,
                                                     caplog):
        """Stopping a server with a connected client ends the client's
        handler inside ``stop()``: the client sees the connection
        close, and loop teardown has no handler task left to cancel
        (which asyncio would log as an error)."""
        write_stream(tmp_path / "instance-0", sample_stream()[:2])

        async def run():
            server = TelemetryServer(str(tmp_path), poll_interval=0.05)
            await server.start()
            reader, writer, _ = await ws_connect(server.port)
            _, payload = await _read_frame(reader)
            assert json.loads(payload)["type"] == "snapshot"
            await server.stop()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()

        with caplog.at_level(logging.ERROR):
            asyncio.run(run())
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.ERROR] == []

    def test_missing_key_is_rejected(self, tmp_path):
        async def check(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"GET /ws/live HTTP/1.1\r\n"
                         b"Upgrade: websocket\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            assert b"400 Bad Request" in raw
            writer.close()

        serve(tmp_path, check)
