"""Run the telemetry server on a thread next to a running workload.

The experiment runner is synchronous; the server is asyncio.
:class:`BackgroundServer` bridges them: it owns a private event loop
on a daemon thread, starts a
:class:`.http.TelemetryServer` there, and exposes the bound port once
the listening socket exists — so ``repro-experiments --serve`` can
print a URL before the workload's first campaign starts, and the
workload itself never touches the loop.

Overhead discipline (PR4 bench methodology, benchmarks/
test_bench_serve.py): the workload thread does nothing for the
server — no queues, no callbacks; the server's poll task reads the
same JSONL artifacts the workload was writing anyway, so the cost on
the hot path is only the OS-level write amplification, pinned ≤2%.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ...core.errors import TelemetryError

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """A :class:`.http.TelemetryServer` on a daemon thread.

    Args mirror the server's; :meth:`start` blocks until the socket
    is bound (or the server failed to start, re-raising its error),
    then :attr:`port`/:attr:`url` are valid. :meth:`stop` is
    idempotent and joins the thread.
    """

    def __init__(self, root: str, *,
                 host: str = "127.0.0.1", port: int = 0,
                 poll_interval: float = 0.5,
                 start_timeout: float = 10.0) -> None:
        self.root = root
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.start_timeout = start_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-serve",
            daemon=True)
        self._thread.start()
        if not self._ready.wait(self.start_timeout):
            raise TelemetryError(
                "telemetry server failed to start within "
                f"{self.start_timeout:g}s")
        if self._error is not None:
            raise TelemetryError(
                f"telemetry server failed to start: "
                f"{self._error}") from self._error
        return self

    def _run(self) -> None:
        from .http import TelemetryServer
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = TelemetryServer(
            self.root, host=self.host, port=self.port,
            poll_interval=self.poll_interval)
        try:
            loop.run_until_complete(server.start())
        # Stored, not swallowed: start() re-raises it as TelemetryError.
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.port
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    def stop(self) -> None:
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(self.start_timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
