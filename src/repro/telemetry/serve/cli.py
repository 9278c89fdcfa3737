"""CLI entry point for the live service.

Wired from the top-level driver::

    repro-fuzz serve /tmp/telemetry

``serve`` blocks in the asyncio loop until interrupted.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz serve",
        description="Serve a live telemetry dashboard (HTTP + "
                    "websocket) over a telemetry directory.")
    parser.add_argument("root", help="telemetry root directory "
                                     "(the --telemetry-dir of a "
                                     "running campaign)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8722,
                        help="listen port; 0 picks a free one "
                             "(default 8722)")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between filesystem polls "
                             "(default 0.5)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    from .http import TelemetryServer
    server = TelemetryServer(
        args.root, host=args.host, port=args.port,
        poll_interval=args.poll_interval)

    async def run() -> None:
        await server.start()
        print(f"serving telemetry from {args.root} at "
              f"http://{args.host}:{server.port}/ "
              f"(Ctrl-C to stop)", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
