"""Command-line fuzzing driver (installed as ``repro-fuzz``).

Runs a single campaign or a parallel session against any registered
benchmark and prints an AFL-status-screen-style summary. Useful for
poking at configurations without writing a script::

    repro-fuzz sqlite3 --fuzzer bigmap --map-size 2M --budget 30
    repro-fuzz gvn --lafintel --metric ngram3 --scale 0.1
    repro-fuzz libpng --instances 4 --map-size 2M

With ``--telemetry-dir DIR`` the campaign also flushes structured
telemetry (events.jsonl, fuzzer_stats, plot_data, metrics.json) into
DIR — per-instance subdirectories for parallel sessions. The pseudo
benchmark ``telemetry`` renders a status view over a previously
flushed directory::

    repro-fuzz zlib --telemetry-dir /tmp/t
    repro-fuzz telemetry --telemetry-dir /tmp/t

The ``serve`` subcommand runs the live telemetry dashboard (HTTP API +
websocket) over a telemetry directory (see
:mod:`repro.telemetry.serve.cli`)::

    repro-fuzz zlib --instances 3 --telemetry-dir /tmp/t
    repro-fuzz serve /tmp/t
"""

from __future__ import annotations

import argparse
import sys

from .fuzzer import CampaignConfig, ParallelSession, run_campaign
from .instrumentation import metric_names
from .target import benchmark_names, get_benchmark

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(text: str) -> int:
    """Parse ``64k`` / ``2M`` / ``8388608`` into bytes."""
    text = text.strip().lower()
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse size {text!r}") from None
    if value <= 0 or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"map size must be a positive power of two, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Run a BigMap/AFL fuzzing campaign on a synthetic "
                    "benchmark.")
    parser.add_argument("benchmark",
                        help="benchmark name (see --list-benchmarks)")
    parser.add_argument("--fuzzer", choices=["afl", "bigmap"],
                        default="bigmap")
    parser.add_argument("--map-size", type=parse_size, default=1 << 16,
                        help="coverage map size, e.g. 64k, 2M (default "
                             "64k)")
    parser.add_argument("--metric", default="afl-edge",
                        choices=metric_names())
    parser.add_argument("--lafintel", action="store_true",
                        help="apply the laf-intel transform first")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="virtual seconds on the modeled Xeon "
                             "(default 30)")
    parser.add_argument("--max-execs", type=int, default=50_000,
                        help="real-execution cap (default 50000)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="benchmark scale, 1.0 = paper size "
                             "(default 0.25)")
    parser.add_argument("--seed-scale", type=float, default=None,
                        help="seed-corpus scale (default: --scale)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (campaign replica)")
    parser.add_argument("--trim", action="store_true",
                        help="enable AFL-style seed trimming")
    parser.add_argument("--fork-mode", action="store_true",
                        help="disable persistent mode (charge fork "
                             "overhead)")
    parser.add_argument("--instances", type=int, default=1,
                        help="parallel instances (master-secondary)")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="flush telemetry artifacts into DIR; with "
                             "the pseudo benchmark 'telemetry', render "
                             "a status view over DIR instead")
    parser.add_argument("--follow", action="store_true",
                        help="with the 'telemetry' status view: keep "
                             "refreshing (incremental tail reads)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="--follow refresh interval in seconds "
                             "(default 2)")
    parser.add_argument("--refreshes", type=int, default=0,
                        help="with --follow: stop after N refreshes "
                             "(0 = until interrupted)")
    parser.add_argument("--list-benchmarks", action="store_true",
                        help="list benchmark names and exit")
    return parser


def _follow_telemetry(root: str, interval: float,
                      refreshes: int) -> int:
    """Refreshing status view over a (possibly growing) telemetry
    tree. Uses :class:`repro.telemetry.introspect.StatusTracker`, so
    each tick reads only the event-log bytes appended since the last
    one — cheap enough to leave running next to a live campaign."""
    import time

    from .telemetry.introspect import StatusTracker
    tracker = StatusTracker(root)
    count = 0
    try:
        while True:
            print(tracker.refresh())
            count += 1
            if refreshes and count >= refreshes:
                break
            print()
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0


def _print_summary(title: str, rows) -> None:
    print(f"\n{title}")
    print("-" * len(title))
    for label, value in rows:
        print(f"  {label:<28} {value}")


def main(argv=None) -> int:
    parser = build_parser()
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "serve":
        from .telemetry.serve.cli import main as serve_main
        return serve_main(raw[1:])
    if argv and "--list-benchmarks" in argv or \
            (argv is None and "--list-benchmarks" in sys.argv):
        for name in benchmark_names("all"):
            print(name)
        return 0
    args = parser.parse_args(argv)
    if args.instances < 1:
        parser.error(f"--instances must be at least 1, got "
                     f"{args.instances}")

    if args.benchmark == "telemetry":
        if args.telemetry_dir is None:
            parser.error("the 'telemetry' status view requires "
                         "--telemetry-dir DIR")
        if args.follow:
            return _follow_telemetry(args.telemetry_dir,
                                     args.interval, args.refreshes)
        from .telemetry.introspect import render_tree
        print(render_tree(args.telemetry_dir))
        return 0

    # Unknown benchmarks, a non-positive --scale (checked by building
    # the benchmark's spec) or --seed-scale and bad budgets are usage
    # errors, reported before any work starts.
    try:
        get_benchmark(args.benchmark).spec(args.scale)
        config = CampaignConfig(
            benchmark=args.benchmark, fuzzer=args.fuzzer,
            map_size=args.map_size, metric=args.metric,
            lafintel=args.lafintel, scale=args.scale,
            seed_scale=args.seed_scale, virtual_seconds=args.budget,
            max_real_execs=args.max_execs, rng_seed=args.seed,
            trim_seeds=args.trim, persistent_mode=not args.fork_mode)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    if args.instances > 1:
        session_telemetry = None
        if args.telemetry_dir is not None:
            from .telemetry.recorder import SessionTelemetry
            session_telemetry = SessionTelemetry()
        summary = ParallelSession(config, args.instances,
                                  telemetry=session_telemetry).run()
        if session_telemetry is not None:
            session_telemetry.flush(args.telemetry_dir)
            print(f"telemetry artifacts: {args.telemetry_dir}")
        _print_summary(
            f"{args.benchmark} x{args.instances} ({args.fuzzer}, "
            f"{args.map_size:,} B map)",
            [("total executions", f"{summary.total_execs:,}"),
             ("total throughput", f"{summary.total_throughput:,.0f}/s"),
             ("unique crashes", summary.unique_crashes),
             ("map locations lit", f"{summary.discovered_locations:,}"),
             ("mean contention slowdown",
              f"{summary.mean_slowdown:.2f}x")])
        return 0

    recorder = None
    if args.telemetry_dir is not None:
        from .telemetry.recorder import TelemetryRecorder
        recorder = TelemetryRecorder(instance=0)
    result = run_campaign(config, telemetry=recorder)
    if recorder is not None:
        recorder.flush(args.telemetry_dir)
        print(f"telemetry artifacts: {args.telemetry_dir}")
    rows = [
        ("executions", f"{result.execs:,}"),
        ("virtual time", f"{result.virtual_seconds:.1f}s "
                         f"(stopped by {result.stopped_by})"),
        ("throughput", f"{result.throughput:,.0f}/s"),
        ("map locations lit", f"{result.discovered_locations:,}"),
        ("corpus size", f"{result.corpus_size:,}"),
        ("unique crashes (crashwalk)", result.unique_crashes),
        ("interesting execs", f"{result.interesting_execs:,}"),
    ]
    if result.used_key is not None:
        rows.append(("BigMap used_key",
                     f"{result.used_key:,} / {args.map_size:,}"))
    share = result.op_time_share()
    rows.append(("time in map ops",
                 f"{100 * (1 - share['execution'] - share['others']):.1f}%"))
    _print_summary(
        f"{args.benchmark} ({args.fuzzer}, {args.map_size:,} B map, "
        f"{args.metric}{'+laf' if args.lafintel else ''})", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
