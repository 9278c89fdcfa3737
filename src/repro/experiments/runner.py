"""Experiment runner CLI: regenerate any table or figure of the paper.

Usage (installed as ``repro-experiments``)::

    repro-experiments --list
    repro-experiments fig6 --profile quick
    repro-experiments fig9 fig10 ensemble --profile quick
    repro-experiments all --profile default --out results/
    repro-experiments all --keep-going --resume --out results/

Each experiment prints a paper-layout text report; ``--out`` also
writes one ``<experiment>.txt`` per report for inclusion in
EXPERIMENTS.md.

Long runs are fault-tolerant and resumable: ``--keep-going`` runs the
remaining experiments when one fails (reporting every failure, exiting
non-zero), and ``--resume`` skips experiments whose report file already
exists under ``--out`` — together they let a multi-hour ``all`` sweep
be re-invoked until it completes without redoing finished work.

Output is funnelled through :class:`~repro.experiments.reporter.Reporter`:
``--quiet`` for one line per experiment, ``--json`` for a
machine-readable record stream. ``--telemetry-dir DIR`` flushes
per-campaign telemetry artifacts (events.jsonl, fuzzer_stats,
plot_data, metrics.json) under DIR for every campaign the selected
experiments run; ``--serve`` adds the live dashboard over DIR (the
same service as ``repro-fuzz serve DIR``) for the length of the run.

Multi-trial results come from each harness's replica loop
(``Profile.replicas``); :mod:`repro.analysis.stats` holds the rank
statistics for comparing them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List

from ..core.errors import ExperimentError
from ..core.walltime import Stopwatch
from . import (extra_collafl, extra_dedup_bias, extra_ensemble,
               extra_fault_tolerance, fig2_collision, fig3_runtime,
               fig6_throughput, fig7_edge_coverage, fig8_crashes,
               fig9_scalability, fig10_parallel_crashes,
               table2_benchmarks, table3_composition)
from .common import TELEMETRY, BenchmarkCache, Profile, get_profile
from .reporter import JSON, QUIET, TEXT, Reporter

EXPERIMENTS: Dict[str, Callable] = {
    "fig2": fig2_collision.run,
    "fig3": fig3_runtime.run,
    "table2": table2_benchmarks.run,
    "fig6": fig6_throughput.run,
    "fig7": fig7_edge_coverage.run,
    "fig8": fig8_crashes.run,
    "table3": table3_composition.run,
    "fig9": fig9_scalability.run,
    "fig10": fig10_parallel_crashes.run,
    # Extensions beyond the paper's evaluation (see each module's doc).
    "collafl": extra_collafl.run,
    "dedup-bias": extra_dedup_bias.run,
    "ensemble": extra_ensemble.run,
    "fault-tolerance": extra_fault_tolerance.run,
}

#: Paper order for ``all``.
ORDER = ("fig2", "fig3", "table2", "fig6", "fig7", "fig8", "table3",
         "fig9", "fig10", "collafl", "dedup-bias", "ensemble",
         "fault-tolerance")


def run_experiment(name: str, profile: Profile,
                   cache: BenchmarkCache = None) -> str:
    """Run one experiment; failures surface as :class:`ExperimentError`
    with the original exception chained as ``__cause__``."""
    runner = EXPERIMENTS[name]
    try:
        if name in ("fig2", "table2"):
            return runner(profile)
        return runner(profile, cache or BenchmarkCache())
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(
            f"experiment {name!r} failed: {exc!r}") from exc


def _resolve_names(requested: List[str],
                   parser: argparse.ArgumentParser) -> List[str]:
    if not requested or "all" in requested:
        return list(ORDER)
    unknown = [n for n in requested if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    return requested


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the BigMap paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", default=["all"],
                        metavar="experiment",
                        help="experiment ids (fig2..fig10, table2, "
                             "table3, extensions) or 'all'")
    parser.add_argument("--profile", default="default",
                        choices=["quick", "default", "full"],
                        help="run size: quick (CI smoke), default, full "
                             "(paper scale)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write per-experiment reports")
    parser.add_argument("--keep-going", action="store_true",
                        help="on failure, run the remaining experiments "
                             "and exit non-zero at the end")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments whose <name>.txt already "
                             "exists under --out")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        metavar="DIR",
                        help="flush per-campaign telemetry artifacts "
                             "under DIR")
    parser.add_argument("--serve", action="store_true",
                        help="with --telemetry-dir: serve the live "
                             "dashboard over DIR while experiments run")
    parser.add_argument("--serve-port", type=int, default=8722,
                        help="--serve listen port; 0 picks a free one "
                             "(default 8722)")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--quiet", action="store_true",
                        help="one status line per experiment, no "
                             "report bodies")
    output.add_argument("--json", action="store_true",
                        help="emit one JSON record per line instead of "
                             "text reports")
    args = parser.parse_args(argv)

    mode = JSON if args.json else QUIET if args.quiet else TEXT
    reporter = Reporter(mode)

    if args.list:
        for name in ORDER:
            module = sys.modules[EXPERIMENTS[name].__module__]
            summary = (module.__doc__ or "").strip().splitlines()[0]
            reporter.listing(name, summary)
        return 0
    if args.resume and args.out is None:
        parser.error("--resume requires --out (it skips by report file)")

    profile = get_profile(args.profile)
    names = _resolve_names(args.experiments, parser)

    if args.serve and args.telemetry_dir is None:
        parser.error("--serve requires --telemetry-dir (it serves "
                     "that directory)")

    if args.telemetry_dir is not None:
        TELEMETRY.activate(args.telemetry_dir)
    server = None
    if args.serve:
        from ..telemetry.serve.background import BackgroundServer
        server = BackgroundServer(str(args.telemetry_dir),
                                  port=args.serve_port).start()
        reporter.info(f"live dashboard: {server.url}")
    cache = BenchmarkCache()
    failures: List[str] = []
    try:
        for name in names:
            if args.resume and (args.out / f"{name}.txt").exists():
                reporter.skipped(name, "report exists (resume)")
                continue
            watch = Stopwatch()
            try:
                report = run_experiment(name, profile, cache)
            except ExperimentError as exc:
                failures.append(name)
                reporter.failed(name, watch.elapsed(), exc)
                if not args.keep_going:
                    reporter.summary(failures, keep_going=False)
                    return 1
                continue
            reporter.completed(name, profile.name, watch.elapsed(),
                               report)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(report + "\n")
    finally:
        TELEMETRY.deactivate()
        if server is not None:
            server.stop()
    if args.telemetry_dir is not None:
        reporter.info(f"telemetry artifacts: {args.telemetry_dir}")
    if failures:
        reporter.summary(failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
