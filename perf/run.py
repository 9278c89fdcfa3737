#!/usr/bin/env python3
"""Benchmark: host speed, modelled fidelity and per-layer host time.

One run, one workload (what ``BENCHMARK.json``'s command runs)::

    python3 perf/run.py --workload steady-64k --seed 0 --seconds 15 --trace 0

repeats units of the workload until ``--seconds`` of timed work are
done, checks every unit's result, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
from a traced run with ``--trace 1``.

The whole suite (no ``--workload``)::

    python3 perf/run.py [--seed N] [--out FILE]

runs every workload in fresh subprocesses, interleaved round by round,
then one traced run per workload. It prints every metric with its
median, quartiles and sample count, the correctness checks, a self-time
table and host-time stage shares per workload, and writes the full
record (with provenance) to ``--out`` and the spans to ``trace.json``.
It exits non-zero if any check fails.

The program under test is imported from ``src/`` next to this directory;
nothing is installed. See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perf", "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Pinned for every run so BLAS/OpenMP pools never compete with the
#: mp workload's two workers for the host's cores.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
#: Set-up is timed at least this many times per run; the median counts.
MIN_SETUPS = 5
#: Traced runs slower than this against the untraced median are flagged.
TRACE_OVERHEAD_FLAG_PCT = 5.0
#: Timed seconds per suite run (single runs default to BENCHMARK.json's
#: run_seconds).
SUITE_SECONDS = 8.0
CHILD_TIMEOUT_S = 180

END_TO_END_UNITS = {"host_execs_per_s": "execs/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
#: Per-layer metrics whose unit the name's suffix does not give.
LAYER_UNITS = {"memsim.cycles_per_exec": "cycles",
               "trace.host_execs_per_s": "execs/s",
               "telemetry.artifact_bytes": "bytes",
               "mutation.apply_us_per_row": "us"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if (name.startswith("memsim.share.") or name.endswith("_rate")
            or name.endswith("_ratio") or name.endswith("_yield")
            or name.endswith("_err")):
        return "ratio"
    return "count"


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit 2."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perf: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def all_workloads(smoke: bool = False) -> Dict[str, object]:
    """The four workloads, by name, in suite order. ``repeats`` is the
    number of suite runs (one at smoke size)."""
    from workloads import CampaignWorkload, Fig6Workload

    def runs(n: int) -> int:
        return 1 if smoke else n

    wls = (CampaignWorkload("steady-64k", "inprocess", runs(5)),
           CampaignWorkload("observed-64k", "telemetry", runs(5)),
           CampaignWorkload("mp2-64k", "mp", runs(7)),
           Fig6Workload(runs(3)))
    return {wl.name: wl for wl in wls}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its reaped children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss +
          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _percentile90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def workload_layer(outcomes) -> Dict[str, float]:
    """Per-layer metrics read from results rather than spans: the
    modelled Figure 3 of the first unit (deterministic) and the Figure 6
    fidelity."""
    from workloads import speedup_err
    first = outcomes[0]
    total = sum(first.op_cycles.values())
    out = {"memsim.cycles_per_exec": total / first.execs}
    for op, cycles in first.op_cycles.items():
        out[f"memsim.share.{op}"] = cycles / total
    probes = [ms for o in outcomes for ms in o.probe_ms]
    out["fig6.probe_p50_ms"] = statistics.median(probes) if probes else 0.0
    out["fig6.probe_p90_ms"] = _percentile90(probes) if probes else 0.0
    out["fig6.speedup_err"] = (speedup_err(first.speedups)
                               if first.speedups else 0.0)
    return out


def run_once(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool, detail: Optional[str],
             trace_out: Optional[str]) -> int:
    """One run of one workload; prints the result line, returns the
    exit code."""
    import tracing
    from refclock import RefClock
    from workloads import combine
    wl = all_workloads(smoke)[name]
    spec = load_spec()
    workdir = os.path.join(OUT, "work")
    os.makedirs(workdir, exist_ok=True)
    now = time.perf_counter

    # Untimed: the reference results, which also warm every cache. A
    # workload without one takes its first unit of each variant.
    expected = [wl.reference(seed, smoke, k) for k in range(wl.variants)]
    recorder = tracing.SpanRecorder() if trace else None
    clock = RefClock(recorder)
    raw_setups: List[float] = []
    setups: List[float] = []
    outcomes = []
    problems: List[List[str]] = []
    while not outcomes or (sum(raw_setups) +
                           sum(o.raw_seconds for o in outcomes)) < seconds:
        # Traced runs trace the units only, not their verification.
        uninstall = tracing.install(recorder) if trace else None
        try:
            variant = len(outcomes) % wl.variants
            with recorder.region("unit.setup") if trace else nullcontext():
                begun = now()
                state = wl.setup(seed, smoke, variant, workdir)
                raw_setups.append(now() - begun)
            setups.append(raw_setups[-1] * clock.factor())
            with recorder.region("unit.run") if trace else nullcontext():
                outcome = wl.run(state, clock)
        finally:
            if uninstall is not None:
                uninstall()
        outcomes.append(outcome)
        unit_problems = wl.verify(state, outcome)
        if expected[variant] is None:
            expected[variant] = outcome.digest
        want = expected[variant]
        if outcome.digest != want:
            unit_problems.append(
                f"unit {len(outcomes)} digest {outcome.digest[:12]} != "
                f"reference {want[:12]}")
        problems.append(unit_problems)
        del state  # free this unit before the next one is set up
    if not trace:
        while len(setups) < MIN_SETUPS:
            begun = now()
            state = wl.setup(seed, smoke, len(setups) % wl.variants,
                             workdir)
            raw_setups.append(now() - begun)
            setups.append(raw_setups[-1] * clock.factor())
            wl.discard(state)

    rates = [o.execs / o.seconds for o in outcomes]
    if trace:
        values = tracing.layer_metrics(recorder, sum(o.execs for o in
                                                     outcomes),
                                       len(outcomes))
        values.update(workload_layer(outcomes))
        values["trace.host_execs_per_s"] = statistics.median(rates)
        wanted = [m["name"] for m in spec["per_layer"]]
        for metric in wanted:
            if metric not in values:
                print(f"perf: warning: {metric} not measured; reported "
                      f"as 0", file=sys.stderr)
        metrics = {m: {"value": values.get(m, 0.0), "unit": layer_unit(m)}
                   for m in wanted}
        recorder.write(trace_out or os.path.join(OUT, "trace.json"),
                       workload=name, seed=seed)
    else:
        values = {"host_execs_per_s": statistics.median(rates),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {m["name"]: {"value": values[m["name"]],
                               "unit": END_TO_END_UNITS[m["name"]]}
                   for m in spec["end_to_end"]}

    flat = [p for unit in problems for p in unit]
    for problem in flat:
        print(f"perf: check failed: {problem}", file=sys.stderr)
    if detail:
        record = {
            "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
            "config": wl.describe(seed, smoke),
            # From the units themselves: the first of each variant run.
            "digest": combine([o.digest for o in
                                outcomes[:wl.variants]]),
            "unit_digests": [o.digest for o in outcomes],
            "execs": [o.execs for o in outcomes],
            "setup_s": setups, "raw_setup_s": raw_setups,
            "run_s": [o.seconds for o in outcomes],
            "raw_run_s": [o.raw_seconds for o in outcomes],
            "host_execs_per_s": rates, "ref_s": clock.samples,
            "probe_ms": [o.probe_ms for o in outcomes],
            "speedups": outcomes[0].speedups,
            "problems": flat, "metrics": values,
            "self_table": recorder.table() if trace else [],
            "missing_hooks": recorder.missing if trace else []}
        with open(detail, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    failed = sum(1 for unit in problems if unit)
    print(json.dumps({"correct": not flat, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if not flat else 1


# -- the suite -------------------------------------------------------------

def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def provenance(argv: List[str], seed: int, smoke: bool) -> dict:
    """Where the numbers came from: commit, host, versions, configs."""
    import numpy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*cmd) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed, "argv": argv, "thread_pins": THREAD_PINS,
        "workloads": {name: wl.describe(seed, smoke)
                      for name, wl in all_workloads(smoke).items()},
    }


def _child(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
           tag: str) -> Optional[dict]:
    """One run in a fresh interpreter; its detail record, or None if it
    failed to produce one."""
    detail = os.path.join(OUT, "runs", f"{tag}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--detail", detail]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, "runs", f"{tag}.trace")]
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(detail):
        os.remove(detail)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ,
                                                      **THREAD_PINS),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {tag}: timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0 or not os.path.exists(detail):
        print(f"  {tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    with open(detail, encoding="utf-8") as fh:
        return json.load(fh)


def _merge_traces(parts: Dict[str, str], path: str) -> None:
    """Join the per-workload span files into one JSON object without
    parsing them (they can hold hundreds of thousands of spans)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("{")
        for k, (name, part) in enumerate(parts.items()):
            out.write(("," if k else "") + json.dumps(name) + ":")
            with open(part, encoding="utf-8") as fh:
                out.write(fh.read())
            os.remove(part)
        out.write("}\n")


def _stage_shares(self_table) -> Dict[str, float]:
    from tracing import layer_of
    rows = [row for row in self_table if row[0] != "perf.ref"]
    total = sum(row[2] for row in rows) or 1.0
    shares: Dict[str, float] = {}
    for span, _, self_s in rows:
        layer = layer_of(span)
        shares[layer] = shares.get(layer, 0.0) + self_s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def suite(seed: int, seconds: float, smoke: bool, out_path: str,
          argv: List[str]) -> int:
    spec = load_spec()
    wls = all_workloads(smoke)
    names = list(wls)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    record = {"provenance": provenance(argv, seed, smoke),
              "seconds_per_run": seconds, "workloads": {}}
    failures: List[str] = []
    untraced: Dict[str, List[Optional[dict]]] = {n: [] for n in names}

    rounds = max(wl.repeats for wl in wls.values())
    for r in range(rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            if r < wls[name].repeats:
                print(f"round {r + 1}/{rounds}: {name}", flush=True)
                untraced[name].append(_child(name, seed, seconds, False,
                                             smoke, f"{name}-r{r}"))
    traced: Dict[str, Optional[dict]] = {}
    for name in names:
        print(f"traced: {name}", flush=True)
        traced[name] = _child(name, seed, seconds, True, smoke,
                              f"{name}-traced")
    _merge_traces({n: os.path.join(OUT, "runs", f"{n}-traced.trace")
                   for n in names if traced[n] is not None},
                  os.path.join(OUT, "trace.json"))

    digests: Dict[str, Optional[str]] = {}
    for name in names:
        runs = untraced[name]
        ok = [d for d in runs if d is not None and not d["problems"]]
        entry = {"error_rate": {"failed": len(runs) - len(ok),
                                "attempted": len(runs),
                                "value": (len(runs) - len(ok)) / len(runs)}}
        for d in runs:
            if d is not None:
                failures.extend(f"{name}: {p}" for p in d["problems"])
        if len(ok) < len(runs):
            failures.append(f"{name}: {len(runs) - len(ok)} of "
                            f"{len(runs)} runs failed")
        found = {d["digest"] for d in ok}
        if len(found) > 1:
            failures.append(f"{name}: runs disagree on the result digest")
        digests[name] = found.pop() if len(found) == 1 else None
        for metric in spec["end_to_end"]:
            m = metric["name"]
            if ok:
                entry[m] = dict(quartiles([d["metrics"][m] for d in ok]),
                                unit=metric["unit"], bound=metric["bound"],
                                better=metric["better"])
        if ok:
            # Raw host speed and the reference time say how contended
            # the host was; the metrics above are at reference speed.
            entry["raw_host_execs_per_s"] = dict(quartiles([
                statistics.median(e / r for e, r in zip(d["execs"],
                                                        d["raw_run_s"]))
                for d in ok]), unit="execs/s")
            entry["host_ref_ms"] = dict(quartiles([
                statistics.median(d["ref_s"]) * 1e3 for d in ok]),
                unit="ms")
        if ok and ok[0]["speedups"]:
            from workloads import speedup_err
            p50 = [statistics.median(d["probe_ms"][0]) for d in ok]
            p90 = [_percentile90(d["probe_ms"][0]) for d in ok]
            entry["probe_p50_ms"] = dict(quartiles(p50), unit="ms")
            entry["probe_p90_ms"] = dict(quartiles(p90), unit="ms")
            entry["fig6_speedup_err"] = dict(
                quartiles([speedup_err(d["speedups"]) for d in ok]),
                unit="ratio")
            entry["fig6_speedups"] = ok[0]["speedups"]
        t = traced[name]
        if t is None or t["problems"]:
            failures.append(f"{name}: traced run failed")
        else:
            if digests[name] is not None and t["digest"] != digests[name]:
                failures.append(f"{name}: tracing changed the result digest")
            entry["per_layer"] = t["metrics"]
            entry["self_table"] = t["self_table"]
            entry["stage_shares"] = _stage_shares(t["self_table"])
            entry["missing_hooks"] = t["missing_hooks"]
            if "host_execs_per_s" in entry:
                base = entry["host_execs_per_s"]["median"]
                pct = (base / t["metrics"]["trace.host_execs_per_s"]
                       - 1.0) * 100.0
                entry["trace_overhead_pct"] = pct
                entry["trace_overhead_flagged"] = \
                    pct > TRACE_OVERHEAD_FLAG_PCT
        record["workloads"][name] = entry

    campaign_names = [n for n in names if n != "fig6-quick"]
    same = {digests[n] for n in campaign_names}
    if len(same) != 1 or None in same:
        failures.append("steady/observed/mp2 digests differ: telemetry or "
                        "the mp backend changed the campaign result")
    record["digests"] = digests
    record["checks_failed"] = failures
    _print_report(record, spec)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"\nwrote {out_path} and {os.path.join(OUT, 'trace.json')}")
    return 1 if failures else 0


def _print_report(record: dict, spec: dict) -> None:
    print("\n== end-to-end (untraced runs; median [q1, q3] over n runs)")
    print(f"{'workload':<14}{'metric':<22}{'unit':<17}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'n':>4}  bound")
    for name, entry in record["workloads"].items():
        for metric, v in entry.items():
            if not isinstance(v, dict) or "median" not in v:
                continue
            bound = v.get("bound")
            print(f"{name:<14}{metric:<22}{v['unit']:<17}"
                  f"{v['median']:>12.5g}{v['q1']:>12.5g}{v['q3']:>12.5g}"
                  f"{v['n']:>4}  {'-' if bound is None else bound}")
        er = entry["error_rate"]
        print(f"{name:<14}{'error_rate':<22}{'failed/attempted':<17}"
              f"{er['value']:>12.5g}{'':>24}{er['attempted']:>4}  0")
    for name, entry in record["workloads"].items():
        if "per_layer" not in entry:
            continue
        print(f"\n== {name}: per-layer metrics (traced run, per unit)")
        for metric in (m["name"] for m in spec["per_layer"]):
            if metric in entry["per_layer"]:
                print(f"  {metric:<34}{entry['per_layer'][metric]:>14.6g} "
                      f"{layer_unit(metric)}")
        print("  self time by span:")
        for span, calls, self_s in entry["self_table"]:
            print(f"    {span:<32}{calls:>10} calls{self_s:>11.4f} s")
        title = ("host-time Figure 3" if name == "steady-64k"
                 else "host-time stage shares")
        print(f"  {title}: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in entry["stage_shares"].items()))
        if "trace_overhead_pct" in entry:
            flag = ("  <-- over 5%, per-layer shares are skewed"
                    if entry["trace_overhead_flagged"] else "")
            print(f"  trace_overhead_pct {entry['trace_overhead_pct']:.2f}"
                  f"{flag}")
        if entry["missing_hooks"]:
            print(f"  dropped (hook missing): {entry['missing_hooks']}")
    print("\n== checks: " + ("all passed" if not record["checks_failed"]
                             else "FAILED"))
    for failure in record["checks_failed"]:
        print(f"  {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="run one workload once (default: the suite)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's base rng_seed")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (at least one unit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny units, for the harness self-test")
    parser.add_argument("--out", default=os.path.join(OUT, "result.json"),
                        help="suite record (JSON)")
    parser.add_argument("--detail", help="per-run record (JSON)")
    parser.add_argument("--trace-out", help="span file of a traced run")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)
    _import_program()
    if args.workload is None:
        seconds = SUITE_SECONDS if args.seconds is None else args.seconds
        return suite(args.seed, seconds, args.smoke, args.out,
                     sys.argv if argv is None else argv)
    if args.workload not in all_workloads():
        parser.error(f"unknown workload {args.workload!r}")
    seconds = (load_spec()["run_seconds"] if args.seconds is None
               else args.seconds)
    try:
        return run_once(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke, args.detail, args.trace_out)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Shared memory (the mp workload) starts multiprocessing's resource
    tracker process; stop it and wait for it rather than leave it."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
