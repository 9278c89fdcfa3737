"""Cross-seed batching + shared-memory backend throughput (BENCH_6).

PR-6 lifts batching from one-seed-per-pass to a cross-seed scheduling
window (``batch_window``) and adds the shared-memory process-pool
backend (:class:`repro.fuzzer.mp.MPCampaign`). This bench runs the
BENCH_5 workload — zlib at the 64 kB spot-check map — through three
engines at the same ``batch_window=8``:

* the serial reference engine
  (:class:`repro.fuzzer.oracle.SerialCampaign`, the BENCH_5 baseline),
* the in-process cross-seed batched engine,
* the shared-memory backend with 2 workers,

records execs/sec for each in ``BENCH_6.json``, and asserts the batch
equivalence contract held (all engines bit-identical) with the batched
engine at least 3x over serial. A second record section measures the
fig6/fig7-style 8 MB-map point as host wall-clock *and* modeled
virtual throughput for both fuzzers.

Wall-clock on shared CI machines is noisy, so every engine is timed
``_ROUNDS`` times interleaved and the minimum is kept; the ratio of
minima is far more stable than any single-shot measurement.
"""

import json
import time
from pathlib import Path

from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.mp import MPCampaign
from repro.fuzzer.oracle import SerialCampaign
from repro.target import get_benchmark

#: The BENCH_5 measured workload, now with a cross-seed window. The
#: window is a semantic scheduling knob, so *every* engine measured
#: here runs W=8 — the comparison isolates pure execution strategy.
_WORKLOAD = dict(benchmark="zlib", fuzzer="bigmap", map_size=1 << 16,
                 scale=0.5, seed_scale=0.2, virtual_seconds=30.0,
                 max_real_execs=20_000, rng_seed=3)
_WINDOW = 8
_MP_WORKERS = 2

#: The fig6/fig7-style large-map point: same campaign at an 8 MB map,
#: both fuzzers, batched W=8. Fewer execs — the point is the map-size
#: scaling, not a long campaign.
_BIGMAP_POINT = dict(benchmark="zlib", map_size=1 << 23, scale=0.5,
                     seed_scale=0.2, virtual_seconds=30.0,
                     max_real_execs=8_000, rng_seed=3)

_ROUNDS = 3
_OUT = Path(__file__).resolve().parent.parent / "BENCH_6.json"


def _summary(campaign, result):
    return (result.execs, result.corpus, result.coverage_curve,
            result.op_cycles, result.unique_crashes, result.hangs)


def _run(built, factory):
    campaign = factory(built)
    # Host wall time is the point of this bench — the intentional
    # exception to the repro.core.walltime rule, as in conftest.
    start = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - start
    summary = _summary(campaign, result)
    if isinstance(campaign, MPCampaign):
        campaign.close()
    return result, summary, elapsed


def _engines():
    config = CampaignConfig(batch_window=_WINDOW, **_WORKLOAD)

    def serial(built):
        return SerialCampaign(config, built=built)

    def batched(built):
        return Campaign(config, built=built)

    def mp(built):
        return MPCampaign(config, built=built, workers=_MP_WORKERS)

    return {"serial": serial, "batched": batched, "mp": mp}


def _measure():
    built = get_benchmark(_WORKLOAD["benchmark"]).build(
        scale=_WORKLOAD["scale"], seed_scale=_WORKLOAD["seed_scale"])
    times = {name: [] for name in _engines()}
    summaries = {}
    execs = None
    for _ in range(_ROUNDS):
        for name, factory in _engines().items():
            result, summary, elapsed = _run(built, factory)
            times[name].append(elapsed)
            summaries[name] = summary
            execs = result.execs
    identical = (summaries["serial"] == summaries["batched"] ==
                 summaries["mp"])
    eps = {name: execs / min(ts) for name, ts in times.items()}
    return {
        "bench": "cross_seed_mp",
        "workload": {k: v for k, v in _WORKLOAD.items()},
        "window": _WINDOW,
        "backend": "mp",
        "workers": _MP_WORKERS,
        "rounds": _ROUNDS,
        "execs": execs,
        "serial_execs_per_sec": round(eps["serial"], 1),
        "batched_execs_per_sec": round(eps["batched"], 1),
        "mp_execs_per_sec": round(eps["mp"], 1),
        "speedup": round(eps["batched"] / eps["serial"], 3),
        "mp_speedup": round(eps["mp"] / eps["serial"], 3),
        "identical_results": identical,
    }


def _measure_8mb():
    """Host and modeled throughput at the 8 MB map, both fuzzers."""
    built = get_benchmark(_BIGMAP_POINT["benchmark"]).build(
        scale=_BIGMAP_POINT["scale"],
        seed_scale=_BIGMAP_POINT["seed_scale"])
    point = {}
    for fuzzer in ("afl", "bigmap"):
        config = CampaignConfig(fuzzer=fuzzer, batch_window=_WINDOW,
                                **{k: v for k, v in
                                   _BIGMAP_POINT.items()
                                   if k not in ("scale", "seed_scale")},
                                scale=_BIGMAP_POINT["scale"],
                                seed_scale=_BIGMAP_POINT["seed_scale"])
        host_times, result = [], None
        for _ in range(_ROUNDS):
            campaign = Campaign(config, built=built)
            start = time.perf_counter()
            result = campaign.run()
            host_times.append(time.perf_counter() - start)
        point[fuzzer] = {
            "host_execs_per_sec": round(result.execs /
                                        min(host_times), 1),
            "virtual_execs_per_sec": round(result.execs /
                                           result.virtual_seconds, 1),
            "execs": result.execs,
        }
    return point


def test_cross_seed_and_mp_throughput(benchmark):
    record = benchmark.pedantic(_measure, rounds=1, iterations=1)
    record["wallclock_8mb"] = _measure_8mb()
    _OUT.write_text(json.dumps(record, indent=2) + "\n")
    for key in ("serial_execs_per_sec", "batched_execs_per_sec",
                "mp_execs_per_sec", "speedup", "mp_speedup"):
        benchmark.extra_info[key] = record[key]
    assert record["identical_results"], \
        "an execution backend diverged (batch equivalence contract)"
    assert record["speedup"] >= 3.0, record
