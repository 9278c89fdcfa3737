"""Serial vs batched execution engine throughput (BENCH_5).

The batched engine (:class:`~repro.fuzzer.Campaign`) runs one
vectorized havoc + execute + coverage pass per seed instead of one
Python ``_pipeline`` call per mutation, which is what the serial
reference engine (:class:`repro.fuzzer.oracle.SerialCampaign`) still
does. This bench runs the same campaign both ways on the fig2
spot-check map size (64 kB) and records execs/sec for each in ``BENCH_5.json`` at the repo
root, asserting the batched engine is at least 2x faster and — the
batch equivalence contract — that both engines produced bit-identical
campaigns.

Wall-clock on shared CI machines is noisy, so each engine is timed
``_ROUNDS`` times interleaved and the minimum is kept; the ratio of
minima is far more stable than any single-shot measurement.
"""

import json
import time
from pathlib import Path

from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.oracle import SerialCampaign
from repro.target import get_benchmark

#: The measured workload: zlib at the paper's 64 kB bitmap spot check
#: (Figure 2's leftmost column), sized so a pair of runs stays in CI
#: smoke territory while still covering thousands of executions.
_WORKLOAD = dict(benchmark="zlib", fuzzer="bigmap", map_size=1 << 16,
                 scale=0.5, seed_scale=0.2, virtual_seconds=30.0,
                 max_real_execs=20_000, rng_seed=3)

_ROUNDS = 3
_OUT = Path(__file__).resolve().parent.parent / "BENCH_5.json"


def _run(built, engine):
    campaign = engine(CampaignConfig(**_WORKLOAD), built=built)
    # Host wall time is the point of this bench — the intentional
    # exception to the repro.core.walltime rule, as in conftest.
    start = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _measure():
    built = get_benchmark(_WORKLOAD["benchmark"]).build(
        scale=_WORKLOAD["scale"], seed_scale=_WORKLOAD["seed_scale"])
    serial_times, batched_times = [], []
    serial_result = batched_result = None
    for _ in range(_ROUNDS):
        serial_result, t = _run(built, SerialCampaign)
        serial_times.append(t)
        batched_result, t = _run(built, Campaign)
        batched_times.append(t)
    identical = (
        serial_result.execs == batched_result.execs
        and serial_result.corpus == batched_result.corpus
        and serial_result.coverage_curve == batched_result.coverage_curve
        and serial_result.op_cycles == batched_result.op_cycles
        and serial_result.unique_crashes == batched_result.unique_crashes)
    execs = serial_result.execs
    serial_eps = execs / min(serial_times)
    batched_eps = execs / min(batched_times)
    return {
        "bench": "batch_engine",
        "workload": {k: v for k, v in _WORKLOAD.items()},
        "rounds": _ROUNDS,
        "execs": execs,
        "serial_execs_per_sec": round(serial_eps, 1),
        "batched_execs_per_sec": round(batched_eps, 1),
        "speedup": round(batched_eps / serial_eps, 3),
        "identical_results": identical,
    }


def test_batched_engine_throughput(benchmark):
    record = benchmark.pedantic(_measure, rounds=1, iterations=1)
    _OUT.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info["serial_execs_per_sec"] = \
        record["serial_execs_per_sec"]
    benchmark.extra_info["batched_execs_per_sec"] = \
        record["batched_execs_per_sec"]
    benchmark.extra_info["speedup"] = record["speedup"]
    assert record["identical_results"], \
        "batched engine diverged from serial (equivalence contract)"
    assert record["speedup"] >= 2.0, record
