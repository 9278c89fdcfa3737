"""The benchmark's four workloads.

Each workload is run as repeated *units* of fixed work. A unit is set up
(timed as set-up), then run (timed as the run), then verified outside
both timers. A unit of the three campaign workloads is one 10k-exec
campaign; a unit of ``fig6-quick`` is the whole Figure 6 probe grid.

Every campaign is capped by exec count (``virtual_seconds=1e9``), so a
unit does the same host work on any commit whose results are unchanged.
The benchmark seed selects the campaigns' ``rng_seed`` values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import TelemetryError
from repro.experiments.common import (MAP_SIZE_LABELS, MAP_SIZES,
                                      PAPER_FIG6_AVG_SPEEDUPS, get_profile,
                                      throughput_probe)
from repro.experiments.fig6_throughput import speedup_summary
from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.mp import MPCampaign
from repro.target import TABLE2_BENCHMARKS, get_benchmark
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.validate import validate_directory

#: BENCH_6's workload (zlib, 64 kB BigMap, W=8) at 10k execs. A unit of
#: about half a second lets a run take the median of 20-30 units, each
#: bracketed by host-speed samples: that is what keeps host-time metrics
#: steady on a noisy shared host (20k-exec units spread twice as wide).
CAMPAIGN = dict(benchmark="zlib", fuzzer="bigmap", map_size=1 << 16,
                scale=0.5, seed_scale=0.2, virtual_seconds=1e9,
                max_real_execs=10_000, rng_seed=3, batch_window=8)
SMOKE_EXECS = 2_000
MP_WORKERS = 2
#: Campaign seeds a run cycles through: rng_seed = 3 + seed * 4 + k.
SUBSEEDS = 4

FIG6_PROFILE = "quick"
FIG6_BASE_SEED = 0
FIG6_SMOKE_BENCHMARKS = ("zlib", "libpng")
FUZZERS = ("afl", "bigmap")


@dataclass
class Outcome:
    """What one unit produced."""

    execs: int
    digest: str
    #: Modelled cycles per operation (summed over a grid's probes).
    op_cycles: Dict[str, float]
    #: Host time of the run, raw and in reference-speed seconds
    #: (see refclock.py).
    raw_seconds: float
    seconds: float
    #: fig6 only: reference-speed latency and result digest of each
    #: probe, and the average speedups.
    probe_ms: List[float] = field(default_factory=list)
    probe_digests: List[str] = field(default_factory=list)
    speedups: Dict[str, float] = field(default_factory=dict)
    #: observed only: the directory the telemetry was flushed to.
    flushed: Optional[str] = None


def result_digest(result) -> str:
    """Digest of a campaign's observable result: execs, corpus bytes,
    coverage curve, modelled op cycles, unique crashes and hangs."""
    corpus = hashlib.sha256()
    for data in result.corpus:
        corpus.update(len(data).to_bytes(4, "little"))
        corpus.update(data)
    record = [result.execs, corpus.hexdigest(), result.coverage_curve,
              result.op_cycles, result.unique_crashes, result.hangs]
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def combine(digests: List[str]) -> str:
    """One digest for an ordered list of digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _config_dict(obj) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(obj), default=repr))


class CampaignWorkload:
    """One 10k-exec zlib campaign per unit, on one of three backends.

    ``inprocess`` is the batched :class:`Campaign`; ``telemetry`` adds a
    :class:`TelemetryRecorder` flushed to disk, as ``repro-fuzz
    --telemetry-dir`` does; ``mp`` is :class:`MPCampaign` with two
    workers. All three must produce the same result for the same seed.

    Units cycle through ``SUBSEEDS`` campaign seeds: one campaign seed
    runs up to 8% faster or slower than another, and a run that covers
    several seeds spreads half as wide across benchmark seeds.
    """

    variants = SUBSEEDS

    def __init__(self, name: str, backend: str, repeats: int) -> None:
        self.name = name
        self.backend = backend
        self.repeats = repeats

    def config(self, seed: int, smoke: bool, variant: int) -> CampaignConfig:
        params = dict(CAMPAIGN, rng_seed=(CAMPAIGN["rng_seed"] +
                                          seed * SUBSEEDS + variant))
        if smoke:
            params["max_real_execs"] = SMOKE_EXECS
        return CampaignConfig(**params)

    def describe(self, seed: int, smoke: bool) -> dict:
        out = {"campaign": _config_dict(self.config(seed, smoke, 0)),
               "rng_seeds": [self.config(seed, smoke, k).rng_seed
                             for k in range(SUBSEEDS)],
               "backend": self.backend}
        if self.backend == "mp":
            out["workers"] = MP_WORKERS
        return out

    def setup(self, seed: int, smoke: bool, variant: int, workdir: str):
        """Build the benchmark, construct the campaign and start it."""
        config = self.config(seed, smoke, variant)
        built = get_benchmark(config.benchmark).build(
            config.scale, seed_scale=config.seed_scale)
        if self.backend == "mp":
            campaign = MPCampaign(config, built, workers=MP_WORKERS)
        else:
            recorder = (TelemetryRecorder(instance=0)
                        if self.backend == "telemetry" else None)
            campaign = Campaign(config, built=built, telemetry=recorder)
        try:
            campaign.start()
        except BaseException:
            self.discard((campaign, workdir))
            raise
        return campaign, workdir

    def run(self, state, clock) -> Outcome:
        campaign, workdir = state
        begun = time.perf_counter()
        try:
            campaign.step_until(campaign.config.virtual_seconds)
            result = campaign.finish()
            flushed = None
            if campaign.telemetry is not None:
                flushed = tempfile.mkdtemp(prefix="telemetry-", dir=workdir)
                campaign.telemetry.flush(flushed)
        finally:
            self.discard(state)
        raw = time.perf_counter() - begun
        return Outcome(execs=result.execs, digest=result_digest(result),
                       op_cycles=dict(result.op_cycles), raw_seconds=raw,
                       seconds=raw * clock.factor(), flushed=flushed)

    def discard(self, state) -> None:
        campaign = state[0]
        if isinstance(campaign, MPCampaign):
            campaign.close()

    def reference(self, seed: int, smoke: bool,
                  variant: int) -> Optional[str]:
        """Digest of the same campaign on the plain in-process engine:
        every unit of every campaign workload must match it."""
        return result_digest(
            Campaign(self.config(seed, smoke, variant)).run())

    def verify(self, state, outcome: Outcome) -> List[str]:
        if outcome.flushed is None:
            return []
        try:
            validate_directory(outcome.flushed)
        except TelemetryError as exc:
            return [f"telemetry artifacts invalid: {exc}"]
        finally:
            shutil.rmtree(outcome.flushed, ignore_errors=True)
        return []


class Fig6Workload:
    """The ``repro-experiments fig6 --profile quick`` grid per unit:
    19 benchmarks x {afl, bigmap} x 4 map sizes, one 400-exec
    ``throughput_probe`` each. Its 152 probes already average over many
    campaign seeds, so there is one variant."""

    name = "fig6-quick"
    variants = 1

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats

    def benchmarks(self, smoke: bool) -> Tuple[str, ...]:
        if smoke:
            return FIG6_SMOKE_BENCHMARKS
        return tuple(b.name for b in TABLE2_BENCHMARKS)

    def describe(self, seed: int, smoke: bool) -> dict:
        return {"profile": _config_dict(get_profile(FIG6_PROFILE)),
                "benchmarks": list(self.benchmarks(smoke)),
                "fuzzers": list(FUZZERS), "map_sizes": list(MAP_SIZES),
                "rng_seed": FIG6_BASE_SEED + seed}

    def setup(self, seed: int, smoke: bool, variant: int, workdir: str):
        """Build every benchmark program of the grid."""
        profile = get_profile(FIG6_PROFILE)
        built = {name: get_benchmark(name).build(
                     profile.scale, seed_scale=profile.seed_scale)
                 for name in self.benchmarks(smoke)}
        return built, FIG6_BASE_SEED + seed

    def _probe(self, built, rng_seed: int, name: str, fuzzer: str,
               size: int):
        return throughput_probe(name, fuzzer, size, built[name],
                                get_profile(FIG6_PROFILE),
                                rng_seed=rng_seed)

    def run(self, state, clock) -> Outcome:
        """The grid, probe by probe; the host's speed is sampled between
        probes, which last 20-600 ms."""
        built, rng_seed = state
        probe_ms, digests = [], []
        op_cycles: Dict[str, float] = {}
        execs = 0
        raw = seconds = 0.0
        data: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name in built:
            data[name] = {fuzzer: {} for fuzzer in FUZZERS}
            for fuzzer in FUZZERS:
                for size in MAP_SIZES:
                    begun = time.perf_counter()
                    result = self._probe(built, rng_seed, name, fuzzer, size)
                    took = time.perf_counter() - begun
                    scaled = took * clock.factor()
                    raw += took
                    seconds += scaled
                    probe_ms.append(scaled * 1e3)
                    digests.append(result_digest(result))
                    execs += result.execs
                    for op, cycles in result.op_cycles.items():
                        op_cycles[op] = op_cycles.get(op, 0.0) + cycles
                    data[name][fuzzer][MAP_SIZE_LABELS[size]] = \
                        result.throughput
        return Outcome(execs=execs, digest=combine(digests),
                       op_cycles=op_cycles, raw_seconds=raw,
                       seconds=seconds, probe_ms=probe_ms,
                       probe_digests=digests,
                       speedups=speedup_summary(data))

    def discard(self, state) -> None:
        pass

    def reference(self, seed: int, smoke: bool,
                  variant: int) -> Optional[str]:
        return None

    def verify(self, state, outcome: Outcome) -> List[str]:
        """Speedups must rise with map size, and a re-run of the first
        probe must reproduce it (a second full grid would cost a unit)."""
        problems = []
        s = outcome.speedups
        if not s["8M"] > s["2M"] > s["256k"]:
            problems.append(f"fig6 speedups do not rise with map size: {s}")
        built, rng_seed = state
        first = result_digest(self._probe(built, rng_seed, next(iter(built)),
                                          FUZZERS[0], MAP_SIZES[0]))
        if first != outcome.probe_digests[0]:
            problems.append("fig6 first probe is not reproducible")
        return problems


def speedup_err(speedups: Dict[str, float]) -> float:
    """Mean |measured / paper - 1| of the Figure 6 average speedups."""
    return statistics.fmean(abs(speedups[label] / paper - 1.0)
                            for label, paper in
                            PAPER_FIG6_AVG_SPEEDUPS.items())
