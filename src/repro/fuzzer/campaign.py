"""The fuzzing campaign loop: AFL's workflow over synthetic targets.

One :class:`Campaign` wires together every substrate in the library —
target executor, instrumentation pipeline, coverage map (AFL or
BigMap), virgin-map fitness, scheduler, mutator, crash triage and the
memory-hierarchy cost model — and runs the paper's Figure 1 workflow
under a *virtual* time budget: every iteration is charged its modeled
cycle cost, so configurations with expensive map operations execute
fewer test cases in the same budget, exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import (AflCoverage, BigMapCoverage, COUNTER_SATURATE,
                    CoverageMap, VirginMap)
from ..core.bitmap_base import BatchUpdate
from ..core.errors import CampaignConfigError
from ..instrumentation import apply_lafintel, build_instrumentation
from ..memsim.calibration import model_for_benchmark
from ..memsim.costmodel import (AFL, BIGMAP, OP_CATEGORIES,
                                BitmapCostModel, ExecShape)
from ..memsim.machine import Machine, XEON_E5645
from ..target import BuiltBenchmark, Executor, get_benchmark
from ..target.executor import BatchExecResult, ExecResult
from ..telemetry.metrics import sequential_sum
from ..telemetry.recorder import TelemetryRecorder
from ..telemetry.spans import NULL_TRACER
from .clock import VirtualClock
from .mutation import MutantBatch, Mutator
from .pool import SeedPool
from .scheduling import Scheduler
from .seed import Seed
from .stats import CampaignResult, RunningShape
from .triage import AflCrashTriager, CrashwalkTriager

#: Classic fork-server cost per execution (~250 us at 2.4 GHz).
FORK_OVERHEAD_CYCLES = 600_000.0

#: Telemetry spans carrying each cost category's cycles.
_OP_SPANS = tuple("op." + key for key in OP_CATEGORIES)


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one fuzzing campaign.

    Attributes:
        benchmark: registry name (:func:`repro.target.get_benchmark`).
        fuzzer: ``"afl"`` (flat bitmap) or ``"bigmap"``.
        map_size: coverage bitmap size in bytes (power of two).
        metric: instrumentation name (``"afl-edge"``, ``"ngram3"``, ...).
        lafintel: apply the laf-intel transform to the target first.
        scale: benchmark down-scaling for cheap runs (1.0 = paper size).
        seed_scale: seed-corpus scaling; defaults to ``scale``.
        virtual_seconds: modeled time budget (the paper runs 24 h =
            86,400; experiments use scaled-down budgets, documented in
            EXPERIMENTS.md).
        max_real_execs: hard cap on actual executions, as a guard.
        rng_seed: randomness for scheduling/mutation (campaign replica).
        counter_mode: 8-bit counter overflow policy.
        non_temporal_reset: §IV-E option; ``None`` resolves to the
            paper's setup (auto: enabled for AFL once the map is
            DRAM-bound, pointless for BigMap).
        merged_classify_compare: §IV-E option: price classification
            and the virgin compare as one merged pass over the map
            (the paper's setup) instead of two sweeps. Only the cost
            model reads it (:mod:`repro.memsim.costmodel`); Figure 3
            switches it off to show AFL's separate sweeps.
        trim_seeds: run AFL's trim stage on every admitted queue entry
            (trial executions are charged like any others).
        persistent_mode: feed inputs in a loop without fork() overhead,
            as the paper's FuzzBench-derived setup does (§V-A1);
            disabling charges a per-execution fork cost.
        hang_factor: an execution whose modeled cost exceeds this
            multiple of the seed-corpus mean is a *hang* (AFL's ``-t``
            timeout): reported, deduplicated against ``virgin_tmout``,
            never admitted to the queue. ``None`` disables hang
            detection.
        batch_window: how many scheduled seeds one window accumulates
            before any of their mutants execute. Scheduling, splice
            partners and havoc keys for all seeds in the window are
            drawn up front (in schedule order); the window's whole
            energy then runs as one vectorized batch, processed in that
            same order. The window is a *semantic* knob — admissions
            discovered while processing seed A cannot influence the
            scheduling of seeds already in the window — but for any
            fixed window the batched engine, the one-mutant-at-a-time
            reference engine (:mod:`repro.fuzzer.oracle`) and every
            worker count of the shared-memory backend produce
            bit-identical campaigns (see DESIGN.md, "batch equivalence
            contract"). Larger windows feed the vectorized kernels
            bigger uniform batches; 1 reproduces the classic
            one-seed-at-a-time loop.
        use_dictionary: extract the target's compare operands as an
            autodictionary and let havoc stamp them in — the *other*
            road (besides laf-intel) past multi-byte magic compares.
        anchor_rate: override the Figure 6 calibration anchor.
        machine: hardware model (defaults to the paper's Xeon).
        curve_points: number of coverage/crash curve samples.
        compute_true_coverage: re-run the final corpus through a
            collision-free evaluator (costs one pass over the corpus).
    """

    benchmark: str
    fuzzer: str
    map_size: int
    metric: str = "afl-edge"
    lafintel: bool = False
    scale: float = 1.0
    seed_scale: Optional[float] = None
    virtual_seconds: float = 600.0
    max_real_execs: int = 200_000
    rng_seed: int = 0
    counter_mode: str = COUNTER_SATURATE
    non_temporal_reset: Optional[bool] = None
    merged_classify_compare: bool = True
    trim_seeds: bool = False
    persistent_mode: bool = True
    hang_factor: Optional[float] = 20.0
    batch_window: int = 1
    use_dictionary: bool = False
    anchor_rate: Optional[float] = None
    machine: Machine = XEON_E5645
    curve_points: int = 60
    compute_true_coverage: bool = False

    def __post_init__(self) -> None:
        if self.fuzzer not in (AFL, BIGMAP):
            raise CampaignConfigError(f"unknown fuzzer {self.fuzzer!r}")
        if self.virtual_seconds <= 0:
            raise CampaignConfigError("virtual_seconds must be positive")
        if self.max_real_execs <= 0:
            raise CampaignConfigError("max_real_execs must be positive")
        if self.batch_window < 1:
            raise CampaignConfigError(
                f"batch_window must be >= 1, got {self.batch_window}")


@dataclass
class BatchFront:
    """Vectorized front half of one (mega-)batch.

    Everything the batched processing loop needs per trace: the
    mutants themselves, their batched traces and aggregated keys, and
    the conservative interest flags. The in-process backend keeps every
    row's trace; the process backend (``repro.fuzzer.mp``) computes the
    front in worker processes, which return their rows and per-trace
    arrays in full but ``bres``/``update`` segments only for the rows
    they flag or see crash — the only rows that can need a stale-flag
    re-test or a trace-reusing replay. Every other row has an empty
    segment and ``kept`` False, and a replay of it re-executes, which
    the executor contract makes bit-identical.

    Attributes:
        batch: the mutants, rows in window order.
        bres: the :class:`BatchExecResult`; its per-row ``traversals``
            and ``crashes`` are always complete.
        update: the aggregated :class:`BatchUpdate`; its per-row
            ``n_unique`` (the cost model's ``unique_locations``) is
            always complete. It lets the processing loop re-test a
            flagged trace's keys against the *current* virgin map right
            before its replay and downgrade stale flags to the cheap
            path.
        flags: conservative "could be interesting" flags from the fused
            batched compare (see ``CoverageMap.update_compare_batch``).
        crashes: per-trace crash mask.
        kept: per-trace mask of rows whose ``bres``/``update`` segments
            are present.
    """

    batch: MutantBatch
    bres: BatchExecResult
    update: BatchUpdate
    flags: np.ndarray
    crashes: np.ndarray
    kept: np.ndarray

    @property
    def traversals(self) -> np.ndarray:
        return self.bres.traversals

    @property
    def n_unique(self) -> np.ndarray:
        return self.update.n_unique


class Campaign:
    """A single fuzzing session (one instance, one configuration).

    Args:
        config: the campaign configuration.
        built: a pre-built benchmark (program + seeds) to reuse across
            campaigns; built from ``config`` when omitted.
        telemetry: an optional
            :class:`~repro.telemetry.TelemetryRecorder`. When given,
            the campaign emits lifecycle + periodic snapshot events
            (one per coverage-curve sample), observes per-op cycle and
            memory-level attribution, and profiles the hot path with
            spans over the virtual clock. When omitted, the null tracer
            keeps the hot path free of telemetry work.
    """

    def __init__(self, config: CampaignConfig,
                 built: Optional[BuiltBenchmark] = None,
                 telemetry: Optional[TelemetryRecorder] = None) -> None:
        self.config = config
        if built is None:
            built = get_benchmark(config.benchmark).build(
                config.scale, seed_scale=config.seed_scale)
        self.built = built

        program = built.program
        if config.lafintel and not program.meta.get("laf_applied"):
            program = apply_lafintel(program)
        self.program = program
        self.executor = Executor(program)
        self.instrumentation = build_instrumentation(
            config.metric, program, config.map_size, seed=config.rng_seed)

        self.coverage = self._make_coverage_map()
        self.virgin = VirginMap(config.map_size)
        self.crashwalk = CrashwalkTriager()
        self.afl_triage = AflCrashTriager(config.map_size)

        self.rng = np.random.default_rng(
            np.random.PCG64(config.rng_seed + 0xF0CCA))
        self.pool = SeedPool()
        self.scheduler = Scheduler(self.pool, self.rng)
        dictionary = None
        if config.use_dictionary:
            from .dictionary import extract_dictionary
            dictionary = extract_dictionary(program)
        self.mutator = Mutator(max_len=max(program.input_len * 4, 64),
                               dictionary=dictionary)
        self.clock = VirtualClock(config.machine.frequency_hz)
        self.telemetry = telemetry
        self._tracer = NULL_TRACER if telemetry is None else telemetry.tracer
        if telemetry is not None:
            telemetry.bind_clock(lambda: self.clock.cycles)
        # Span handles are fetched once; with telemetry off these are
        # all the shared null span, so entering one costs two no-op
        # method calls (the benchmark-guarded disabled path).
        self._span_run_one = self._tracer.span("run_one")
        self._span_mutate = self._tracer.span("mutate")
        self._span_execute = self._tracer.span("execute")
        self._span_classify = self._tracer.span("classify_compare")
        self._span_cost = self._tracer.span("cost_eval")
        self.shape_stats = RunningShape()
        self.op_cycles: Dict[str, float] = dict.fromkeys(
            OP_CATEGORIES, 0.0)
        self.execs = 0
        self.hangs = 0
        self.unique_hangs = 0
        #: Lifetime supervision counters (parallel sessions increment
        #: these across checkpoint restores; see repro.faults).
        self.restarts = 0
        self.faults_injected = 0
        #: Extra cycle multiplier while a ``slow`` fault is active.
        self.fault_multiplier = 1.0
        #: Contention multiplier on charged cycles (set by parallel
        #: sessions; 1.0 when running alone).
        self.cycle_multiplier = 1.0
        self._next_seed_id = 0
        self._hang_budget_cycles: Optional[float] = None
        self.tmout_triage = AflCrashTriager(config.map_size)
        self.model: Optional[BitmapCostModel] = None

    # ------------------------------------------------------------------

    def _make_coverage_map(self) -> CoverageMap:
        cfg = self.config
        if cfg.fuzzer == AFL:
            # The functional flag only annotates access records; the
            # cost model resolves None (auto) itself. Mirror the auto
            # rule so accounting and pricing agree: NT once the flat
            # map's working set is DRAM-bound.
            nt = cfg.non_temporal_reset
            if nt is None:
                nt = 2 * cfg.map_size > cfg.machine.llc.size_bytes
            return AflCoverage(cfg.map_size, non_temporal_reset=nt,
                               counter_mode=cfg.counter_mode,
                               validate_keys=False)
        return BigMapCoverage(cfg.map_size, counter_mode=cfg.counter_mode,
                              validate_keys=False)

    def _pipeline(self, data: bytes, want_snapshot: bool = False,
                  precomputed: Optional[ExecResult] = None):
        """Execute one test case through the full coverage pipeline.

        ``precomputed`` may carry the trace from a batched execution of
        the same input — bit-identical to ``executor.execute(data)`` by
        the executor's contract — so replays skip the re-execution. The
        execute span is still entered (zero host work, zero clock
        delta) to keep telemetry call counts engine-independent.

        Returns ``(exec_result, compare_result, shape, snapshot)`` where
        ``snapshot`` is ``(covered_locations, coverage_hash)`` captured
        while the trace is still in the map (None unless the run is
        interesting or ``want_snapshot`` is set).
        """
        with self._span_execute:
            result = precomputed if precomputed is not None \
                else self.executor.execute(data)
        inp = np.frombuffer(data, dtype=np.uint8)
        keys, counts = self.instrumentation.keys_for(result, inp)

        self.coverage.reset()
        n_unique = self.coverage.update(keys, counts)
        with self._span_classify:
            compare = self.coverage.classify_and_compare(self.virgin)

        interesting = compare.interesting
        hash_bytes = 0
        snapshot = None
        if interesting or want_snapshot:
            cov_hash = self.coverage.hash()  # priced via the shape below
            hash_bytes = self.coverage.active_bytes()
            snapshot = (self.coverage.nonzero_locations().copy(), cov_hash)
        shape = ExecShape(
            traversals=result.traversals,
            unique_locations=n_unique,
            used_bytes=self.coverage.active_bytes()
            if self.config.fuzzer == BIGMAP else 0,
            interesting=interesting,
            hash_bytes=hash_bytes)
        return result, compare, shape, snapshot

    def _charge(self, shape: ExecShape) -> float:
        """Charge one execution's modeled cost to the virtual clock."""
        with self._span_cost:
            ops = self.model.exec_cycles(shape)
        total = ops.total
        multiplier = self.cycle_multiplier * self.fault_multiplier
        self.clock.charge(total * multiplier)
        oc = self.op_cycles
        for key in OP_CATEGORIES:
            oc[key] += getattr(ops, key)
        if self.telemetry is not None:
            self._observe_costs(
                [getattr(ops, key) for key in OP_CATEGORIES],
                shape.traversals, shape.unique_locations,
                used_bytes=shape.used_bytes, interesting=shape.interesting,
                hash_bytes=shape.hash_bytes)
        self.shape_stats.absorb(shape)
        self.execs += 1
        return total

    def _observe_costs(self, ops, traversals, n_unique, *,
                       used_bytes: int, interesting: bool = False,
                       hash_bytes: int = 0) -> None:
        """Feed executions' modeled costs into telemetry.

        One execution comes as plain numbers: ``ops`` lists its cycles
        per :data:`OP_CATEGORIES` entry. A run of executions comes as
        arrays: ``ops`` has one row per category and one column per
        execution. The cycles fold into the ``op.*`` spans, and each
        execution's per-level cost attribution into the
        ``memsim.share.*`` histograms. The folds are sequential, so one
        call for a run leaves the same bits as one call per execution.
        """
        shares = self.model.level_share_batch(
            traversals, n_unique, used_bytes=used_bytes,
            interesting=interesting, hash_bytes=hash_bytes)
        registry = self.telemetry.registry
        histograms = [registry.histogram("memsim.share." + level)
                      for level in shares]
        if np.ndim(traversals) == 0:
            for name, cycles in zip(_OP_SPANS, ops):
                self._tracer.add(name, cycles)
            for histogram, share in zip(histograms, shares.values()):
                histogram.observe(float(share))
        else:
            self._tracer.add_many(_OP_SPANS, ops)
            for histogram, values in zip(histograms, shares.values()):
                histogram.observe_many(values)

    def _trace_hash(self, data: bytes) -> int:
        """Classified-trace hash of one execution, without touching
        the virgin map (the trim oracle). Charged like a normal run."""
        result = self.executor.execute(data)
        inp = np.frombuffer(data, dtype=np.uint8)
        keys, counts = self.instrumentation.keys_for(result, inp)
        self.coverage.reset()
        n_unique = self.coverage.update(keys, counts)
        self.coverage.classify()
        value = self.coverage.hash()
        self._charge(ExecShape(
            traversals=result.traversals, unique_locations=n_unique,
            used_bytes=self.coverage.active_bytes()
            if self.config.fuzzer == BIGMAP else 0,
            interesting=True,
            hash_bytes=self.coverage.active_bytes()))
        return value

    def _admit(self, data: bytes, exec_cycles: float, depth: int,
               parent_id: Optional[int], snapshot) -> None:
        if self.config.trim_seeds and self.model is not None:
            from .trim import trim_input
            data = trim_input(data, self._trace_hash).data
        locations, cov_hash = snapshot
        seed = Seed(
            seed_id=self._next_seed_id, data=data,
            exec_cycles=exec_cycles, coverage_hash=cov_hash,
            covered_locations=locations, depth=depth,
            found_at=self.clock.seconds, parent_id=parent_id)
        self._next_seed_id += 1
        self.pool.add(seed)

    def _is_hang(self, cycles: float) -> bool:
        """AFL's timeout rule on the modeled execution cost.

        Loop-heavy inputs (huge traversal counts) can exceed any wall
        budget on a real target; the virtual equivalent is a cycle
        budget derived from the calibrated per-benchmark mean.
        """
        return (self._hang_budget_cycles is not None and
                cycles > self._hang_budget_cycles)

    def _handle_hang(self) -> None:
        self.hangs += 1
        if self.config.fuzzer == AFL:
            locations = self.coverage.nonzero_locations()
            new = self.tmout_triage.observe_sparse(
                locations, self.coverage.trace[locations])
        else:
            new = self.tmout_triage.observe(
                self.coverage.cov, limit=self.coverage.used_key)
        if new:
            self.unique_hangs += 1

    def _handle_crash(self, result, limit: Optional[int]) -> None:
        self.crashwalk.observe(result.crash, self.clock.seconds)
        if self.config.fuzzer == AFL:
            # Sparse merge: equivalent to the full-map merge, without
            # sweeping a multi-MB array on the host per crash.
            locations = self.coverage.nonzero_locations()
            self.afl_triage.observe_sparse(
                locations, self.coverage.trace[locations])
        else:
            self.afl_triage.observe(self.coverage.cov, limit=limit)

    # ------------------------------------------------------------------

    def _dry_run_and_calibrate(self) -> List[Tuple]:
        """Execute the seed corpus, then calibrate the cost model.

        The model needs a representative execution shape, which only
        exists after running the seeds — so seed executions are recorded
        first and charged retroactively once the model exists.
        """
        pending = []
        for data in self.built.seeds:
            result, compare, shape, snapshot = self._pipeline(
                data, want_snapshot=True)
            pending.append((data, result, compare, shape, snapshot))

        shapes = [p[3] for p in pending]
        reference = ExecShape(
            traversals=int(np.mean([s.traversals for s in shapes])),
            unique_locations=int(np.mean([s.unique_locations
                                          for s in shapes])),
            used_bytes=shapes[-1].used_bytes)
        self.model = model_for_benchmark(
            self.config.benchmark, self.config.fuzzer,
            self.config.map_size, reference,
            n_edges=self.program.n_edges, machine=self.config.machine,
            anchor_rate=self.config.anchor_rate,
            non_temporal_reset=self.config.non_temporal_reset,
            fork_overhead_cycles=0.0 if self.config.persistent_mode
            else FORK_OVERHEAD_CYCLES,
            merged_classify_compare=self.config.merged_classify_compare)

        if self.config.hang_factor is not None:
            mean_cycles = float(np.mean(
                [self.model.exec_cycles(s).total
                 for s in shapes])) if shapes else 0.0
            self._hang_budget_cycles = \
                self.config.hang_factor * max(mean_cycles, 1.0)

        for data, result, compare, shape, snapshot in pending:
            cycles = self._charge(shape)
            if result.crash is not None:
                self._handle_crash(result, self._compare_limit())
            else:
                # User seeds are always admitted, as in AFL.
                self._admit(data, cycles, depth=0, parent_id=None,
                            snapshot=snapshot)
        return pending

    def _compare_limit(self) -> Optional[int]:
        return (self.coverage.used_key
                if self.config.fuzzer == BIGMAP else None)

    def start(self) -> None:
        """Dry-run the seeds and calibrate; idempotent."""
        if self.model is not None:
            return
        if self.telemetry is not None:
            self.telemetry.emit(
                "campaign_start", 0.0,
                benchmark=self.config.benchmark,
                fuzzer=self.config.fuzzer,
                map_size=self.config.map_size,
                rng_seed=self.config.rng_seed)
        self._dry_run_and_calibrate()
        self._curve_step = (self.config.virtual_seconds /
                            self.config.curve_points)
        self._next_sample = self._curve_step
        self.coverage_curve: List[Tuple[float, int]] = []
        self.stopped_by = "budget"

    def _record_curve(self) -> None:
        while self.clock.seconds >= self._next_sample:
            self.coverage_curve.append(
                (self._next_sample, self.virgin.count_discovered()))
            if self.telemetry is not None:
                self._emit_snapshot(self._next_sample)
            self._next_sample += self._curve_step

    def _emit_snapshot(self, t: float) -> None:
        """One periodic progress sample (drives plot_data rows).

        Sampled on the coverage-curve grid, so the event series — like
        the curve — is a pure function of campaign state at fixed
        virtual times, which is what makes telemetry artifacts
        byte-identical across reruns and checkpoint resumes.
        """
        from ..analysis.collision import collision_rate
        seeds = self.pool.seeds
        edges = self.virgin.count_discovered()
        density = edges / self.config.map_size
        # cull() is idempotent and re-run by the scheduler, so reading
        # favored counts here does not perturb the fuzzing stream.
        favored = self.pool.cull()
        registry = self.telemetry.registry
        registry.gauge("campaign.queue_depth").set(len(seeds))
        registry.gauge("campaign.edges").set(edges)
        registry.gauge("campaign.map_density").set(density)
        registry.gauge("campaign.execs").set(self.execs)
        self.telemetry.emit(
            "snapshot", t,
            execs=self.execs,
            execs_per_sec=self.execs / max(t, 1e-9),
            edges=edges,
            map_density=density,
            collision_rate=collision_rate(self.config.map_size, edges),
            queue_depth=len(seeds),
            pending_total=sum(1 for s in seeds if not s.fuzzed),
            pending_favs=sum(1 for s in seeds
                             if s.favored and not s.fuzzed),
            favored=favored,
            queue_cycles=self.scheduler.queue_cycles,
            cur_path=min(self.scheduler._cursor, max(len(seeds) - 1, 0)),
            crashes=self.crashwalk.unique_crashes,
            hangs=self.unique_hangs,
            max_depth=max((s.depth for s in seeds), default=0))

    def _exhausted(self, deadline: float) -> bool:
        if self.execs >= self.config.max_real_execs:
            self.stopped_by = "execs"
            return True
        return not self.clock.before(deadline)

    def step_until(self, deadline_seconds: float) -> None:
        """Fuzz until the virtual clock reaches ``deadline_seconds``."""
        if self.model is None:
            raise RuntimeError("call start() before step_until()")
        deadline = min(deadline_seconds, self.config.virtual_seconds)
        while not self._exhausted(deadline):
            if not self.pool.seeds:
                # Every seed crashed: fuzz from a random input.
                filler = self.rng.integers(
                    0, 256, size=self.program.input_len,
                    dtype=np.uint8).tobytes()
                result, compare, shape, snapshot = self._pipeline(
                    filler, want_snapshot=True)
                cycles = self._charge(shape)
                if result.crash is None:
                    self._admit(filler, cycles, 0, None, snapshot)
                continue

            window = self._collect_window()
            if window is not None:
                self._run_window(window, deadline)

    def _collect_window(self) -> Optional[Tuple[list, List[Seed],
                                               np.ndarray]]:
        """Schedule a window of seeds and key their havoc draws.

        Up to ``batch_window`` seeds are scheduled in order; for each,
        the scheduler's skip walk, the energy, the splice-partner pick
        and the draw's key — exactly one word of the campaign stream,
        whatever the energy — happen here, in schedule order regardless
        of window size. Nothing is drawn yet: a draw is a pure function
        of its spec (:meth:`Mutator.havoc_draw`), so the window runner
        draws and materializes the specs with one cross-seed
        :meth:`Mutator.havoc_apply` pass (the batched engine inside
        :meth:`_batch_front`), and the mutation kernels run once per
        window over the combined row count, which is where the
        queue-cycle batching actually pays (per-seed application
        re-pays the kernel setup and the deep-stack scalar tail for
        every seed).

        Every engine processes the same collected window afterwards, so
        switching the window runner (or the execution backend) cannot
        move a single RNG draw. Windows never outlive a ``step_until``
        call, which keeps checkpoints window-agnostic: snapshots only
        ever see fully drained windows.

        Returns ``(specs, seeds, bounds)`` — ``specs`` lists ``(key,
        data, energy, partner)`` per seed, and seed ``k``'s mutants are
        rows ``bounds[k]:bounds[k+1]`` of the applied window — or None
        if nothing was scheduled with energy.
        """
        seeds: List[Seed] = []
        specs = []
        for _ in range(self.config.batch_window):
            if not self.pool.seeds:
                break
            seed = self.scheduler.next_seed()
            energy = self.scheduler.energy_for(seed)
            seed.fuzzed = True
            partner = self.pool.pick_splice_partner(self.rng, seed.seed_id)
            if energy <= 0:
                continue
            with self._span_mutate:
                specs.append((self.rng.bit_generator.random_raw(),
                              seed.data, energy,
                              partner.data if partner else None))
            seeds.append(seed)
        if not seeds:
            return None
        bounds = np.concatenate(
            ([0], np.cumsum([n for _, _, n, _ in specs], dtype=np.int64)))
        return specs, seeds, bounds

    def _run_mutant(self, mutant: bytes, seed: Seed,
                    precomputed: Optional[ExecResult] = None) -> None:
        """One mutant of ``seed`` through the scalar pipeline: charge
        it, then dispatch the crash / hang / interesting verdict."""
        result, compare, shape, snapshot = self._pipeline(
            mutant, precomputed=precomputed)
        cycles = self._charge(shape)
        if result.crash is not None:
            self._handle_crash(result, self._compare_limit())
        elif self._is_hang(cycles):
            # Hanging inputs are reported, never queued (AFL drops them
            # from the fuzzing flow the same way).
            self._handle_hang()
        elif compare.interesting:
            self._admit(mutant, cycles, seed.depth + 1, seed.seed_id,
                        snapshot)

    def _batch_front(self, specs, width: Optional[int] = None,
                     lo: int = 0, hi: Optional[int] = None) -> BatchFront:
        """Vectorized front half of the batched engine.

        Draw the window's havoc specs covering rows ``[lo, hi)``
        (default: all rows) and apply those rows at ``width`` (default:
        the widest draw's), execute the whole (mega-)batch, gather
        instrumentation keys, and run the fused
        aggregate/classify/compare kernel. Execution backends override
        this — ``repro.fuzzer.mp`` has each worker process run it on
        its own row shard and concatenates the results in worker
        order, which is bit-identical because every draw is a pure
        function of its spec and every per-trace quantity is
        row/segment-local.
        """
        batch = self.mutator.havoc_apply(
            self.mutator.draw_rows(specs, lo, hi), width)
        bres = self.executor.execute_batch(batch.data, batch.lengths)
        keys, counts = self.instrumentation.keys_for_batch(
            bres, list(batch.rows()))
        update, flags = self.coverage.update_compare_batch(
            keys, counts, bres.offsets, self.virgin)
        crashes = np.fromiter((c is not None for c in bres.crashes),
                              dtype=bool, count=bres.n)
        return BatchFront(batch=batch, bres=bres, update=update,
                          flags=flags, crashes=crashes,
                          kept=np.ones(bres.n, dtype=bool))

    def _repair_map(self, front: BatchFront, i: int) -> None:
        """Leave the map exactly as the serial engine would: holding
        the classified trace of the last processed mutant (checkpoints
        capture the coverage map). The trace comes from the batch
        result when the backend kept it, else from one scalar
        re-execution — bit-identical by the executor's contract — then
        reset + update + classify, which reproduces
        ``classify_and_compare``'s map effect (the merge never writes
        the local map). Host-only work: no clock, no virgin, no
        counters."""
        row = front.batch.row(i)
        if front.kept[i]:
            result = front.bres.result_for(i)
        else:
            result = self.executor.execute(row.tobytes())
        mkeys, mcounts = self.instrumentation.keys_for(result, row)
        self.coverage.reset()
        self.coverage.update(mkeys, mcounts)
        self.coverage.classify()

    def _run_window(self, window, deadline: float) -> None:
        """Batched engine: execute a whole window's energy at once.

        The vectorized front half (execute, key gather, fused
        aggregate/classify/compare against virgin) computes, per trace,
        a conservative "could this be interesting?" flag plus its exact
        cheap-path cycle cost. Traces that crash, would time out, or
        might be interesting replay the scalar pipeline
        (:meth:`_run_mutant`) — which also performs the virgin merge
        exactly as the serial reference engine
        (:class:`repro.fuzzer.oracle.SerialCampaign`) would.
        Everything else is charged from the batch pricing without ever
        materializing a coverage map: maximal runs of consecutive cheap
        traces are charged in one vectorized sweep whose float
        accumulation order — clock, op cycles and telemetry alike — is
        bit-identical to the per-trace loop (see
        :meth:`_charge_cheap_run`).

        The conservative flags are sound under in-order processing:
        virgin bits only clear monotonically, so a trace dismissed
        against the window-start virgin map stays uninteresting no
        matter what earlier traces merge before its turn. Hang
        prediction and admissions stay per-seed: every trace belongs to
        exactly one seed portion (``bounds``), and its verdicts are
        computed from its own totals and attributed to its own parent.
        """
        # No spans around the batch kernels: the serial engine records
        # one {execute, classify_compare, cost_eval} call per execution
        # (zero clock delta — charging happens later), so the cheap-run
        # sweep deposits the same per-exec calls instead of phantom
        # per-batch entries, keeping profiles bit-identical.
        specs, seeds, bounds = window
        front = self._batch_front(specs)

        bigmap = self.config.fuzzer == BIGMAP
        used = self.coverage.active_bytes() if bigmap else 0
        batch_ops = self.model.exec_cycles_batch(
            front.traversals, front.n_unique, used_bytes=used)
        totals = batch_ops.totals()

        budget = self._hang_budget_cycles
        # The cheap-path cost is exact for non-replayed traces, so the
        # hang prediction matches the serial engine's verdict — and it
        # is per-trace: a predicted hang in seed A's portion marks only
        # that trace, never a neighbour from another seed.
        base_replays = front.crashes | front.flags
        replays = base_replays if budget is None \
            else base_replays | (totals > budget)

        last_cheap = -1  # last processed trace that skipped the map
        i = 0
        stop = False
        for k, seed in enumerate(seeds):
            end = int(bounds[k + 1])
            with self._span_run_one:
                while i < end:
                    if self._exhausted(deadline):
                        stop = True
                        break
                    if replays[i] and front.flags[i] \
                            and not front.crashes[i] \
                            and not self.coverage.segment_interesting(
                                front.update, i, self.virgin):
                        # The flag went stale: earlier traces already
                        # claimed every virgin bit this one touches.
                        # The serial engine would run the pipeline and
                        # find compare.interesting False — exactly the
                        # cheap-path charge — so downgrade the trace.
                        # Clearing the base flag keeps any budget-driven
                        # replay decision intact across re-pricings.
                        front.flags[i] = False
                        base_replays[i] = False
                        replays[i] = budget is not None \
                            and totals[i] > budget
                    if replays[i]:
                        pre = front.bres.result_for(i) \
                            if front.kept[i] else None
                        self._run_mutant(front.batch.tobytes(i), seed, pre)
                        last_cheap = -1
                        if bigmap and self.coverage.active_bytes() != used:
                            # used_key moved: re-price the remaining
                            # cheap entries against the grown condensed
                            # prefix (exactly what the serial engine's
                            # per-trace pricing would now charge them).
                            used = self.coverage.active_bytes()
                            batch_ops = self.model.exec_cycles_batch(
                                front.traversals, front.n_unique,
                                used_bytes=used)
                            totals = batch_ops.totals()
                            if budget is not None:
                                replays = base_replays | (totals > budget)
                        self._record_curve()
                        i += 1
                    else:
                        j = i + 1
                        while j < end and not replays[j]:
                            j += 1
                        done, exhausted = self._charge_cheap_run(
                            front, batch_ops, totals, i, j, used,
                            deadline)
                        if done:
                            last_cheap = i + done - 1
                        i += done
                        self._record_curve()
                        if exhausted:
                            stop = True
                            break
            if stop:
                break

        if last_cheap >= 0:
            self._repair_map(front, last_cheap)

    def _charge_cheap_run(self, front: BatchFront, batch_ops, totals,
                          lo: int, hi: int, used: int,
                          deadline: float) -> Tuple[int, bool]:
        """Charge consecutive cheap traces ``[lo, hi)`` in one sweep.

        Bit-identical to calling :meth:`_charge` per trace: the clock,
        every ``op_cycles`` key and, with telemetry on, every ``op.*``
        span and ``memsim.share.*`` histogram advance through
        ``np.add.accumulate`` — a strictly sequential left-to-right
        fold, the same float operations in the same order as the scalar
        loop — and the shape statistics are exact integer sums. The
        serial engine checks exhaustion *before* each trace, so the run
        stops at the first trace whose preceding clock value crosses
        the deadline, or when the real-execution cap is reached. It
        also stops right after the trace whose clock reaches the next
        coverage-curve sample, so the caller's :meth:`_record_curve`
        sees exactly the state the per-trace loop samples. The caller
        has checked exhaustion, so at least one trace is charged.

        Returns ``(n_processed, exhausted)``.
        """
        n = hi - lo
        multiplier = self.cycle_multiplier * self.fault_multiplier
        acc = np.add.accumulate(np.concatenate(
            ([self.clock.cycles], totals[lo:hi] * multiplier)))
        # acc[t] is the clock after t traces; the serial loop admits
        # trace t iff acc[t] / f < deadline (checked before charging),
        # and samples the curve after trace t iff acc[t + 1] / f
        # reaches the next sample.
        seconds = acc / self.clock.frequency_hz
        t_clock = int(np.searchsorted(seconds, deadline, side="left"))
        t_run = min(n, 1 + int(np.searchsorted(
            seconds[1:], self._next_sample, side="left")))
        t = min(t_run, t_clock, self.config.max_real_execs - self.execs)
        self.clock.cycles = float(acc[t])
        ops = batch_ops.columns(lo, lo + t)
        oc = self.op_cycles
        oc.update(zip(OP_CATEGORIES, sequential_sum(
            [oc[key] for key in OP_CATEGORIES], ops)))
        traversals = front.traversals[lo:lo + t]
        n_unique = front.n_unique[lo:lo + t]
        if self.telemetry is not None:
            self._observe_costs(ops, traversals, n_unique, used_bytes=used)
            # The per-exec span calls the scalar pipeline records (zero
            # clock delta: the cost is charged outside those spans).
            for name in ("execute", "classify_compare", "cost_eval"):
                self._tracer.add(name, 0.0, calls=t)
        stats = self.shape_stats
        stats.execs += t
        stats.traversals += int(np.sum(traversals))
        stats.unique_locations += int(np.sum(n_unique))
        stats.used_bytes_last = used
        self.execs += t
        if t < t_run:
            # Mirror the serial loop's _exhausted call at the stopping
            # trace (it is what records stopped_by="execs").
            self._exhausted(deadline)
            return t, True
        return t, False

    def snapshot(self):
        """Capture a resumable checkpoint of the campaign's state.

        See :mod:`repro.fuzzer.checkpoint`; requires :meth:`start` to
        have run (the model and curves must exist).
        """
        from .checkpoint import snapshot_campaign
        return snapshot_campaign(self)

    def restore(self, checkpoint) -> None:
        """Reset to a checkpoint previously taken from this campaign.

        Used by supervised parallel sessions to resume a crashed
        instance from its last durable state instead of from the seed
        corpus.
        """
        from .checkpoint import restore_campaign
        restore_campaign(self, checkpoint)

    def import_input(self, data: bytes) -> bool:
        """Run a peer's queue entry; admit it if it covers new ground.

        This is AFL's ``-M``/``-S`` corpus synchronization: imported
        entries are executed (and charged) like any test case.
        """
        result, compare, shape, snapshot = self._pipeline(data)
        cycles = self._charge(shape)
        if result.crash is not None:
            self._handle_crash(result, self._compare_limit())
            return False
        if compare.interesting:
            self._admit(data, cycles, 0, None, snapshot)
            return True
        return False

    def finish(self) -> CampaignResult:
        """Close curves and assemble the result record."""
        self.coverage_curve.append((self.clock.seconds,
                                    self.virgin.count_discovered()))
        if self.telemetry is not None:
            self._emit_snapshot(self.clock.seconds)
            self.telemetry.emit(
                "campaign_finish", self.clock.seconds,
                execs=self.execs,
                edges=self.virgin.count_discovered(),
                crashes=self.crashwalk.unique_crashes,
                hangs=self.unique_hangs,
                stop_reason=self.stopped_by)
        true_coverage = None
        if self.config.compute_true_coverage:
            from ..analysis.coverage_eval import evaluate_corpus
            true_coverage = evaluate_corpus(
                self.program, [s.data for s in self.pool.seeds],
                executor=self.executor)
        config = self.config
        virtual = max(self.clock.seconds, 1e-9)
        return CampaignResult(
            benchmark=config.benchmark, fuzzer=config.fuzzer,
            map_size=config.map_size, metric=config.metric,
            lafintel=config.lafintel, execs=self.execs,
            virtual_seconds=virtual,
            throughput=self.execs / virtual,
            discovered_locations=self.virgin.count_discovered(),
            used_key=(self.coverage.used_key
                      if config.fuzzer == BIGMAP else None),
            unique_crashes=self.crashwalk.unique_crashes,
            afl_unique_crashes=self.afl_triage.unique_crashes,
            corpus=[s.data for s in self.pool.seeds],
            coverage_curve=self.coverage_curve,
            crash_curve=self.crashwalk.curve(),
            op_cycles=dict(self.op_cycles),
            interesting_execs=self.shape_stats.interesting,
            stopped_by=self.stopped_by,
            mean_shape=self.shape_stats.mean_shape(),
            true_edge_coverage=true_coverage,
            hangs=self.hangs, unique_hangs=self.unique_hangs,
            restarts=self.restarts,
            faults_injected=self.faults_injected)

    def run(self) -> CampaignResult:
        """Run the campaign to its virtual deadline (or exec cap)."""
        self.start()
        self.step_until(self.config.virtual_seconds)
        return self.finish()


def run_campaign(config: CampaignConfig,
                 built: Optional[BuiltBenchmark] = None,
                 telemetry=None) -> CampaignResult:
    """Convenience wrapper: construct and run a campaign."""
    return Campaign(config, built=built, telemetry=telemetry).run()
