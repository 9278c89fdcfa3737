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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core import AflCoverage, BigMapCoverage, CoverageMap, VirginMap
from ..core.bitmap_base import BatchUpdate, FlatKeys, aggregate_keys
from ..core.errors import CampaignConfigError
from ..instrumentation import apply_lafintel, build_instrumentation
from ..instrumentation.edge_ids import EdgeTableInstrumentation
from ..memsim.calibration import model_for_benchmark
from ..memsim.costmodel import (AFL, BIGMAP, OP_CATEGORIES,
                                BitmapCostModel, ExecShape)
from ..memsim.machine import Machine, XEON_E5645
from ..target import BuiltBenchmark, Executor, get_benchmark
from ..target.crashes import CrashInfo
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
        non_temporal_reset: §IV-E option; ``None`` resolves to the
            paper's setup (auto: enabled for AFL once the map is
            DRAM-bound, pointless for BigMap). Only the cost model reads
            it (:func:`repro.memsim.calibration.model_for_benchmark`
            resolves the auto rule).
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
        if self.seed_scale is not None and self.seed_scale <= 0:
            raise CampaignConfigError("seed_scale must be positive")
        if self.virtual_seconds <= 0:
            raise CampaignConfigError("virtual_seconds must be positive")
        if self.max_real_execs <= 0:
            raise CampaignConfigError("max_real_execs must be positive")
        if self.batch_window < 1:
            raise CampaignConfigError(
                f"batch_window must be >= 1, got {self.batch_window}")


class AggregatedTrace(NamedTuple):
    """One execution as the scalar pipeline loads it into the map.

    Attributes:
        keys: ascending, duplicate-free ``int64`` map keys.
        summed: their collision-summed hit counts.
        traversals: total edge traversals (the cost model's driver).
        crash: the triggered :class:`CrashInfo`, or ``None``.
    """

    keys: np.ndarray
    summed: np.ndarray
    traversals: int
    crash: Optional[CrashInfo]


@dataclass
class BatchFront:
    """Vectorized front half of one (mega-)batch.

    Everything the batched processing loop needs per trace: the
    mutants, their dense traces, the conservative interest flags, and
    what pricing and the stale-flag re-test read. No flat trace is
    built here: a flagged row that replays loads its aggregated segment
    from ``update``, and any other row that reaches the map cuts its
    trace from ``bres`` when it gets there (:meth:`Campaign._row_trace`).

    Attributes:
        batch: the mutants, rows in window order.
        bres: the dense :class:`BatchExecResult` of every row.
        update: the :class:`BatchUpdate`: every row's ``n_unique`` (the
            cost model's ``unique_locations``), and the aggregated key
            segments of (at least) the flagged rows. These let the
            processing loop re-test a flagged trace's keys against the
            *current* virgin map when its cheap-run scan (or its own
            arrival) reaches it, and downgrade a stale flag to the
            cheap path; a replayed row loads its segment straight into
            the map.
        flags: conservative "could be interesting" flags from the fused
            batched compare (see ``CoverageMap.update_compare_batch``).
        crashes: per-trace crash mask.
    """

    batch: MutantBatch
    bres: BatchExecResult
    update: BatchUpdate
    flags: np.ndarray
    crashes: np.ndarray

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
        # The span handle is fetched once; with telemetry off it is the
        # shared null span, so entering it costs two no-op method calls
        # (the benchmark-guarded disabled path).
        self._span_run_one = self._tracer.span("run_one")
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
        cls = AflCoverage if self.config.fuzzer == AFL else BigMapCoverage
        return cls(self.config.map_size)

    def _aggregated(self, result: ExecResult,
                    inp: np.ndarray) -> AggregatedTrace:
        """Key and aggregate one flat trace; ``inp`` is its exact-length
        input (input-dependent metrics read it)."""
        keys, counts = self.instrumentation.keys_for(result, inp)
        return AggregatedTrace(*aggregate_keys(keys, counts),
                               result.traversals, result.crash)

    def _traces(self, inputs: Sequence[bytes]) -> List[AggregatedTrace]:
        """Execute ``inputs`` as one batch: each input's aggregated trace.

        Every input the campaign runs that is not a window's mutant (the
        seeds, the all-crashed filler, peers' entries, trim probes and
        the serial oracle's mutants) executes here. A trace does not
        depend on its batch (:meth:`Executor.execute_inputs`).
        """
        bres = self.executor.execute_inputs(inputs)
        return [self._aggregated(bres.result_for(i),
                                 np.frombuffer(data, dtype=np.uint8))
                for i, data in enumerate(inputs)]

    def _pipeline(self, trace: AggregatedTrace, want_snapshot: bool = False):
        """Load one execution's aggregated trace through the coverage
        pipeline: map update, classify + compare against virgin.

        Returns ``(compare_result, shape, snapshot)`` where ``snapshot``
        is ``(covered_locations, coverage_hash)`` captured while the
        trace is still in the map (None unless the run is interesting or
        ``want_snapshot`` is set).
        """
        self.coverage.reset()
        n_unique = self.coverage.update_aggregated(trace.keys, trace.summed)
        compare = self.coverage.classify_and_compare(self.virgin)

        interesting = compare.interesting
        hash_bytes = 0
        snapshot = None
        if interesting or want_snapshot:
            cov_hash = self.coverage.hash()  # priced via the shape below
            hash_bytes = self.coverage.active_bytes()
            snapshot = (self.coverage.nonzero_locations().copy(), cov_hash)
        shape = ExecShape(
            traversals=trace.traversals,
            unique_locations=n_unique,
            used_bytes=self.coverage.active_bytes()
            if self.config.fuzzer == BIGMAP else 0,
            interesting=interesting,
            hash_bytes=hash_bytes)
        return compare, shape, snapshot

    def _charge(self, shape: ExecShape) -> float:
        """Charge one execution's modeled cost to the virtual clock."""
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
        trace = self._traces([data])[0]
        self.coverage.reset()
        n_unique = self.coverage.update_aggregated(trace.keys, trace.summed)
        self.coverage.classify()
        value = self.coverage.hash()
        self._charge(ExecShape(
            traversals=trace.traversals, unique_locations=n_unique,
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
        if self.tmout_triage.observe(*self.coverage.classified_trace()):
            self.unique_hangs += 1

    def _handle_crash(self, trace: AggregatedTrace) -> None:
        self.crashwalk.observe(trace.crash, self.clock.seconds)
        # Sparse merge: equivalent to the full-map merge, without
        # sweeping a multi-MB array on the host per crash.
        self.afl_triage.observe(*self.coverage.classified_trace())

    # ------------------------------------------------------------------

    def _dry_run_and_calibrate(self) -> List[Tuple]:
        """Execute the seed corpus, then calibrate the cost model.

        The model needs a representative execution shape, which only
        exists after running the seeds — so seed executions are recorded
        first and charged retroactively once the model exists. The
        seeds execute as one batch (:meth:`_traces`).
        """
        seeds = self.built.seeds
        pending = []
        for data, trace in zip(seeds, self._traces(seeds)):
            compare, shape, snapshot = self._pipeline(trace,
                                                      want_snapshot=True)
            pending.append((data, trace, compare, shape, snapshot))

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

        for data, trace, compare, shape, snapshot in pending:
            cycles = self._charge(shape)
            if trace.crash is not None:
                self._handle_crash(trace)
            else:
                # User seeds are always admitted, as in AFL.
                self._admit(data, cycles, depth=0, parent_id=None,
                            snapshot=snapshot)
        return pending

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
            pending_favs=self.pool.pending_favored(),
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
                trace = self._traces([filler])[0]
                compare, shape, snapshot = self._pipeline(
                    trace, want_snapshot=True)
                cycles = self._charge(shape)
                if trace.crash is None:
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
                    trace: AggregatedTrace) -> None:
        """One mutant of ``seed`` (executed as ``trace``) through the
        scalar pipeline: charge it, then dispatch the crash / hang /
        interesting verdict."""
        compare, shape, snapshot = self._pipeline(trace)
        cycles = self._charge(shape)
        if trace.crash is not None:
            self._handle_crash(trace)
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
        the widest draw's), execute the whole (mega-)batch, and run the
        fused classify/compare kernel on its keys. A metric whose key
        depends on the edge alone feeds the kernel the dense window
        straight from the executor's reach matrix
        (:meth:`KeyColumns.window`); an input-dependent one runs its
        key kernel once over the batch's flat trace. Execution backends
        override this — ``repro.fuzzer.mp`` has each worker process run
        it on its own row shard and concatenates the results in worker
        order, which is bit-identical because every draw is a pure
        function of its spec and every per-trace quantity is
        row/segment-local.
        """
        batch = self.mutator.havoc_apply(
            self.mutator.draw_rows(specs, lo, hi), width)
        bres = self.executor.execute_batch(batch.data)
        instrumentation = self.instrumentation
        if isinstance(instrumentation, EdgeTableInstrumentation):
            keys = instrumentation.columns.window(bres)
        else:
            flat, counts = instrumentation.keys_for_batch(bres, batch)
            keys = FlatKeys(flat, counts, bres.offsets)
        update, flags = self.coverage.update_compare_batch(keys,
                                                           self.virgin)
        crashes = np.fromiter((c is not None for c in bres.crashes),
                              dtype=bool, count=bres.n)
        return BatchFront(batch=batch, bres=bres, update=update,
                          flags=flags, crashes=crashes)

    def _row_trace(self, front: BatchFront, i: int) -> AggregatedTrace:
        """Row ``i`` of a window as the aggregated trace the map loads.

        A row the front flagged already has its sorted, duplicate-free
        segment in ``front.update`` (a stale downgrade leaves it there),
        so it is loaded as is. Any other row — a crash-only or
        hang-budget replay, or the map repair's cheap row — has none and
        is cut from its dense row, keyed and aggregated. Both give
        the same arrays the serial engine's ``keys_for`` +
        :func:`aggregate_keys` would (a non-empty segment is complete).
        """
        keys, summed = front.update.segment(i)
        if keys.size:
            return AggregatedTrace(keys, summed, int(front.traversals[i]),
                                   front.bres.crashes[i])
        return self._aggregated(front.bres.result_for(i), front.batch.row(i))

    def _repair_map(self, front: BatchFront, i: int) -> None:
        """Leave the map exactly as the serial engine would: holding
        the classified trace of the last processed mutant (checkpoints
        capture the coverage map). The row's aggregated trace
        (:meth:`_row_trace`) is loaded with reset + update + classify,
        which reproduces ``classify_and_compare``'s map effect (the
        merge never writes the local map). Host-only work: no clock, no
        virgin, no counters."""
        trace = self._row_trace(front, i)
        self.coverage.reset()
        self.coverage.update_aggregated(trace.keys, trace.summed)
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
        (:class:`repro.fuzzer.oracle.SerialCampaign`) would. A replay
        neither re-executes nor re-aggregates: a flagged row loads the
        aggregated segment the front built for it, and only a row
        without one is cut from the dense batch (:meth:`_row_trace`).
        Everything else is charged from the batch pricing without ever
        materializing a coverage map: maximal runs of consecutive cheap
        traces are charged in one vectorized sweep whose float
        accumulation order — clock, op cycles and telemetry alike — is
        bit-identical to the per-trace loop (see
        :meth:`_charge_cheap_run`).

        The conservative flags are sound under in-order processing:
        virgin bits only clear monotonically, so a trace dismissed
        against the window-start virgin map stays uninteresting no
        matter what earlier traces merge before its turn. The converse
        does not hold — an earlier replay may claim every bit a flagged
        trace touches — so the scan that grows a cheap run re-tests
        each flag it meets (``segment_interesting`` against the live
        virgin map, once per arrival) and a stale one joins the run.
        The scan holds no replay, and only a replay moves virgin or
        BigMap's index, so that verdict is the one the trace gets on
        arrival. A cheap run therefore ends only at a replay, a seed
        boundary, a curve sample or the deadline / exec cap. Hang
        prediction and admissions stay per-seed: every trace belongs to
        exactly one seed portion (``bounds``), and its verdicts are
        computed from its own totals and attributed to its own parent.
        """
        specs, seeds, bounds = window
        front = self._batch_front(specs)

        bigmap = self.config.fuzzer == BIGMAP
        used = self.coverage.active_bytes() if bigmap else 0
        batch_ops = self.model.exec_cycles_batch(
            front.traversals, front.n_unique, used_bytes=used)
        totals = batch_ops.total

        budget = self._hang_budget_cycles
        # The cheap-path cost is exact for non-replayed traces, so the
        # hang prediction matches the serial engine's verdict — and it
        # is per-trace: a predicted hang in seed A's portion marks only
        # that trace, never a neighbour from another seed.
        base_replays = front.crashes | front.flags
        replays = base_replays if budget is None \
            else base_replays | (totals > budget)

        confirmed = -1  # flagged trace last re-tested and still new

        def still_replays(t: int) -> bool:
            """Re-test flagged trace ``t`` against the current virgin
            map (once per arrival) and downgrade a stale flag; returns
            whether ``t`` still replays. Called only where
            ``replays[t]`` is set."""
            nonlocal confirmed
            if front.flags[t] and not front.crashes[t] and t != confirmed:
                if self.coverage.segment_interesting(front.update, t,
                                                     self.virgin):
                    confirmed = t
                else:
                    # The flag went stale: earlier traces already
                    # claimed every virgin bit this one touches. The
                    # serial engine would run the pipeline and find
                    # compare.interesting False — exactly the cheap-path
                    # charge — so downgrade the trace. Clearing the base
                    # flag keeps any budget-driven replay decision
                    # intact across re-pricings.
                    front.flags[t] = False
                    base_replays[t] = False
                    replays[t] = budget is not None and totals[t] > budget
            return replays[t]

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
                    if replays[i] and still_replays(i):
                        self._run_mutant(front.batch.tobytes(i), seed,
                                         self._row_trace(front, i))
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
                            totals = batch_ops.total
                            if budget is not None:
                                replays = base_replays | (totals > budget)
                        self._record_curve()
                        i += 1
                    else:
                        # A stale flag met here joins the run (see the
                        # docstring). Traces past the exec cap never
                        # arrive, so the scan tests none of them.
                        scan_end = min(end, i + self.config.max_real_execs
                                       - self.execs)
                        j = i + 1
                        while j < scan_end and not (
                                replays[j] and still_replays(j)):
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

    def import_inputs(self, entries: Sequence[bytes]) -> List[bool]:
        """Run peers' queue entries; admit each that covers new ground.

        This is AFL's ``-M``/``-S`` corpus synchronization: the entries
        execute as one batch, then each is charged and triaged in order
        like any test case, and admitted at depth 0 with no parent. An
        import gets no hang check, curve sample, deadline or exec cap.
        Returns, per entry, whether it was admitted.
        """
        admitted = []
        for data, trace in zip(entries, self._traces(entries)):
            compare, shape, snapshot = self._pipeline(trace)
            cycles = self._charge(shape)
            new = trace.crash is None and compare.interesting
            if trace.crash is not None:
                self._handle_crash(trace)
            elif new:
                self._admit(data, cycles, 0, None, snapshot)
            admitted.append(bool(new))
        return admitted

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
