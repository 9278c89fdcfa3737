"""Batched-vs-serial engine equivalence (the batch equivalence contract).

Batching is an execution strategy, not a semantic change: with the same
config and RNG seed, the batched :class:`Campaign` and the serial
reference engine (:class:`repro.fuzzer.oracle.SerialCampaign`) must
produce bit-identical campaigns — same executions, same admitted corpus,
same coverage curves, same charged cycles, same crash/hang records, and
byte-identical checkpoints. DESIGN.md documents why this holds; these
tests pin it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.mp import MPCampaign
from repro.fuzzer.oracle import SerialCampaign
from repro.target import get_benchmark


def _config(fuzzer, benchmark, *, rng_seed=3, **overrides):
    base = dict(benchmark=benchmark, fuzzer=fuzzer, map_size=1 << 16,
                scale=0.2, seed_scale=1.0, virtual_seconds=0.5,
                max_real_execs=3_000, rng_seed=rng_seed)
    base.update(overrides)
    return CampaignConfig(**base)


def _assert_seeds_equal(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.seed_id == sb.seed_id
        assert sa.data == sb.data
        assert sa.exec_cycles == sb.exec_cycles
        assert sa.coverage_hash == sb.coverage_hash
        assert np.array_equal(sa.covered_locations, sb.covered_locations)
        assert sa.depth == sb.depth
        assert sa.found_at == sb.found_at
        assert sa.parent_id == sb.parent_id
        assert sa.favored == sb.favored
        assert sa.fuzzed == sb.fuzzed


def assert_checkpoints_equal(a, b):
    assert a.clock_cycles == b.clock_cycles
    assert a.execs == b.execs
    assert a.hangs == b.hangs
    assert a.unique_hangs == b.unique_hangs
    assert a.next_seed_id == b.next_seed_id
    assert a.rng_state == b.rng_state
    _assert_seeds_equal(a.seeds, b.seeds)
    assert a.top_rated == b.top_rated
    assert a.scheduler_cursor == b.scheduler_cursor
    assert a.queue_cycles == b.queue_cycles
    assert np.array_equal(a.virgin, b.virgin)
    assert a.crash_records.keys() == b.crash_records.keys()
    assert np.array_equal(a.afl_crash_virgin, b.afl_crash_virgin)
    assert a.afl_unique_crashes == b.afl_unique_crashes
    assert np.array_equal(a.tmout_virgin, b.tmout_virgin)
    assert a.tmout_unique_crashes == b.tmout_unique_crashes
    assert a.op_cycles == b.op_cycles
    assert a.coverage_curve == b.coverage_curve
    assert a.next_sample == b.next_sample
    assert a.coverage_state.keys() == b.coverage_state.keys()
    for key in a.coverage_state:
        va, vb = a.coverage_state[key], b.coverage_state[key]
        if key == "touched":
            assert len(va) == len(vb)
            for ta, tb in zip(va, vb):
                assert np.array_equal(ta, tb)
        elif isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), key
        else:
            assert va == vb, key


def _run_pair(fuzzer, benchmark, **overrides):
    built = get_benchmark(benchmark).build(scale=0.2, seed_scale=1.0)
    config = _config(fuzzer, benchmark, **overrides)
    serial = SerialCampaign(config, built=built)
    batched = Campaign(config, built=built)
    rs = serial.run()
    rb = batched.run()
    return serial, batched, rs, rb


@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"], scope="class")
@pytest.mark.parametrize("bench", ["zlib", "libpng"], scope="class")
class TestBatchSerialEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, fuzzer, bench):
        """One serial/batched run per parameter pair, shared by the
        class's tests."""
        return _run_pair(fuzzer, bench)

    def test_results_bit_identical(self, pair):
        serial, batched, rs, rb = pair
        assert rs.execs == rb.execs
        assert rs.virtual_seconds == rb.virtual_seconds
        assert rs.corpus == rb.corpus
        assert rs.coverage_curve == rb.coverage_curve
        assert rs.crash_curve == rb.crash_curve
        assert rs.op_cycles == rb.op_cycles
        assert rs.discovered_locations == rb.discovered_locations
        assert rs.used_key == rb.used_key
        assert rs.unique_crashes == rb.unique_crashes
        assert rs.afl_unique_crashes == rb.afl_unique_crashes
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.interesting_execs == rb.interesting_execs
        assert rs.stopped_by == rb.stopped_by
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())

    def test_work_was_actually_found(self, pair):
        """Guard against vacuous equivalence: the workload must admit
        seeds (and exercise crash handling on libpng)."""
        serial, _, rs, _ = pair
        assert len(rs.corpus) > len(serial.built.seeds)


class TestBatchCoversDispatchPaths:
    def test_crash_dispatch_reached_and_identical(self):
        """The pair run must exercise crash triage — otherwise the
        equivalence above never tested the replay dispatch."""
        serial, batched, rs, rb = _run_pair(
            "bigmap", "zlib", rng_seed=1, virtual_seconds=1.0,
            max_real_execs=4_000)
        assert rs.unique_crashes > 0
        assert rs.unique_crashes == rb.unique_crashes
        assert rs.crash_curve == rb.crash_curve
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_hang_dispatch_reached_and_identical(self, fuzzer):
        """A tight hang budget forces the timeout path: the batched
        engine must predict hangs from the cheap-path cycle totals and
        replay them, matching the serial engine's verdicts exactly."""
        serial, batched, rs, rb = _run_pair(
            fuzzer, "zlib", rng_seed=2, hang_factor=1.5)
        assert rs.hangs > 0
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.corpus == rb.corpus
        assert rs.op_cycles == rb.op_cycles
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())


class TestBatchedTelemetryIdentity:
    def test_span_profile_and_events_match_serial(self):
        """Telemetry is part of the equivalence contract: the batched
        engine deposits the same per-exec span calls (execute,
        classify_compare, cost_eval), the same ``memsim.share.*``
        histograms and the same event stream the scalar pipeline
        records — every rendered artifact, ``metrics.json`` included,
        is byte-identical."""
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        recorders, results = [], []
        for engine in (SerialCampaign, Campaign):
            recorder = TelemetryRecorder(instance=0)
            results.append(engine(_config("bigmap", "zlib"), built=built,
                                  telemetry=recorder).run())
            recorders.append(recorder)
        assert results[0] == results[1]
        assert recorders[0].artifacts() == recorders[1].artifacts()
        profile = recorders[1].tracer.profile()
        execs = results[0].execs
        for name in ("execute", "classify_compare", "cost_eval"):
            assert profile[name]["calls"] == execs, name
        share = recorders[1].registry.snapshot()["memsim.share.core"]
        assert share["total"] == execs


class TestRandomizedCrossConfigSweep:
    """The equivalence contract over generated configurations: the
    fixed cases above pin known-tricky spots, this property guards the
    rest of the (fuzzer, benchmark, map_size, batch_window,
    curve_points, rng_seed) space. Dense curve grids put snapshot
    samples inside runs of cheap traces. Derandomized, so CI draws the
    same examples every run, and a failure shrinks to a minimal
    configuration."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(fuzzer=st.sampled_from(["afl", "bigmap"]),
           bench=st.sampled_from(["zlib", "libpng"]),
           map_size=st.sampled_from([1 << 14, 1 << 16, 1 << 18]),
           window=st.sampled_from([1, 2, 5, 8]),
           curve_points=st.sampled_from([60, 400]),
           rng_seed=st.integers(0, 999))
    def test_results_checkpoints_and_telemetry_identical(
            self, fuzzer, bench, map_size, window, curve_points, rng_seed):
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark(bench).build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, bench, map_size=map_size,
                         batch_window=window, curve_points=curve_points,
                         rng_seed=rng_seed)
        campaigns, results, artifacts = [], [], []
        for engine in (SerialCampaign, Campaign):
            recorder = TelemetryRecorder(instance=0)
            campaign = engine(config, built=built, telemetry=recorder)
            results.append(campaign.run())
            campaigns.append(campaign)
            artifacts.append(recorder.artifacts())
        rs, rb = results
        assert rs == rb
        assert artifacts[0] == artifacts[1]
        assert_checkpoints_equal(campaigns[0].snapshot(),
                                 campaigns[1].snapshot())


class _WindowRecording:
    """Mixin: records how many seeds each collected window held."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window_sizes = []

    def _collect_window(self):
        window = super()._collect_window()
        if window is not None:
            self.window_sizes.append(len(window[1]))
        return window


class _RecordingSerial(_WindowRecording, SerialCampaign):
    pass


class _RecordingBatched(_WindowRecording, Campaign):
    pass


@pytest.mark.parametrize("window", [2, 5, 8])
@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
class TestCrossSeedWindowEquivalence:
    """``batch_window`` is a semantic scheduling knob shared by every
    engine: for any window width the serial and batched engines must
    stay bit-identical (the cross-seed generalization of the
    equivalence contract)."""

    def test_results_and_checkpoints_identical(self, fuzzer, window):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib", batch_window=window)
        serial = _RecordingSerial(config, built=built)
        batched = _RecordingBatched(config, built=built)
        rs, rb = serial.run(), batched.run()
        # Guard against vacuous equivalence: the campaign must really
        # have scheduled multi-seed windows, on both engines.
        assert max(serial.window_sizes) > 1
        assert serial.window_sizes == batched.window_sizes
        assert rs == rb
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())


class TestCrossSeedHangAttribution:
    """Regression: hang prediction in a cross-seed mega-batch is
    per-trace and charged to the owning seed's portion. A tight hang
    budget plus multi-seed windows exercises predicted hangs landing in
    interior portions of the batch; every hang verdict, cycle charge
    and admitted seed's parentage must match the serial engine."""

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_hangs_attributed_identically_across_windows(self, fuzzer):
        serial, batched, rs, rb = _run_pair(
            fuzzer, "zlib", rng_seed=2, hang_factor=1.5,
            batch_window=5)
        assert rs.hangs > 0
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.op_cycles == rb.op_cycles
        sa, sb = serial.snapshot(), batched.snapshot()
        # The attribution fields specifically: every admitted seed's
        # cycle charge, parent and depth (checked field-by-field inside
        # the full checkpoint comparison).
        _assert_seeds_equal(sa.seeds, sb.seeds)
        assert_checkpoints_equal(sa, sb)


class _ReplayCounting:
    """Mixin: counts scalar-pipeline replays (``_run_mutant`` calls)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replays = 0

    def _run_mutant(self, *args, **kwargs):
        self.replays += 1
        return super()._run_mutant(*args, **kwargs)


class _CountingBatched(_ReplayCounting, Campaign):
    pass


class _CountingMP(_ReplayCounting, MPCampaign):
    pass


#: Campaign shapes the process backend must reproduce exactly: the
#: base bigmap window, a dictionary campaign (token stamps drawn in
#: the workers), a hang-heavy one (budget-driven replays of rows whose
#: trace the workers did not keep) and a flat-map AFL one.
MP_CONFIGS = {
    "bigmap": dict(fuzzer="bigmap", batch_window=8),
    "dictionary": dict(fuzzer="bigmap", batch_window=8,
                       use_dictionary=True),
    "hang-heavy": dict(fuzzer="bigmap", batch_window=5, rng_seed=2,
                       hang_factor=1.5),
    "afl": dict(fuzzer="afl", batch_window=8),
}


class TestMPBackendEquivalence:
    """The shared-memory process-pool backend is a pure execution
    strategy: results, checkpoints and telemetry must be bit-identical
    to the in-process batched engine for any worker count, and the
    parent must replay exactly the traces the in-process engine
    replays (stale flags are downgraded from the workers' sparse
    replay state, not re-executed)."""

    @pytest.mark.parametrize("shape", sorted(MP_CONFIGS))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_checkpoints_telemetry_identical(self, workers, shape):
        from repro.telemetry.recorder import TelemetryRecorder
        overrides = dict(MP_CONFIGS[shape])
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(overrides.pop("fuzzer"), "zlib", **overrides)

        ref_recorder = TelemetryRecorder(instance=0)
        reference = _CountingBatched(config, built=built,
                                     telemetry=ref_recorder)
        ref_result = reference.run()

        mp_recorder = TelemetryRecorder(instance=0)
        with _CountingMP(config, built=built, telemetry=mp_recorder,
                         workers=workers) as campaign:
            mp_result = campaign.run()
            mp_snapshot = campaign.snapshot()
            mp_replays = campaign.replays

        assert ref_result == mp_result
        assert ref_recorder.artifacts() == mp_recorder.artifacts()
        assert_checkpoints_equal(reference.snapshot(), mp_snapshot)
        assert reference.replays > 0
        assert mp_replays == reference.replays
        if shape == "hang-heavy":
            assert ref_result.hangs > 0

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_matches_the_serial_engine_too(self, fuzzer):
        """Transitivity spot-check straight against serial — the
        contract chains serial ≡ batched ≡ mp."""
        from repro.fuzzer.mp import MPCampaign
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib", batch_window=4)
        serial = SerialCampaign(config, built=built)
        rs = serial.run()
        with MPCampaign(config, built=built, workers=2) as campaign:
            rmp = campaign.run()
            mp_snapshot = campaign.snapshot()
        assert rs == rmp
        assert_checkpoints_equal(serial.snapshot(), mp_snapshot)

    def test_dictionary_campaign_matches_the_serial_engine(self):
        """The token stamp is drawn at schedule time and applied as a
        pure function of the draws, so a dictionary campaign chains
        serial ≡ batched ≡ mp like any other."""
        from repro.fuzzer.mp import MPCampaign
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("afl", "zlib", batch_window=3,
                         use_dictionary=True)
        serial = SerialCampaign(config, built=built)
        rs = serial.run()
        with MPCampaign(config, built=built, workers=2) as campaign:
            rmp = campaign.run()
            mp_snapshot = campaign.snapshot()
        assert rs == rmp
        assert_checkpoints_equal(serial.snapshot(), mp_snapshot)

    def test_rejects_zero_workers(self):
        from repro.core.errors import CampaignConfigError
        from repro.fuzzer.mp import MPCampaign
        with pytest.raises(CampaignConfigError, match="workers"):
            MPCampaign(_config("bigmap", "zlib"), workers=0)


class TestCheckpointResumeSweep:
    """Kill-at-every-tick: snapshot a straight-through campaign at
    several mid-campaign virtual times and resume each checkpoint —
    under the same backend and across backends — to the end. Every
    resumed final must be bit-identical to the straight run. Windows
    never outlive a ``step_until`` call, so a checkpoint taken between
    ticks only ever sees fully drained windows; this sweep is the
    regression net for resume inside a cross-seed scheduling regime."""

    TICKS = (0.1, 0.2, 0.3, 0.4)

    def _straight_run(self, campaign_factory, config):
        straight = campaign_factory(config)
        straight.start()
        checkpoints = []
        for tick in self.TICKS:
            straight.step_until(tick)
            checkpoints.append(straight.snapshot())
        straight.step_until(config.virtual_seconds)
        final = straight.finish()
        final_snapshot = straight.snapshot()
        self._close(straight)
        return checkpoints, final, final_snapshot

    @staticmethod
    def _close(campaign):
        if hasattr(campaign, "close"):
            campaign.close()

    def _resume_and_check(self, campaign_factory, config, tick_index,
                          checkpoint, final, final_snapshot):
        # A deadline stop is semantic (it discards the rest of a drawn
        # window), so the resumed campaign replays the driver's
        # remaining tick schedule, exactly as a restarted driver would.
        resumed = campaign_factory(config)
        resumed.start()
        resumed.restore(checkpoint)
        for tick in self.TICKS[tick_index + 1:]:
            resumed.step_until(tick)
        resumed.step_until(config.virtual_seconds)
        replay = resumed.finish()
        snapshot = resumed.snapshot()
        self._close(resumed)
        assert final == replay
        assert_checkpoints_equal(final_snapshot, snapshot)

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_every_tick_resumes_identically_in_process(self, fuzzer):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib", batch_window=5)
        factory = lambda cfg: Campaign(cfg, built=built)
        checkpoints, final, final_snapshot = self._straight_run(
            factory, config)
        for k, checkpoint in enumerate(checkpoints):
            self._resume_and_check(factory, config, k, checkpoint,
                                   final, final_snapshot)

    def test_every_tick_resumes_identically_across_backends(self):
        """A checkpoint is backend-agnostic: snapshots from the
        in-process engine resume under the mp backend and vice versa,
        landing on the same finals."""
        from repro.fuzzer.mp import MPCampaign
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("bigmap", "zlib", batch_window=5)
        inproc = lambda cfg: Campaign(cfg, built=built)
        mp = lambda cfg: MPCampaign(cfg, built=built, workers=2)

        checkpoints, final, final_snapshot = self._straight_run(
            inproc, config)
        for k, checkpoint in enumerate(checkpoints):
            self._resume_and_check(mp, config, k, checkpoint,
                                   final, final_snapshot)

        mp_checkpoints, mp_final, mp_final_snapshot = \
            self._straight_run(mp, config)
        assert final == mp_final
        for k, checkpoint in enumerate(mp_checkpoints):
            self._resume_and_check(inproc, config, k, checkpoint,
                                   mp_final, mp_final_snapshot)


class TestBatchedCheckpointResume:
    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_resume_replays_identically(self, fuzzer):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib")
        straight = Campaign(config, built=built)
        straight.start()
        straight.step_until(0.25)
        mid = straight.snapshot()
        straight.step_until(config.virtual_seconds)
        final = straight.finish()

        resumed = Campaign(config, built=built)
        resumed.start()
        resumed.restore(mid)
        resumed.step_until(config.virtual_seconds)
        replay = resumed.finish()

        assert final.execs == replay.execs
        assert final.corpus == replay.corpus
        assert final.coverage_curve == replay.coverage_curve
        assert final.op_cycles == replay.op_cycles
        assert_checkpoints_equal(straight.snapshot(), resumed.snapshot())
