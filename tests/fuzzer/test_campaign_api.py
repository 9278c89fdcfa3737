"""Tests for the stepping/import campaign API and paper-level claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import Campaign, CampaignConfig, run_campaign
from repro.telemetry.recorder import TelemetryRecorder
from repro.target import get_benchmark
from tests.fuzzer.test_batch_engine import assert_checkpoints_equal

#: Entries the batch-split property draws from: six donor queue
#: entries, the empty input and one crashing input.
POOL_SIZE = 8


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.3, seed_scale=1.0)


@pytest.fixture(scope="module")
def import_pool(built):
    """Peer entries to import: a longer campaign's queue entries, the
    empty input, and the first mutant that campaign saw crash."""
    crashes = []

    class Recording(Campaign):
        def _run_mutant(self, mutant, seed, trace):
            if trace.crash is not None:
                crashes.append(mutant)
            super()._run_mutant(mutant, seed, trace)

    corpus = Recording(config(rng_seed=1), built=built).run().corpus
    assert len(corpus) >= 6 and crashes
    return corpus[-6:] + [b"", crashes[0]]


def config(**kwargs):
    defaults = dict(benchmark="libpng", fuzzer="bigmap",
                    map_size=1 << 16, scale=0.3, seed_scale=1.0,
                    virtual_seconds=1.0, max_real_execs=3_000,
                    rng_seed=7)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestSteppingApi:
    def test_step_until_requires_start(self, built):
        campaign = Campaign(config(), built=built)
        with pytest.raises(RuntimeError):
            campaign.step_until(0.5)

    def test_start_idempotent(self, built):
        campaign = Campaign(config(), built=built)
        campaign.start()
        execs = campaign.execs
        campaign.start()
        assert campaign.execs == execs

    def test_step_until_respects_deadline(self, built):
        campaign = Campaign(config(max_real_execs=1_000_000),
                            built=built)
        campaign.start()
        campaign.step_until(0.3)
        assert campaign.clock.seconds >= 0.3
        assert campaign.clock.seconds < 0.4  # one batch overshoot max

    def test_sliced_equals_total_budget(self, built):
        """Running in slices covers the same budget as one run.

        Slicing may cut an energy batch early (the next slice picks a
        fresh seed), so outcomes are statistically — not bitwise —
        equivalent."""
        whole = Campaign(config(), built=built)
        result_whole = whole.run()
        sliced = Campaign(config(), built=built)
        sliced.start()
        for deadline in np.linspace(0.2, 1.0, 5):
            sliced.step_until(float(deadline))
        result_sliced = sliced.finish()
        assert result_sliced.execs == result_whole.execs
        assert result_sliced.discovered_locations == pytest.approx(
            result_whole.discovered_locations, rel=0.1)

    def test_import_input_admits_new_coverage(self, built):
        donor = Campaign(config(rng_seed=1), built=built)
        donor_result = donor.run()
        receiver = Campaign(config(
            rng_seed=2, virtual_seconds=0.05, max_real_execs=200),
            built=built)
        receiver.start()
        before = len(receiver.pool)
        admitted = sum(receiver.import_inputs(donor_result.corpus))
        assert len(receiver.pool) == before + admitted
        # The receiver must learn something from a longer campaign.
        assert admitted > 0

    def test_import_duplicate_rejected(self, built):
        campaign = Campaign(config(virtual_seconds=0.05,
                                   max_real_execs=200), built=built)
        campaign.start()
        seed_data = campaign.pool.seeds[0].data
        assert campaign.import_inputs([seed_data]) == [False]


class TestPaperClaims:
    def test_collisions_alias_map_locations_not_edges(self, built):
        """§V-B2, reproduced: *edge coverage* is relatively insensitive
        to collisions (bucketing blunts them), but the *map view*
        under-counts — at a 256-byte map, distinct lit locations are
        far fewer than the true edges the corpus covers."""
        tiny = run_campaign(config(
            map_size=1 << 8, compute_true_coverage=True), built=built)
        roomy = run_campaign(config(
            map_size=1 << 16, compute_true_coverage=True), built=built)
        # Map-space undercount at the tiny map (heavy aliasing).
        assert tiny.discovered_locations < tiny.true_edge_coverage
        # True coverage is within normal campaign variance of the
        # big-map run (the insensitivity claim).
        assert tiny.true_edge_coverage == pytest.approx(
            roomy.true_edge_coverage, rel=0.25)
        # The roomy map barely aliases.
        assert roomy.discovered_locations >= \
            0.9 * roomy.true_edge_coverage

    def test_bigmap_used_key_tracks_expected_distinct(self, built):
        """used_key converges toward Equation 1's expected distinct
        keys for the realized pressure."""
        from repro.analysis import expected_distinct_keys
        result = run_campaign(config(map_size=1 << 12), built=built)
        # Pressure: distinct true edges found (≈ distinct raw keys).
        pressure = result.true_edge_coverage or \
            result.discovered_locations
        expected = expected_distinct_keys(1 << 12, max(pressure, 1))
        assert result.used_key <= (1 << 12)
        assert result.used_key == pytest.approx(expected, rel=0.4)

    def test_interesting_rate_decays(self, built):
        """Discovery slows over a campaign: the second half of the
        coverage curve grows less than the first half."""
        result = run_campaign(config(virtual_seconds=2.0,
                                     max_real_execs=6_000), built=built)
        curve = result.coverage_curve
        assert len(curve) >= 4
        mid = len(curve) // 2
        first_growth = curve[mid][1] - curve[0][1]
        second_growth = curve[-1][1] - curve[mid][1]
        assert second_growth <= first_growth


class TestImportBatches:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(picks=st.lists(st.integers(0, POOL_SIZE - 1), min_size=1,
                          max_size=10),
           cuts=st.sets(st.integers(1, 9)))
    def test_batch_split_is_invisible(self, built, import_pool, picks,
                                      cuts):
        """Importing entries as one batch equals importing them as
        consecutive smaller batches, for any split: the same admitted
        flags, result, checkpoint and telemetry artifacts. Picks repeat
        entries, so duplicates, the empty input and the crash recur."""
        entries = [import_pool[k] for k in picks]
        bounds = [0] + sorted(c for c in cuts if c < len(entries)) \
            + [len(entries)]
        campaigns, recorders, flags = [], [], []
        for batches in ([entries], [entries[lo:hi] for lo, hi
                                    in zip(bounds, bounds[1:])]):
            recorder = TelemetryRecorder(instance=0)
            campaign = Campaign(config(
                rng_seed=2, virtual_seconds=0.05, max_real_execs=200),
                built=built, telemetry=recorder)
            campaign.start()
            flags.append([flag for batch in batches
                          for flag in campaign.import_inputs(batch)])
            campaigns.append(campaign)
            recorders.append(recorder)
        assert flags[0] == flags[1]
        assert len(flags[0]) == len(entries)
        assert_checkpoints_equal(campaigns[0].snapshot(),
                                 campaigns[1].snapshot())
        assert campaigns[0].finish() == campaigns[1].finish()
        assert recorders[0].artifacts() == recorders[1].artifacts()

    def test_empty_batch_is_a_no_op(self, built):
        campaign = Campaign(config(virtual_seconds=0.05,
                                   max_real_execs=200), built=built)
        campaign.start()
        execs, cycles = campaign.execs, campaign.clock.cycles
        assert campaign.import_inputs([]) == []
        assert (campaign.execs, campaign.clock.cycles) == (execs, cycles)
