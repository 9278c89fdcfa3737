"""Both window-front paths under the batch equivalence contract.

The batched engine feeds its classify/compare kernel one of two key
forms: dense key columns read straight from the executor's reach matrix
(edge-table metrics) or flat key segments gathered row by row
(input-dependent metrics). Each shape here pins one path, serial ==
batched == mp(2) on results, checkpoints and telemetry artifacts:

* ``flat-ngram3-lafintel``: an input-dependent metric on a laf-intel
  target, the only shape that runs the flat front in a campaign;
* ``dense-collisions``: afl-edge on a 256-byte map, where collision
  groups (loop edges included) make up a large share of the columns.

:class:`TestSegmentReplayProperty` pins what replays rely on: a flagged
row's front segment loads into a map exactly as its flat trace does.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BigMapCoverage
from repro.core.bitmap_base import BatchUpdate, aggregate_keys
from repro.fuzzer import Campaign, CampaignConfig
from repro.fuzzer.mp import MPCampaign
from repro.fuzzer.oracle import SerialCampaign
from repro.instrumentation.edge_ids import EdgeTableInstrumentation
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder

from tests.fuzzer.test_batch_engine import _config, assert_checkpoints_equal

SHAPES = {
    "flat-ngram3-lafintel": dict(fuzzer="afl", metric="ngram3",
                                 lafintel=True),
    "dense-collisions": dict(fuzzer="bigmap", map_size=1 << 8),
}


def _mp2(config, built, telemetry):
    return MPCampaign(config, built=built, telemetry=telemetry, workers=2)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_serial_batched_mp_identical(shape):
    overrides = dict(SHAPES[shape])
    built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
    config = _config(overrides.pop("fuzzer"), "zlib", batch_window=4,
                     max_real_execs=1_500, **overrides)
    runs = []
    for engine in (SerialCampaign, Campaign, _mp2):
        recorder = TelemetryRecorder(instance=0)
        campaign = engine(config, built=built, telemetry=recorder)
        try:
            result = campaign.run()
            runs.append((result, campaign.snapshot(),
                         recorder.artifacts()))
        finally:
            if isinstance(campaign, MPCampaign):
                campaign.close()

    dense = isinstance(campaign.instrumentation, EdgeTableInstrumentation)
    assert dense == (shape == "dense-collisions")
    if dense:
        # Guard against a vacuous shape: collision groups holding loop
        # edges are present.
        columns = campaign.instrumentation.columns
        assert (columns.member_hits >= 0).any()
    (rs, ss, as_), *others = runs
    assert len(rs.corpus) > len(built.seeds)
    for result, snapshot, artifacts in others:
        assert result == rs
        assert artifacts == as_
        assert_checkpoints_equal(ss, snapshot)


@pytest.fixture(scope="module")
def zlib():
    return get_benchmark("zlib").build(scale=0.2, seed_scale=0.5)


def _first_front(built, fuzzer, metric, map_bits, rng_seed, batch_window):
    """A campaign after its seed dry run, and the front of its first
    window: virgin and BigMap's index are partly filled, and the
    window's rows are flagged against them."""
    campaign = Campaign(CampaignConfig(
        benchmark="zlib", fuzzer=fuzzer, metric=metric,
        map_size=1 << map_bits, scale=0.2, seed_scale=0.5,
        rng_seed=rng_seed, batch_window=batch_window), built=built)
    campaign.start()
    specs, _, _ = campaign._collect_window()
    return campaign, campaign._batch_front(specs)


def _map_state(cov, n_unique):
    """Everything loading one trace leaves behind in a coverage map."""
    state = dict(n_unique=n_unique, hash=cov.hash(),
                 nonzero=cov.nonzero_locations().tolist())
    if isinstance(cov, BigMapCoverage):
        state.update(cov=cov.cov.tobytes(), index=cov.index.tobytes(),
                     used_key=cov.used_key)
    else:
        # dtype too: checkpoints pickle the touched-key arrays.
        state.update(trace=cov.trace.tobytes(),
                     touched=[(t.dtype.str, t.tobytes())
                              for t in cov._touched])
    return state


def _segment_mismatches(campaign, front, segment):
    """Flagged rows whose ``segment(front.update, i)`` leaves a map
    other than ``keys_for`` + ``update`` on the row's flat trace does.

    Two copies of the campaign's map load the flagged rows in window
    order (reset, load, classify, as a replay does), so BigMap's index
    grows row by row on both sides."""
    loaded = copy.deepcopy(campaign.coverage)
    reference = copy.deepcopy(campaign.coverage)
    bad = []
    for i in np.flatnonzero(front.flags):
        loaded.reset()
        n_loaded = loaded.update_aggregated(*segment(front.update, i))
        loaded.classify()
        keys, counts = campaign.instrumentation.keys_for(
            front.bres.result_for(i), front.batch.row(i))
        reference.reset()
        n_reference = reference.update(keys, counts)
        reference.classify()
        if _map_state(loaded, n_loaded) != _map_state(reference,
                                                       n_reference):
            bad.append(int(i))
    return bad


def _off_by_one(update, i):
    """A seeded bug: row ``i``'s segment shifted one entry right."""
    lo, hi = int(update.offsets[i]) + 1, int(update.offsets[i + 1]) + 1
    return update.keys[lo:hi], update.summed[lo:hi]


class TestSegmentReplayProperty:
    """A replayed row loads its front segment instead of re-keying and
    re-aggregating its flat trace; the map must not tell the
    difference. Maps of 2^10 bytes make many keys collide; BigMap's
    fresh slots must come out in the same order (ascending key, which
    is segment order), and AFL's touched-key arrays keep their
    ``int64`` dtype."""

    @given(fuzzer=st.sampled_from(["afl", "bigmap"]),
           metric=st.sampled_from(["afl-edge", "ngram3"]),
           map_bits=st.integers(10, 16),
           rng_seed=st.integers(0, 2**16),
           batch_window=st.integers(1, 4))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_segment_loads_like_flat_trace(self, zlib, fuzzer, metric,
                                           map_bits, rng_seed, batch_window):
        campaign, front = _first_front(zlib, fuzzer, metric, map_bits,
                                       rng_seed, batch_window)
        assert front.flags.any()
        assert _segment_mismatches(campaign, front,
                                   BatchUpdate.segment) == []
        # Every row, segment or not, reaches the map as the serial
        # engine's aggregate of its flat trace.
        for i in range(front.bres.n):
            result = front.bres.result_for(i)
            keys, summed = aggregate_keys(*campaign.instrumentation.keys_for(
                result, front.batch.row(i)))
            trace = campaign._row_trace(front, i)
            assert trace.keys.dtype == keys.dtype == np.int64
            assert np.array_equal(trace.keys, keys), f"row {i}"
            assert np.array_equal(trace.summed, summed), f"row {i}"
            assert trace.traversals == result.traversals
            assert trace.crash == result.crash

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    @pytest.mark.parametrize("metric", ["afl-edge", "ngram3"])
    def test_off_by_one_segment_is_caught(self, zlib, fuzzer, metric):
        campaign, front = _first_front(zlib, fuzzer, metric, 10, 3, 2)
        assert _segment_mismatches(campaign, front, _off_by_one)
