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
"""

import pytest

from repro.fuzzer import Campaign
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
