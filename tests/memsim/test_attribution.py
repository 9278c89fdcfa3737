"""Per-level cycle attribution: the telemetry-facing decomposition of
``exec_cycles`` must account for every cycle exactly, across every
pricing branch of the model."""

import itertools

import numpy as np
import pytest

from repro.memsim import (AFL, BIGMAP, BitmapCostModel, ExecShape,
                          MapCostConfig)

LEVEL_KEYS = ("core", "l1d", "l2", "llc", "dram", "tlb")

SHAPES = (
    ExecShape(traversals=16_000, unique_locations=9_000,
              used_bytes=30_000),
    ExecShape(traversals=400, unique_locations=250, used_bytes=900,
              interesting=True, hash_bytes=900),
)


def variants():
    for kind, size, merged, nt, huge in itertools.product(
            (AFL, BIGMAP), (1 << 16, 1 << 23), (True, False),
            (True, False), (True, False)):
        yield BitmapCostModel(MapCostConfig(
            kind, size, merged_classify_compare=merged,
            non_temporal_reset=nt, huge_pages=huge))


@pytest.mark.parametrize("shape", SHAPES)
def test_attribution_sums_to_exec_cycles_total(shape):
    for model in variants():
        attribution = model.cycle_attribution(shape)
        assert set(attribution) == set(LEVEL_KEYS)
        assert all(v >= 0.0 for v in attribution.values())
        total = model.exec_cycles(shape).total
        assert sum(attribution.values()) == pytest.approx(
            total, rel=1e-12), model.config


def test_level_share_normalizes():
    model = BitmapCostModel(MapCostConfig(AFL, 1 << 23))
    share = model.level_share(SHAPES[0])
    assert set(share) == set(LEVEL_KEYS)
    assert sum(share.values()) == pytest.approx(1.0)
    assert all(0.0 <= v <= 1.0 for v in share.values())


def test_afl_large_map_attribution_leaves_core():
    """Figure 3's story in attribution form: at 8M the AFL sweeps are
    priced out of cache, so dram + llc must carry real weight."""
    small = BitmapCostModel(MapCostConfig(AFL, 1 << 16))
    large = BitmapCostModel(MapCostConfig(AFL, 1 << 23))
    shape = SHAPES[0]
    small_share = small.level_share(shape)
    large_share = large.level_share(shape)
    assert large_share["dram"] + large_share["llc"] > \
        small_share["dram"] + small_share["llc"]


def test_non_temporal_reset_moves_reset_to_dram():
    shape = SHAPES[0]
    nt = BitmapCostModel(MapCostConfig(
        AFL, 1 << 23, non_temporal_reset=True))
    plain = BitmapCostModel(MapCostConfig(
        AFL, 1 << 23, non_temporal_reset=False))
    assert nt.cycle_attribution(shape)["dram"] > 0.0
    # NT stores bypass the hierarchy: totals still fully accounted.
    assert sum(nt.cycle_attribution(shape).values()) == pytest.approx(
        nt.exec_cycles(shape).total, rel=1e-12)
    assert sum(plain.cycle_attribution(shape).values()) == pytest.approx(
        plain.exec_cycles(shape).total, rel=1e-12)


#: Distinct-location counts whose BigMap working sets land in L2, the
#: LLC and DRAM, so the per-row index-scatter level varies in a batch.
BATCH_UNIQUE = np.array([0, 120, 2_500, 60_000, 400_000], dtype=np.int64)
BATCH_TRAVERSALS = np.array([7, 300, 9_000, 150_000, 900_000],
                            dtype=np.int64)


@pytest.mark.parametrize("kind", [AFL, BIGMAP])
@pytest.mark.parametrize("map_size", [1 << 16, 1 << 20, 1 << 23])
@pytest.mark.parametrize("nt", [True, False])
@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("interesting", [True, False])
def test_batch_rows_match_single_row_calls(kind, map_size, nt, merged,
                                           interesting):
    """Row i of the array attribution (and of the shares) equals the
    single-execution call on that row, bit for bit."""
    model = BitmapCostModel(MapCostConfig(
        kind, map_size, merged_classify_compare=merged,
        non_temporal_reset=nt))
    coverage = dict(used_bytes=4096, interesting=interesting,
                    hash_bytes=2048 if interesting else 0)
    shapes = [ExecShape(int(t), int(u), **coverage)
              for t, u in zip(BATCH_TRAVERSALS, BATCH_UNIQUE)]
    if kind == BIGMAP:
        sizes = [lvl.size_bytes for lvl in model.machine.levels]
        levels = np.searchsorted(
            sizes, [model.working_set_bytes(s) for s in shapes])
        assert len(set(levels.tolist())) >= 3
    attribution = model.cycle_attribution_batch(
        BATCH_TRAVERSALS, BATCH_UNIQUE, **coverage)
    shares = model.level_share_batch(
        BATCH_TRAVERSALS, BATCH_UNIQUE, **coverage)
    for i, shape in enumerate(shapes):
        row = model.cycle_attribution(shape)
        share = model.level_share(shape)
        assert {k: v[i].hex() for k, v in attribution.items()} == \
            {k: v.hex() for k, v in row.items()}
        assert {k: v[i].hex() for k, v in shares.items()} == \
            {k: v.hex() for k, v in share.items()}
