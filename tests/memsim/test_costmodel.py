"""Unit tests for the analytical bitmap cost model."""

import pytest

from repro.core.errors import CalibrationError
from repro.memsim import (AFL, BIGMAP, BitmapCostModel, ExecShape,
                          MapCostConfig, XEON_E5645)

SHAPE = ExecShape(traversals=16_000, unique_locations=9_000,
                  used_bytes=30_000)
SMALL_SHAPE = ExecShape(traversals=400, unique_locations=250,
                        used_bytes=900)


def model(kind, map_size, **kwargs):
    defaults = dict(merged_classify_compare=True, huge_pages=True)
    defaults.update({k: v for k, v in kwargs.items()
                     if k in ("merged_classify_compare",
                              "non_temporal_reset", "huge_pages")})
    model_kwargs = {k: v for k, v in kwargs.items()
                    if k not in defaults}
    return BitmapCostModel(MapCostConfig(kind, map_size, **defaults),
                           **model_kwargs)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(CalibrationError):
            MapCostConfig("hashmap", 1 << 16)

    def test_bad_size(self):
        with pytest.raises(CalibrationError):
            MapCostConfig(AFL, 0)

    def test_negative_cost_params(self):
        with pytest.raises(CalibrationError):
            BitmapCostModel(MapCostConfig(AFL, 1 << 16),
                            exec_base_cycles=-1)


class TestWorkingSets:
    def test_afl_working_set_scales_with_map(self):
        small = model(AFL, 1 << 16).working_set_bytes(SHAPE)
        big = model(AFL, 1 << 23).working_set_bytes(SHAPE)
        assert big - small == 2 * ((1 << 23) - (1 << 16))

    def test_bigmap_working_set_independent_of_map(self):
        small = model(BIGMAP, 1 << 16).working_set_bytes(SHAPE)
        big = model(BIGMAP, 1 << 23).working_set_bytes(SHAPE)
        assert small == big

    def test_bigmap_working_set_tracks_used(self):
        lightly = model(BIGMAP, 1 << 21).working_set_bytes(SMALL_SHAPE)
        heavily = model(BIGMAP, 1 << 21).working_set_bytes(SHAPE)
        assert heavily > lightly


class TestThroughputShape:
    """The paper's central claims, at the model level."""

    def test_afl_cost_grows_with_map_size(self):
        costs = [model(AFL, size).exec_cycles(SHAPE).total
                 for size in (1 << 16, 1 << 18, 1 << 21, 1 << 23)]
        assert costs == sorted(costs)
        assert costs[-1] > 10 * costs[0]

    def test_bigmap_cost_flat_across_map_sizes(self):
        costs = [model(BIGMAP, size).exec_cycles(SHAPE).total
                 for size in (1 << 16, 1 << 18, 1 << 21, 1 << 23)]
        assert max(costs) / min(costs) < 1.05

    def test_afl_sweeps_full_map_regardless_of_usage(self):
        """Table I-a: AFL's reset, classify, compare and hash sweep the
        whole map, however little of it the campaign has used."""
        m = model(AFL, 1 << 21, merged_classify_compare=False)

        def ops(used_bytes):
            return m.exec_cycles(ExecShape(
                traversals=SHAPE.traversals,
                unique_locations=SHAPE.unique_locations,
                used_bytes=used_bytes, interesting=True,
                hash_bytes=used_bytes))

        light, heavy = ops(1), ops(1 << 20)
        for name in ("reset", "classify", "compare", "hash"):
            assert getattr(light, name) == getattr(heavy, name) > 0.0

    def test_bigmap_cost_tracks_used_not_map(self):
        m = model(BIGMAP, 1 << 23)
        light = m.exec_cycles(SMALL_SHAPE).total
        heavy = m.exec_cycles(SHAPE).total
        assert heavy > light

    def test_sweep_ops_dominate_afl_at_8m(self):
        ops = model(AFL, 1 << 23).exec_cycles(SHAPE)
        map_ops = ops.reset + ops.classify + ops.compare
        assert map_ops > ops.execution

    def test_map_ops_negligible_at_64k(self):
        ops = model(AFL, 1 << 16,
                    exec_base_cycles=400_000).exec_cycles(SHAPE)
        map_ops = ops.reset + ops.classify + ops.compare
        assert map_ops < 0.2 * ops.total

    def test_hash_priced_only_when_interesting(self):
        m = model(AFL, 1 << 21)
        boring = m.exec_cycles(SHAPE)
        interesting = m.exec_cycles(ExecShape(
            traversals=SHAPE.traversals,
            unique_locations=SHAPE.unique_locations,
            used_bytes=SHAPE.used_bytes, interesting=True))
        assert boring.hash == 0.0
        assert interesting.hash > 0.0

    def test_bigmap_hash_covers_used_region_only(self):
        big = model(BIGMAP, 1 << 23).exec_cycles(ExecShape(
            traversals=100, unique_locations=50, used_bytes=10_000,
            interesting=True, hash_bytes=10_000))
        afl = model(AFL, 1 << 23).exec_cycles(ExecShape(
            traversals=100, unique_locations=50, interesting=True))
        assert big.hash < afl.hash / 10


class TestOptimizations:
    def test_merged_classify_compare_cheaper(self):
        merged = model(AFL, 1 << 21,
                       merged_classify_compare=True).exec_cycles(SHAPE)
        split = model(AFL, 1 << 21,
                      merged_classify_compare=False).exec_cycles(SHAPE)
        assert merged.classify == 0.0
        assert split.classify > 0.0
        assert merged.total < split.total

    def test_non_temporal_reset_helps_dram_bound_afl(self):
        nt = model(AFL, 1 << 23, non_temporal_reset=True)
        normal = model(AFL, 1 << 23, non_temporal_reset=False)
        assert nt.exec_cycles(SHAPE).reset < \
            normal.exec_cycles(SHAPE).reset

    def test_non_temporal_reset_hurts_cache_resident_afl(self):
        nt = model(AFL, 1 << 16, non_temporal_reset=True)
        normal = model(AFL, 1 << 16, non_temporal_reset=False)
        assert nt.exec_cycles(SMALL_SHAPE).reset > \
            normal.exec_cycles(SMALL_SHAPE).reset

    def test_huge_pages_remove_tlb_penalty(self):
        huge = model(AFL, 1 << 23, huge_pages=True).exec_cycles(SHAPE)
        small = model(AFL, 1 << 23, huge_pages=False).exec_cycles(SHAPE)
        assert small.total > huge.total

    def test_indirection_costs_bigmap_per_traversal(self):
        cheap = BitmapCostModel(MapCostConfig(BIGMAP, 1 << 21),
                                indirection_cycles=0.0)
        costly = BitmapCostModel(MapCostConfig(BIGMAP, 1 << 21),
                                 indirection_cycles=5.0)
        delta = costly.exec_cycles(SHAPE).execution - \
            cheap.exec_cycles(SHAPE).execution
        assert delta == pytest.approx(5.0 * SHAPE.traversals)


class TestDramTraffic:
    def test_no_traffic_when_resident(self):
        assert model(AFL, 1 << 16).dram_bytes_per_exec(SMALL_SHAPE) == 0
        assert model(BIGMAP, 1 << 23).dram_bytes_per_exec(SHAPE) == 0

    def test_traffic_when_working_set_overflows(self):
        traffic = model(AFL, 1 << 23).dram_bytes_per_exec(SHAPE)
        assert traffic > 4 * (1 << 23)

    def test_throughput_inverse_of_cycles(self):
        m = model(AFL, 1 << 21)
        rate = m.throughput(SHAPE)
        assert rate == pytest.approx(
            XEON_E5645.frequency_hz / m.exec_cycles(SHAPE).total)


class TestExecCyclesBatch:
    """exec_cycles_batch must be bit-identical to per-shape exec_cycles."""

    CONFIGS = [
        dict(kind=AFL, map_size=1 << 16),
        dict(kind=AFL, map_size=1 << 23, huge_pages=False,
             non_temporal_reset=True),
        dict(kind=AFL, map_size=1 << 21, merged_classify_compare=False),
        dict(kind=BIGMAP, map_size=1 << 23),
        dict(kind=BIGMAP, map_size=1 << 26, huge_pages=False),
        dict(kind=BIGMAP, map_size=1 << 21,
             merged_classify_compare=False),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS,
                             ids=lambda c: f"{c['kind']}-{c['map_size']}")
    @pytest.mark.parametrize("used_bytes", [0, 900, 30_000, 1 << 21])
    def test_bit_identical_to_scalar(self, cfg, used_bytes):
        import numpy as np
        m = model(cfg["kind"], cfg["map_size"],
                  **{k: v for k, v in cfg.items()
                     if k not in ("kind", "map_size")})
        rng = np.random.default_rng(7)
        trav = rng.integers(0, 200_000, size=64)
        uniq = rng.integers(0, 50_000, size=64)
        batch = m.exec_cycles_batch(trav, uniq, used_bytes=used_bytes)
        totals = batch.total
        for i in range(64):
            ref = m.exec_cycles(ExecShape(
                traversals=int(trav[i]),
                unique_locations=int(uniq[i]),
                used_bytes=used_bytes))
            column = batch.columns(i, i + 1)[:, 0].tolist()
            assert column == list(ref.as_dict().values()), f"row {i}"
            assert ref.hash == 0.0
            assert float(totals[i]) == ref.total, f"row {i} total"

    def test_fork_overhead_included(self):
        import numpy as np
        m = BitmapCostModel(MapCostConfig(AFL, 1 << 16),
                            fork_overhead_cycles=600_000.0)
        batch = m.exec_cycles_batch(np.array([100]), np.array([50]))
        ref = m.exec_cycles(ExecShape(traversals=100,
                                      unique_locations=50))
        assert batch.columns(0, 1)[0, 0] == ref.execution
