"""Host benches of the target-executor substrate itself."""

import numpy as np
import pytest

from repro.fuzzer import Mutator
from repro.target import Executor, get_benchmark


@pytest.fixture(scope="module")
def sqlite_small():
    return get_benchmark("sqlite3").build(scale=0.1, seed_scale=0.05)


def test_executor_throughput(benchmark, sqlite_small):
    ex = Executor(sqlite_small.program)
    seed = sqlite_small.seeds[0]
    result = benchmark(lambda: ex.execute(seed))
    benchmark.extra_info["edges_per_exec"] = result.n_edges
    benchmark.extra_info["program_edges"] = sqlite_small.program.n_edges


def _one_mutant(mutator, keys, seed):
    return mutator.havoc_apply(
        [mutator.havoc_draw(keys.random_raw(), seed, 1)]).tobytes(0)


def test_havoc_throughput(benchmark, sqlite_small):
    mutator, keys = Mutator(), np.random.PCG64(0)
    seed = sqlite_small.seeds[0]
    benchmark(lambda: _one_mutant(mutator, keys, seed))


def _zlib_draws(energy):
    """A scheduling window as the batched engine builds one: 8 zlib
    draws of ``energy`` mutants each, every other one spliced."""
    built = get_benchmark("zlib").build(scale=0.5, seed_scale=0.2)
    mutator = Mutator(max_len=max(built.program.input_len * 4, 64))
    seeds, keys = built.seeds, np.random.PCG64(2)
    specs = [(keys.random_raw(), seeds[k % len(seeds)], energy,
              seeds[(k + 1) % len(seeds)] if k % 2 else None)
             for k in range(8)]
    return mutator, mutator.draw_rows(specs)


@pytest.fixture(scope="module")
def zlib_window():
    """A steady-state window: 8 draws of 128 mutants, 1,024 rows."""
    return _zlib_draws(128)


def test_havoc_window_throughput(benchmark, zlib_window):
    """One window's apply at the window width: the bulk mutation work
    of a batched campaign (``test_havoc_throughput`` times one row)."""
    mutator, draws = zlib_window
    batch = benchmark(lambda: mutator.havoc_apply(draws))
    benchmark.extra_info["rows"] = batch.n
    benchmark.extra_info["width"] = batch.width


def test_havoc_small_window_throughput(benchmark):
    """A window the size of a Figure 6 probe's: 8 draws of 16 mutants,
    128 rows. Each length-op step holds few rows, so its fixed cost and
    the scalar tail weigh more than in the 1,024-row window."""
    mutator, draws = _zlib_draws(16)
    batch = benchmark(lambda: mutator.havoc_apply(draws))
    benchmark.extra_info["rows"] = batch.n
    benchmark.extra_info["width"] = batch.width


def test_window_front_throughput(benchmark, zlib_window):
    """One window's front after havoc apply: execute the rows, read
    their dense key columns and flag them against the virgin map and
    BigMap index a zlib campaign's seed dry run left behind."""
    from repro.fuzzer import Campaign, CampaignConfig
    mutator, draws = zlib_window
    rows = mutator.havoc_apply(draws).data
    campaign = Campaign(CampaignConfig(
        benchmark="zlib", fuzzer="bigmap", map_size=1 << 16, scale=0.5,
        seed_scale=0.2))
    campaign.start()
    columns = campaign.instrumentation.columns

    def front():
        bres = campaign.executor.execute_batch(rows)
        return campaign.coverage.update_compare_batch(
            columns.window(bres), campaign.virgin)

    _, flags = benchmark(front)
    benchmark.extra_info["rows"] = int(flags.size)
    benchmark.extra_info["flagged"] = int(flags.sum())


def test_replay_throughput(benchmark):
    """Load one early window's flagged rows into the map, as replays
    do: each row's aggregated front segment goes straight into an 8 MB
    BigMap (reset, update, classify), with no flat cut, re-keying or
    re-aggregation. licm is large, so an early window flags almost
    every row and each carries thousands of keys."""
    from repro.fuzzer import Campaign, CampaignConfig
    campaign = Campaign(CampaignConfig(
        benchmark="licm", fuzzer="bigmap", map_size=1 << 23, scale=0.2,
        seed_scale=0.1, batch_window=1))
    campaign.start()
    specs, _, _ = campaign._collect_window()
    front = campaign._batch_front(specs)
    rows = np.flatnonzero(front.flags)
    coverage = campaign.coverage

    def replay():
        for i in rows:
            trace = campaign._row_trace(front, i)
            coverage.reset()
            coverage.update_aggregated(trace.keys, trace.summed)
            coverage.classify()

    benchmark(replay)
    benchmark.extra_info["rows"] = int(front.flags.size)
    benchmark.extra_info["flagged"] = int(rows.size)
    benchmark.extra_info["keys_per_row"] = round(
        float(np.mean(np.diff(front.update.offsets)[rows])), 1)


def test_full_pipeline_iteration(benchmark, sqlite_small):
    """Mutate + execute + map update + classify/compare: the real cost
    of one simulated fuzzing iteration on the host."""
    from repro.core import BigMapCoverage, VirginMap
    from repro.instrumentation import build_instrumentation
    program = sqlite_small.program
    ex = Executor(program)
    inst = build_instrumentation("afl-edge", program, 1 << 21)
    cov = BigMapCoverage(1 << 21)
    virgin = VirginMap(1 << 21)
    mutator, keys = Mutator(), np.random.PCG64(1)
    seed = sqlite_small.seeds[0]

    def iteration():
        data = _one_mutant(mutator, keys, seed)
        result = ex.execute(data)
        keys, counts = inst.keys_for(
            result, np.frombuffer(data, dtype=np.uint8))
        cov.reset()
        cov.update(keys, counts)
        return cov.classify_and_compare(virgin)
    benchmark(iteration)


def test_program_generation(benchmark):
    from repro.target import ProgramSpec, generate_program
    spec = ProgramSpec(name="bench", n_core_edges=10_000, seed=3,
                       magic_subtree_edges=2_000,
                       magic_subtree_count=8)
    program = benchmark.pedantic(generate_program, args=(spec,),
                                 rounds=3, iterations=1)
    assert program.n_edges >= 12_000


def test_lafintel_transform(benchmark):
    from repro.instrumentation import apply_lafintel
    from repro.target import ProgramSpec, generate_program
    program = generate_program(ProgramSpec(
        name="bench", n_core_edges=20_000, seed=4,
        magic_subtree_edges=5_000, magic_subtree_count=10,
        magic_leaf_edges=500))
    transformed = benchmark.pedantic(apply_lafintel, args=(program,),
                                     rounds=3, iterations=1)
    assert transformed.n_edges > program.n_edges
