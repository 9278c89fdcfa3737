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
