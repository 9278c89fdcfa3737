"""Golden digests of the pricing, execution and havoc kernels.

The scalar entry points (``BitmapCostModel.exec_cycles``,
``Executor.execute``) are one-row calls of the batch kernels. These
digests were recorded from the earlier, separately written scalar and
batch implementations, so any float or trace drift in the shared
kernels shows up here even where a campaign would not happen to reach
the drifted case.

The serial oracle, the batched engine and the process backend all call
the same :meth:`Mutator.havoc_apply`, so their equivalence checks cannot
see a change in the mutant bytes themselves. :data:`HAVOC_GOLDEN` pins
them: it was recorded from the apply kernel before its span-clipping
rewrite.
"""

import hashlib

import numpy as np

from repro.fuzzer.mutation import _SCALAR_STEP_CUTOFF, Mutator
from repro.memsim.costmodel import (AFL, BIGMAP, BitmapCostModel,
                                    ExecShape, MapCostConfig)
from repro.target import NO_CRASH, NO_PARENT, Executor, Guard, get_benchmark

#: sha256 over every priced case of :func:`pricing_digest`.
PRICING_GOLDEN = (
    "701e6d7b329534b7409f8deafe5e2520a4b85d7cf0faa9fe26ee9af848fc2e6e")
#: sha256 over every trace of :func:`execute_digest`.
EXECUTE_GOLDEN = (
    "6a4e4f2867628f0d0664c35798954cd00a626044d40fa00337a54d6ac401ccc6")
#: sha256 over every batch of :func:`havoc_digest`.
HAVOC_GOLDEN = (
    "28401334decad09f611fc09bd4f94f558bc542bf54b2a11153ac25c953dc7b24")

#: Most mutants per draw in :func:`havoc_windows`, one value per window
#: set: the smallest windows finish in the scalar tail at once, the
#: largest run several vectorized steps first.
HAVOC_ROWS = (3, 24, 192)

MAP_SIZES = (1 << 16, 1 << 18, 1 << 21, 1 << 23)
#: (benchmark, scale): big enough to hold loops and crash sites.
BENCHMARKS = (("zlib", 0.2), ("libpng", 0.2), ("sqlite3", 0.05))


def cost_configs():
    """Both fuzzers x 4 map sizes x the three §IV-E options x fork."""
    for kind in (AFL, BIGMAP):
        for map_size in MAP_SIZES:
            for merged in (True, False):
                for nt in (False, True):
                    for huge in (True, False):
                        for fork in (0.0, 600_000.0):
                            yield BitmapCostModel(
                                MapCostConfig(
                                    kind, map_size,
                                    merged_classify_compare=merged,
                                    non_temporal_reset=nt,
                                    huge_pages=huge),
                                fork_overhead_cycles=fork)


def pricing_digest() -> str:
    rng = np.random.default_rng(20211)
    digest = hashlib.sha256()
    for model in cost_configs():
        trav = rng.integers(0, 300_000, size=24)
        uniq = rng.integers(0, 60_000, size=24)
        uniq[:2] = 0
        used = int(rng.choice([0, 900, 30_000, 1 << 21,
                               int(rng.integers(1, 1 << 22))]))
        for i in range(trav.size):
            interesting = bool(i % 3 == 0)
            hash_bytes = int(rng.integers(0, used + 1)) if i % 2 else 0
            ops = model.exec_cycles(ExecShape(
                traversals=int(trav[i]), unique_locations=int(uniq[i]),
                used_bytes=used, interesting=interesting,
                hash_bytes=hash_bytes))
            digest.update(np.array(
                [*ops.as_dict().values(), ops.total],
                dtype="<f8").tobytes())
        batch = model.exec_cycles_batch(trav, uniq, used_bytes=used)
        digest.update(np.asarray(batch.columns(0, trav.size),
                                 dtype="<f8").tobytes())
    return digest.hexdigest()


def reaching_input(program, edge: int, base: bytes) -> bytes:
    """``base`` patched to satisfy every guard from the root to ``edge``
    (later guards win a byte both constrain, so some inputs miss)."""
    buf = bytearray(base.ljust(program.input_len, b"\0"))
    while edge != NO_PARENT:
        kind, off = Guard(int(program.kind[edge])), int(program.off[edge])
        if kind is Guard.BYTE_LT:
            buf[off] = 0
        elif kind is Guard.BYTE_EQ:
            buf[off] = int(program.val[edge])
        elif kind is Guard.EQ_MULTI:
            width = int(program.width[edge])
            buf[off:off + width] = program.magic[edge, :width].tobytes()
        edge = int(program.parent[edge])
    return bytes(buf)


def execute_digest() -> str:
    rng = np.random.default_rng(18)
    digest = hashlib.sha256()
    for name, scale in BENCHMARKS:
        built = get_benchmark(name).build(scale=scale, seed_scale=scale)
        program = built.program
        executor = Executor(program)
        rows = list(built.seeds)
        for seed in built.seeds * 4:
            buf = bytearray(seed)
            for _ in range(int(rng.integers(1, 8))):
                buf[int(rng.integers(0, len(buf)))] = int(
                    rng.integers(0, 256))
            rows.append(bytes(buf))
        for _ in range(16):
            length = int(rng.integers(0, program.input_len + 16))
            rows.append(rng.integers(0, 256, size=length,
                                     dtype=np.uint8).tobytes())
        for edge in np.flatnonzero(program.crash_site != NO_CRASH):
            for seed in built.seeds[:3]:
                rows.append(reaching_input(program, int(edge), seed))
        for row in rows:
            result = executor.execute(row)
            digest.update(result.edges.astype("<i8").tobytes())
            digest.update(result.counts.astype("<i8").tobytes())
            crash = result.crash
            digest.update(repr((
                result.traversals,
                None if crash is None else (crash.site_id,
                                            crash.edge_index,
                                            crash.stack,
                                            crash.fault_address),
            )).encode())
    return digest.hexdigest()


def havoc_windows():
    """``(mutator, specs, width)`` windows covering every guard and path
    of the apply kernel: empty bases (random fill), splices on and off,
    partners too short to splice, a dictionary, a ``max_len`` low enough
    that inserts hit the width guard, bases at ``min_len`` (delete
    guard), an explicit width wider than the draws, and windows on both
    sides of :data:`_SCALAR_STEP_CUTOFF` (up to ``HAVOC_ROWS`` mutants
    per draw, 3–4 draws per window)."""
    rng = np.random.default_rng(2022)
    tokens = [b"IHDR", b"\x00\xff", b"deflate-stream", b"Z"]
    mutators = (Mutator(), Mutator(max_len=80),
                Mutator(max_len=256, min_len=16, dictionary=tokens),
                Mutator(max_len=12, min_len=12))

    def blob(size):
        return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    for mutator in mutators:
        lo = mutator.min_len
        for rows in HAVOC_ROWS:
            specs = []
            for base, partner in (
                    (0, None), (0, 40), (lo, None), (lo, 2),
                    (lo + 3, 0), (37, 1), (37, 90), (150, 300),
                    (3, 3), (600, 20)):
                specs.append((
                    int(rng.integers(0, 1 << 63)), blob(base),
                    int(rng.integers(1, rows + 1)),
                    None if partner is None else blob(partner)))
            for k in range(0, len(specs), 3):
                window = specs[k:k + 3 + k % 2]
                yield mutator, window, None
                widest = max(mutator.width(d, p) for _, d, _, p in window)
                yield mutator, window, widest + 29


def havoc_digest() -> str:
    digest = hashlib.sha256()
    for mutator, specs, width in havoc_windows():
        batch = mutator.havoc_apply(mutator.draw_rows(specs), width)
        digest.update(np.array(batch.data.shape, dtype="<i8").tobytes())
        digest.update(batch.data.tobytes())
        digest.update(batch.lengths.astype("<i8").tobytes())
    return digest.hexdigest()


def test_pricing_matches_golden():
    assert pricing_digest() == PRICING_GOLDEN


def test_execute_matches_golden():
    assert execute_digest() == EXECUTE_GOLDEN


def test_havoc_matches_golden():
    # Per-row results do not depend on the cutoff, so neither does the
    # digest; the grid just has to keep windows on both sides of it.
    assert 4 * HAVOC_ROWS[0] <= _SCALAR_STEP_CUTOFF < HAVOC_ROWS[-1]
    assert havoc_digest() == HAVOC_GOLDEN
