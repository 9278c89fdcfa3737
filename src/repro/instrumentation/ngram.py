"""Input-dependent coverage: N-gram and calling-context keys.

The N-gram metric [Wang et al., RAID'19] keys on the last N basic
blocks instead of AFL's ``(src, dst)``; Angora [17] XORs a calling-context
hash into every edge key. Either way the same CFG edge emits several
keys, putting several times more pressure on the bitmap — which is
exactly why the paper pairs such metrics with BigMap.

In our tree-structured programs an edge has one static ancestor chain,
so the pure last-N hash alone would not amplify the key count. Real
path-context diversity (functions called from many sites, loops entered
in different states) is modeled explicitly: each edge carries
``1..max_contexts`` context variants, and which variant an execution
emits depends on a checksum of the input — different inputs exercising
the edge through different "histories" touch different keys. Both
metrics are one :class:`ContextVariantInstrumentation`, drawn by two
constructors.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Tuple

import numpy as np

from ..target.cfg import NO_PARENT, Program
from ..target.executor import BatchExecResult, ExecResult
from .edge_ids import Instrumentation, afl_edge_keys, assign_block_ids

#: Knuth multiplicative-hash constant for key mixing.
_MIX = np.int64(0x9E3779B1)


def ngram_base_keys(program: Program, n: int, map_size: int,
                    seed: int) -> np.ndarray:
    """Static per-edge hash of the last ``n`` blocks on the edge's path.

    Computed bottom-up with vectorized parent gathers: the key of an
    edge combines its destination block ID with its ``n-1`` nearest
    ancestors' destination blocks (fewer near the roots, as in AFL++'s
    implementation where history registers start zeroed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    block_ids = assign_block_ids(program.n_blocks, map_size, seed)
    mask = np.int64(map_size - 1)
    keys = block_ids[program.dst_block].astype(np.int64)
    ancestor = program.parent.copy()
    for _ in range(n - 1):
        valid = ancestor != NO_PARENT
        contrib = np.zeros_like(keys)
        contrib[valid] = block_ids[
            program.dst_block[ancestor[valid]]]
        keys = ((keys * _MIX) ^ contrib) & mask
        next_anc = np.full_like(ancestor, NO_PARENT)
        next_anc[valid] = program.parent[ancestor[valid]]
        ancestor = next_anc
    return keys & mask


class ContextVariantInstrumentation(Instrumentation):
    """Per-edge base keys mixed with an input-selected context variant.

    Edge ``e`` has ``n_contexts[e]`` (>= 1) variants; an input whose
    Adler-32 checksum is ``c`` emits variant ``(c ^ context_salt[e]) %
    n_contexts[e]`` of it, mixed into ``base_keys[e]``. All three are
    ``int64`` per-edge arrays; ``name`` is the metric's report name.
    """

    def __init__(self, program: Program, map_size: int, *, name: str,
                 base_keys: np.ndarray, n_contexts: np.ndarray,
                 context_salt: np.ndarray) -> None:
        super().__init__(program, map_size)
        self.name = name
        self.base_keys = base_keys
        self.n_contexts = n_contexts
        self.context_salt = context_salt

    def _keys(self, edges: np.ndarray, checksums) -> np.ndarray:
        """Keys of ``edges`` under per-entry (or one shared) checksums."""
        variant = (checksums ^ self.context_salt[edges]) % \
            self.n_contexts[edges]
        mask = np.int64(self.map_size - 1)
        return (self.base_keys[edges] ^ ((variant * _MIX) & mask)) & mask

    def keys_for(self, result: ExecResult,
                 input_bytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._keys(result.edges, _checksum(input_bytes)), \
            result.counts

    def keys_for_batch(self, result: BatchExecResult,
                       input_rows: Sequence[np.ndarray]) \
            -> Tuple[np.ndarray, np.ndarray]:
        # One checksum per exact-length row, repeated along its segment.
        checksums = np.fromiter(
            (_checksum(input_rows[i]) for i in range(result.n)),
            dtype=np.int64, count=result.n)
        return self._keys(result.edges,
                          np.repeat(checksums, result.n_edges)), \
            result.counts

    def distinct_keys_possible(self) -> int:
        """Upper bound on distinct keys: every (edge, variant) pair.

        Collisions inside the hash space make the realized number
        slightly lower; Equation 1 quantifies by how much.
        """
        return int(self.n_contexts.sum())


def _checksum(row: np.ndarray) -> np.int64:
    """Adler-32 of one exact-length input row."""
    return np.int64(zlib.adler32(memoryview(np.ascontiguousarray(row))))


def NGramInstrumentation(program: Program, map_size: int, *, n: int = 3,
                         seed: int = 0, max_contexts: int = 4,
                         mean_contexts: float = 2.0
                         ) -> ContextVariantInstrumentation:
    """N-gram (last-N-blocks) coverage keys with context variants.

    Args:
        program: the target.
        map_size: coverage bitmap size (power of two).
        n: history length; the paper's §V-C experiment uses N=3.
        seed: compile-time randomness.
        max_contexts: maximum context variants per edge (≥ 1).
        mean_contexts: average variants per edge; the effective key
            amplification factor (≈2 reproduces Table III's pressure).
    """
    if max_contexts < 1:
        raise ValueError(f"max_contexts must be >= 1, got "
                         f"{max_contexts}")
    if not 1 <= mean_contexts <= max_contexts:
        raise ValueError(
            f"mean_contexts must be in [1, {max_contexts}], got "
            f"{mean_contexts}")
    base_keys = ngram_base_keys(program, n, map_size, seed)
    rng = np.random.default_rng(np.random.PCG64(seed ^ 0x4E6))
    n_edges = program.n_edges
    # Per-edge variant counts with the requested mean: uniform over
    # {1..max} has mean (max+1)/2; blend it with all-ones.
    n_contexts = np.ones(n_edges, dtype=np.int64)
    if max_contexts > 1:
        uniform_mean = (max_contexts + 1) / 2.0
        blend = (mean_contexts - 1.0) / max(uniform_mean - 1.0, 1e-9)
        blend = min(max(blend, 0.0), 1.0)
        varied = rng.random(n_edges) < blend
        n_contexts[varied] = rng.integers(1, max_contexts + 1,
                                          size=int(varied.sum()))
    return ContextVariantInstrumentation(
        program, map_size, name=f"ngram{n}", base_keys=base_keys,
        n_contexts=n_contexts, context_salt=rng.integers(
            0, np.iinfo(np.int64).max, size=n_edges, dtype=np.int64))


def ContextSensitiveInstrumentation(program: Program, map_size: int, *,
                                    seed: int = 0, max_contexts: int = 8,
                                    context_weight: float = 0.45
                                    ) -> ContextVariantInstrumentation:
    """AFL edge keys XORed with an Angora-style calling-context hash.

    Args:
        program: the target.
        map_size: coverage bitmap size (power of two).
        seed: compile-time randomness.
        max_contexts: maximum contexts per edge (Angora reports up to 8).
        context_weight: geometric decay for the per-edge context-count
            distribution; smaller values concentrate edges on one
            context (call sites are heavy-tailed in practice).
    """
    if max_contexts < 1:
        raise ValueError(f"max_contexts must be >= 1, got "
                         f"{max_contexts}")
    if not 0 < context_weight < 1:
        raise ValueError(f"context_weight must be in (0, 1), got "
                         f"{context_weight}")
    base_keys = afl_edge_keys(program, map_size, seed)
    rng = np.random.default_rng(np.random.PCG64(seed ^ 0xC17))
    draws = rng.geometric(1 - context_weight, size=program.n_edges)
    return ContextVariantInstrumentation(
        program, map_size, name="afl-edge+context", base_keys=base_keys,
        n_contexts=np.minimum(draws, max_contexts).astype(np.int64),
        context_salt=rng.integers(0, np.iinfo(np.int64).max,
                                  size=program.n_edges, dtype=np.int64))
