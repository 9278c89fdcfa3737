"""The benchmark registry: Table II/III targets as generator configs.

Each :class:`BenchmarkConfig` carries the paper's published columns
(seed-corpus size, fuzzer-discovered edges, compile-time static edges,
version) and knows how to materialize a scaled synthetic stand-in:
``spec(scale)`` parameterizes the generator so the practically
discoverable edge count equals ``round(discovered_edges * scale)`` —
at ``scale=1.0`` the program matches the paper's Table II row by
construction.

The LLVM-opt harnesses get a large magic-gated region (``magic_ratio``)
— they are the laf-intel benchmarks of Table III, where splitting
multi-byte compares multiplies discoverable coverage — while the
library targets carry a modest one.
"""

from __future__ import annotations

import zlib as _zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cfg import Program
from .generator import ProgramSpec, generate_program
from .seeds import generate_seed_corpus

#: LLVM-opt static edge count (shared by every ``opt`` pass harness).
_LLVM_STATIC = 977_899
_LLVM_VERSION = "v10.0.1"


@dataclass(frozen=True)
class BenchmarkConfig:
    """One paper benchmark, parameterizing the program generator.

    Attributes:
        name: registry name (Table II/III row).
        n_seeds: paper seed-corpus size.
        discovered_edges: paper "discovered edges" column — the
            practically discoverable count at ``scale=1.0``.
        static_edges: paper compile-time edge count.
        version: benchmark version string from Table II.
        magic_ratio: magic-subtree edges as a fraction of the core
            (what laf-intel / a dictionary can unlock on top).
        input_len: input size of the synthetic stand-in.
    """

    name: str
    n_seeds: int
    discovered_edges: int
    static_edges: int
    version: str
    magic_ratio: float = 0.30
    input_len: int = 192

    def _rng_seed(self) -> int:
        return _zlib.crc32(self.name.encode("ascii")) & 0x7FFF

    def spec(self, scale: float = 1.0) -> ProgramSpec:
        """Generator parameters for this benchmark at ``scale``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        n_core = max(8, int(round(self.discovered_edges * scale)))
        magic_total = int(round(n_core * self.magic_ratio))
        subtree_count = max(1, min(6, magic_total // 24))
        per_subtree = magic_total // subtree_count
        if per_subtree < 4:
            subtree_count = per_subtree = 0
        n_crash = max(2, int(round(n_core * 0.003)))
        return ProgramSpec(
            name=self.name,
            n_core_edges=n_core,
            input_len=self.input_len,
            seed=self._rng_seed(),
            magic_subtree_edges=per_subtree,
            magic_subtree_count=subtree_count,
            magic_leaf_edges=max(2, n_core // 250),
            never_leaf_edges=max(1, n_core // 500),
            n_crash_sites=n_crash,
            n_magic_crash_sites=max(1, n_crash // 3) if subtree_count
            else 0,
            static_edges=max(int(round(self.static_edges * scale)),
                             n_core + magic_total + 8))

    def build(self, scale: float = 1.0, *,
              seed_scale: Optional[float] = None) -> "BuiltBenchmark":
        """Materialize the program and its scaled seed corpus."""
        if seed_scale is not None and seed_scale <= 0:
            raise ValueError(
                f"seed_scale must be positive, got {seed_scale}")
        program = generate_program(self.spec(scale))
        effective = scale if seed_scale is None else seed_scale
        n = max(1, int(round(self.n_seeds * effective)))
        seeds = generate_seed_corpus(program, n,
                                     seed=self._rng_seed() + 0x105)
        return BuiltBenchmark(config=self, program=program,
                              seeds=seeds, scale=scale)


@dataclass
class BuiltBenchmark:
    """A materialized benchmark: program + seed corpus."""

    config: Optional[BenchmarkConfig]
    program: Program
    seeds: List[bytes]
    scale: float


def _llvm(name: str, n_seeds: int, discovered: int) -> BenchmarkConfig:
    return BenchmarkConfig(name=name, n_seeds=n_seeds,
                           discovered_edges=discovered,
                           static_edges=_LLVM_STATIC,
                           version=_LLVM_VERSION, magic_ratio=1.40,
                           input_len=256)


#: Table II, in the paper's row order (ascending discovered edges).
TABLE2_BENCHMARKS: Tuple[BenchmarkConfig, ...] = (
    BenchmarkConfig("zlib", 77, 722, 875, "v1.2.11", input_len=128),
    BenchmarkConfig("libpng", 1, 1_218, 2_987, "v1.6.35",
                    input_len=128),
    BenchmarkConfig("systemd", 6, 2_314, 53_453, "v245", input_len=128),
    BenchmarkConfig("libjpeg", 1, 2_928, 9_542, "v2.0.4",
                    input_len=128),
    BenchmarkConfig("mbedtls", 1, 5_377, 10_942, "v2.21.0"),
    BenchmarkConfig("proj4", 43, 6_379, 7_830, "v6.3.1"),
    BenchmarkConfig("harfbuzz", 58, 8_930, 10_021, "v2.6.4"),
    BenchmarkConfig("libxml2", 1, 9_422, 50_327, "v2.9.10"),
    BenchmarkConfig("openssl", 2_241, 10_297, 45_989, "v1.0.2u"),
    BenchmarkConfig("bloaty", 94, 10_536, 89_658, "v1.0"),
    BenchmarkConfig("curl", 31, 12_728, 62_523, "v7.68.0"),
    BenchmarkConfig("php", 2_782, 20_260, 123_767, "v7.4.3"),
    BenchmarkConfig("sqlite3", 1_256, 40_948, 45_136, "v3.31.1"),
    _llvm("licm", 101, 64_317),
    _llvm("gvn", 140, 65_781),
    _llvm("strength-reduce", 122, 76_065),
    _llvm("indvars", 174, 82_105),
    _llvm("loop-vectorize", 345, 108_231),
    _llvm("instcombine", 1_046, 131_677),
)

#: The seven LLVM passes of Table III that Table II does not list
#: individually (sizes interpolated into the LLVM harness range).
_TABLE3_EXTRA: Tuple[BenchmarkConfig, ...] = (
    _llvm("loop-unswitch", 133, 71_204),
    _llvm("sccp", 96, 68_530),
    _llvm("earlycase", 88, 60_412),
    _llvm("loop-prediction", 107, 58_990),
    _llvm("loop-rotate", 119, 59_873),
    _llvm("irce", 92, 61_742),
    _llvm("simplifycfg", 141, 55_631),
)

_T2_BY_NAME: Dict[str, BenchmarkConfig] = {c.name: c
                                           for c in TABLE2_BENCHMARKS}

#: Table III: all 13 LLVM-opt harnesses (laf-intel + N-gram study).
TABLE3_BENCHMARKS: Tuple[BenchmarkConfig, ...] = tuple(
    [c for c in TABLE2_BENCHMARKS if c.static_edges == _LLVM_STATIC] +
    list(_TABLE3_EXTRA))

#: Figure 3's runtime-composition benchmarks, in figure order.
FIG3_BENCHMARK_NAMES: Tuple[str, ...] = (
    "libpng", "sqlite3", "gvn", "bloaty", "openssl", "php")

#: Figure 8's crash-count benchmarks (the Table II LLVM passes).
FIG8_BENCHMARK_NAMES: Tuple[str, ...] = (
    "licm", "gvn", "strength-reduce", "indvars", "loop-vectorize",
    "instcombine")

_REGISTRY: Dict[str, BenchmarkConfig] = {
    **_T2_BY_NAME, **{c.name: c for c in _TABLE3_EXTRA}}


def get_benchmark(name: str) -> BenchmarkConfig:
    """Look up a benchmark; raises ``KeyError`` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def benchmark_names(selector: str = "all") -> Sequence[str]:
    """Benchmark names for a selector: ``all``, ``table2``, ``table3``,
    ``fig3`` or ``fig8``."""
    if selector == "all":
        return list(_REGISTRY)
    if selector == "table2":
        return [c.name for c in TABLE2_BENCHMARKS]
    if selector == "table3":
        return [c.name for c in TABLE3_BENCHMARKS]
    if selector == "fig3":
        return list(FIG3_BENCHMARK_NAMES)
    if selector == "fig8":
        return list(FIG8_BENCHMARK_NAMES)
    raise ValueError(f"unknown benchmark selector {selector!r}")
