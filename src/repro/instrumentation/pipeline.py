"""Factory for instrumentation pipelines.

The paper's key flexibility claim (§IV-D) is that *anything* producing
bitmap keys can sit in front of BigMap. This module is the one place
that knows every metric's name, so experiments and examples can say
``build_instrumentation("ngram3", program, map_size)``. The §V-C
composition is ``build_instrumentation("ngram3", apply_lafintel(program),
map_size)``.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..target.cfg import Program
from .collafl import CollAflInstrumentation
from .edge_ids import (AflEdgeInstrumentation, Instrumentation,
                       TracePCGuardInstrumentation)
from .ngram import ContextSensitiveInstrumentation, NGramInstrumentation

_BUILDERS: Dict[str, Callable[..., Instrumentation]] = {
    "afl-edge": AflEdgeInstrumentation,
    "trace-pc-guard": TracePCGuardInstrumentation,
    "ngram2": lambda program, map_size, seed=0: NGramInstrumentation(
        program, map_size, n=2, seed=seed),
    "ngram3": lambda program, map_size, seed=0: NGramInstrumentation(
        program, map_size, n=3, seed=seed),
    "ngram4": lambda program, map_size, seed=0: NGramInstrumentation(
        program, map_size, n=4, seed=seed),
    "afl-edge+context": ContextSensitiveInstrumentation,
    "collafl": CollAflInstrumentation,
}


def metric_names() -> list:
    """All registered coverage-metric names."""
    return sorted(_BUILDERS)


def build_instrumentation(metric: str, program: Program, map_size: int,
                          seed: int = 0) -> Instrumentation:
    """Instantiate a coverage metric by name.

    Args:
        metric: one of :func:`metric_names`.
        program: target program (already laf-transformed if desired).
        map_size: coverage bitmap size (power of two).
        seed: compile-time randomness (block IDs, context salts).
    """
    try:
        builder = _BUILDERS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; known: "
                         f"{', '.join(metric_names())}") from None
    return builder(program, map_size, seed=seed)

