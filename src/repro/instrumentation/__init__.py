"""Coverage-metric pipelines: edge hashing, N-gram, context, laf-intel.

Public surface:

* :class:`Instrumentation` — the metric interface (trace → map keys).
* :class:`AflEdgeInstrumentation` — classic AFL ``(Bx>>1)^By`` hashing.
* :class:`TracePCGuardInstrumentation`, :class:`CollAflInstrumentation`
  — sequential static IDs (:func:`sequential_edge_keys`).
* :class:`ContextVariantInstrumentation` — input-dependent keys, built by
  :func:`NGramInstrumentation` (last N blocks) or
  :func:`ContextSensitiveInstrumentation` (Angora-style contexts).
* :func:`apply_lafintel` — the multi-byte-compare splitting transform.
* :func:`build_instrumentation` — metrics by name, for experiments.
"""

from .collafl import CollAflInstrumentation, required_map_size
from .edge_ids import (AflEdgeInstrumentation, Instrumentation,
                       TracePCGuardInstrumentation, afl_edge_keys,
                       assign_block_ids, sequential_edge_keys)
from .lafintel import DEFAULT_STATIC_EXPANSION, apply_lafintel
from .ngram import (ContextSensitiveInstrumentation,
                    ContextVariantInstrumentation, NGramInstrumentation,
                    ngram_base_keys)
from .pipeline import build_instrumentation, metric_names

__all__ = [
    "CollAflInstrumentation", "required_map_size",
    "AflEdgeInstrumentation", "Instrumentation",
    "TracePCGuardInstrumentation", "afl_edge_keys", "assign_block_ids",
    "sequential_edge_keys",
    "DEFAULT_STATIC_EXPANSION", "apply_lafintel",
    "ContextSensitiveInstrumentation", "ContextVariantInstrumentation",
    "NGramInstrumentation", "ngram_base_keys",
    "build_instrumentation", "metric_names",
]
