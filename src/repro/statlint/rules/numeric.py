"""Kernel float64 round-trip rule (NUM101).

The whole point of a BigMap-style fuzzer is that the hit-count map
stays narrow (uint8/uint16) so the hot loop stays cache-resident, and
that key aggregation stays integral. ``np.bincount`` with weights
quietly works against both: it accumulates in float64 regardless of
the weights' dtype, so a kernel that sums hit counts that way pays 8x
the memory traffic and a float round-trip on every call. This is the
rule that caught ``aggregate_keys`` doing exactly that.

* **NUM101** — a ``numpy.bincount`` call with ``weights=`` or a
  second positional argument, in a configured hot-path file
  (``num_hot_paths``; ``repro/core/*`` and ``repro/fuzzer/*`` by
  default). Everywhere else, float math is presumed deliberate.

The check is purely syntactic. The dtypes the kernels promise are
pinned by ``tests/core/test_batch_kernels.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import LintConfig, path_matches
from ..registry import FileRule, register


def _has_weights(call: ast.Call) -> bool:
    return (len(call.args) >= 2 or
            any(kw.arg == "weights" for kw in call.keywords))


@register
class BincountWeightsRule(FileRule):
    id = "NUM101"
    title = "np.bincount with weights in a hot-path kernel"
    rationale = ("np.bincount with weights= always accumulates float64 "
                 "(8x the memory traffic of uint8, and a float "
                 "round-trip of integral counts); hot-path kernels must "
                 "use an integer accumulator or cast deliberately.")

    def check_file(self, source, config: LintConfig) -> Iterator:
        if not path_matches(source.relpath, config.num_hot_paths):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            full = source.imports.resolve_call(node)
            if (full and full.startswith("numpy") and
                    full.rsplit(".", 1)[-1] == "bincount" and
                    _has_weights(node)):
                yield self.finding(
                    source.relpath, node.lineno, node.col_offset,
                    "np.bincount with weights= accumulates in float64 "
                    "regardless of the weights' dtype; use an integer "
                    "accumulator (np.add.at on an int64 buffer) or "
                    "cast the result deliberately")
