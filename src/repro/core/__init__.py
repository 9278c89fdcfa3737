"""Coverage-map data structures: AFL's flat bitmap and BigMap.

This package is the paper's primary contribution. Public surface:

* :class:`AflCoverage` — the one-level baseline (Listing 1).
* :class:`BigMapCoverage` — the two-level condensed bitmap (Listing 2).
* :class:`VirginMap` / :class:`CompareResult` — global-coverage compare
  with AFL's ``has_new_bits`` semantics.
* :func:`classify_counts` and the bucket LUT.

The maps do host work only: they store, classify, compare and hash
traces. What each operation costs in cycles is priced in one place,
:mod:`repro.memsim.costmodel`, from the per-execution ``ExecShape`` the
campaign reports.
"""

from .afl_bitmap import AflCoverage
from .bigmap import BigMapCoverage
from .bitmap_base import (BatchUpdate, CoverageMap, DenseKeys, FlatKeys,
                          aggregate_keys, aggregate_keys_batch,
                          apply_counts, classified_counts)
from .classify import (BUCKET_VALUES, COUNT_CLASS_LOOKUP8, bucket_of,
                       classify_counts, is_classified)
from .compare import (NEW_EDGE, NEW_HIT_COUNT, NO_NEW_COVERAGE,
                      CompareResult, VirginMap)
from .errors import (CalibrationError, CampaignConfigError, KeyRangeError,
                     MapFullError, MapSizeError, ReproError, TraceShapeError)
from .hashing import crc32_full, crc32_trimmed, last_nonzero_index
from .walltime import Stopwatch, wall_now

__all__ = [
    "AflCoverage", "BigMapCoverage", "CoverageMap",
    "BatchUpdate", "DenseKeys", "FlatKeys", "aggregate_keys",
    "aggregate_keys_batch", "apply_counts", "classified_counts",
    "BUCKET_VALUES", "COUNT_CLASS_LOOKUP8", "bucket_of", "classify_counts",
    "is_classified",
    "NEW_EDGE", "NEW_HIT_COUNT", "NO_NEW_COVERAGE", "CompareResult",
    "VirginMap",
    "CalibrationError", "CampaignConfigError", "KeyRangeError",
    "MapFullError", "MapSizeError", "ReproError", "TraceShapeError",
    "crc32_full", "crc32_trimmed", "last_nonzero_index",
    "Stopwatch", "wall_now",
]
