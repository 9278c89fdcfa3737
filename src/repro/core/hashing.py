"""Bitmap hashing with BigMap's up-to-last-nonzero rule.

AFL hashes the classified trace map of every interesting test case so that
future test cases with an identical map can be recognized cheaply. AFL
hashes the *full* map; BigMap must not hash ``[0, used_key)`` because
``used_key`` only grows — the same execution path would hash differently
before and after an unrelated discovery extended ``used_key`` (the
three-execution example of paper §IV-D). BigMap therefore hashes up to and
including the last non-zero byte, which is a pure function of the path.
"""

from __future__ import annotations

import zlib

import numpy as np


def crc32_full(bitmap: np.ndarray) -> int:
    """AFL's hash: CRC32 over the entire map (classified trace bits)."""
    return zlib.crc32(memoryview(np.ascontiguousarray(bitmap)))


def last_nonzero_index(bitmap: np.ndarray, search_limit: int = None) -> int:
    """Index of the last non-zero byte in ``bitmap[:search_limit]``, or -1.

    ``search_limit`` lets BigMap restrict the scan to ``[0, used_key)``;
    everything past ``used_key`` is zero by construction.
    """
    view = bitmap if search_limit is None else bitmap[:search_limit]
    nz = np.flatnonzero(view)
    if nz.size == 0:
        return -1
    return int(nz[-1])


def crc32_trimmed(bitmap: np.ndarray, search_limit: int = None) -> int:
    """BigMap's hash: CRC32 up to (and including) the last non-zero byte.

    Two executions that populate the same prefix of the condensed map hash
    identically regardless of how far ``used_key`` has advanced in between.
    An all-zero map hashes as the empty string.

    Args:
        bitmap: the condensed coverage bytes.
        search_limit: restrict the last-non-zero scan to
            ``bitmap[:search_limit]``.
    """
    last = last_nonzero_index(bitmap, search_limit)
    return zlib.crc32(memoryview(np.ascontiguousarray(bitmap[:last + 1])))
