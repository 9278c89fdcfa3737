"""Per-row reference for ``Instrumentation.keys_for_batch``.

Each metric's key formula is written out here by hand and applied one
trace at a time, reading only the instrumentation's tables. It never
calls ``keys_for`` or ``keys_for_batch``, so a test that compares them
with it checks the library's key kernels against an independent
statement of the formula rather than against themselves.
"""

import zlib

import numpy as np

from repro.instrumentation.edge_ids import EdgeTableInstrumentation

#: Knuth multiplicative-hash constant the context variants are mixed by.
MIX = 0x9E3779B1


def oracle_row_keys(instr, edges, row):
    """Keys of one trace's ascending ``edges`` given its exact-length
    input ``row``."""
    if isinstance(instr, EdgeTableInstrumentation):
        return instr.edge_keys[edges]
    checksum = zlib.adler32(np.ascontiguousarray(row).tobytes())
    variant = (checksum ^ instr.context_salt[edges]) % \
        instr.n_contexts[edges]
    mask = instr.map_size - 1
    return (instr.base_keys[edges] ^ ((variant * MIX) & mask)) & mask


def oracle_keys_for_batch(instr, bres, rows):
    """Flat ``(keys, counts)`` of a batch, row by row: what
    ``instr.keys_for_batch(bres, rows)`` must return."""
    keys, counts = [np.empty(0, dtype=np.int64)], \
        [np.empty(0, dtype=np.int64)]
    for i in range(bres.n):
        edges, c = bres.segment(i)
        keys.append(oracle_row_keys(instr, edges, rows[i]))
        counts.append(c)
    return np.concatenate(keys), np.concatenate(counts)
