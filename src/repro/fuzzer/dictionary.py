"""Fuzzing dictionaries: user tokens and compare-operand extraction.

AFL accepts a dictionary (``-x``) of magic tokens that havoc splices
into inputs; AFL++'s *autodictionary* extracts the operands of
comparison instructions at instrumentation time. Both matter to the
BigMap story: a dictionary is the *other* way (besides laf-intel) that
multi-byte magic compares become reachable, and reaching them is what
creates the map pressure BigMap exists to absorb.

:func:`extract_dictionary` is the autodictionary analogue for our
synthetic targets: it collects the magic operands of ``EQ_MULTI``
guards (deduplicated, deterministic order).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..target.cfg import Guard, Program

#: Keep dictionaries bounded, as AFL does (MAX_AUTO_EXTRAS analogue).
MAX_TOKENS = 512


def extract_dictionary(program: Program, *,
                       max_tokens: int = MAX_TOKENS) -> List[bytes]:
    """Compare-operand tokens of ``program`` (autodictionary).

    Returns the distinct multi-byte magic values the target compares
    against, in deterministic (sorted) order, capped at ``max_tokens``.
    """
    multi = np.flatnonzero(program.kind == np.uint8(Guard.EQ_MULTI))
    tokens = set()
    for edge in multi.tolist():
        width = int(program.width[edge])
        tokens.add(bytes(program.magic[edge, :width]))
    return sorted(tokens)[:max_tokens]


class DictionaryMixer:
    """Applies dictionary tokens during havoc.

    Used by :class:`~repro.fuzzer.mutation.Mutator` when a dictionary
    is supplied: with probability ``use_probability`` per havoc mutant,
    one token is overwritten into (or inserted at) a random position —
    AFL's ``EXTRAS`` havoc cases. The randomness is drawn with the
    rest of a seed's havoc draw
    (:meth:`~repro.fuzzer.mutation.Mutator.havoc_draw`, four uniforms
    per mutant, after the op parameters), so :meth:`stamp` is a pure
    function of the batch and those uniforms.
    """

    def __init__(self, tokens: Sequence[bytes], *,
                 use_probability: float = 0.25) -> None:
        if not 0 <= use_probability <= 1:
            raise ValueError(f"use_probability must be in [0, 1], got "
                             f"{use_probability}")
        self.tokens = [t for t in tokens if t]
        self.use_probability = use_probability
        longest = max((len(t) for t in self.tokens), default=1)
        #: Tokens as a zero-padded ``(n_tokens, longest)`` matrix.
        self._table = np.zeros((len(self.tokens), longest), dtype=np.uint8)
        for i, token in enumerate(self.tokens):
            self._table[i, :len(token)] = np.frombuffer(token, np.uint8)
        self._sizes = np.array([len(t) for t in self.tokens],
                               dtype=np.int64)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def stamp(self, mat: np.ndarray, lengths: np.ndarray,
              u: np.ndarray) -> None:
        """Stamp tokens into the rows of a zero-padded batch, in place.

        ``u`` is a ``(4, n)`` matrix of uniforms per row: use/skip,
        token, overwrite/insert and position. A used row gets its token
        overwritten at a position scaled to fit (clamped to the row
        when the token is longer), or — one time in four, when the row
        is longer than the token — inserted at a position in
        ``[0, length]``, truncated at the matrix width. An empty row
        becomes the token. Rows stay zero-padded past their lengths.
        """
        rows = np.flatnonzero(u[0] < self.use_probability)
        if not self.tokens or not rows.size:
            return
        width = mat.shape[1]
        tok = (u[1, rows] * len(self.tokens)).astype(np.int64)
        size = self._sizes[tok]
        ln = lengths[rows]
        insert = (ln == 0) | ((u[2, rows] >= 0.75) & (ln > size))
        wrote = np.where(insert, size, np.minimum(size, ln))
        pos = (u[3, rows] * np.where(insert, ln + 1, ln - wrote + 1)
               ).astype(np.int64)
        shift = np.where(insert, size, 0)
        # Output byte c is the row's byte c before the token, the
        # token's byte c - pos inside it, and the row's byte c - shift
        # after it (zero padding past the old length carries over).
        cols = np.arange(width, dtype=np.int64)
        off = cols - pos[:, None]
        src = np.where(off < 0, cols, np.maximum(cols - shift[:, None], 0))
        out = np.take_along_axis(mat[rows], src, axis=1)
        token = np.take_along_axis(
            self._table[tok], np.clip(off, 0, self._table.shape[1] - 1),
            axis=1)
        mat[rows] = np.where((off >= 0) & (off < wrote[:, None]), token,
                             out)
        lengths[rows] = np.minimum(width, ln + shift)
