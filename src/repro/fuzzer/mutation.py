"""Mutation engine: AFL's stacked random "havoc" with splicing.

As in the paper's evaluation setup (§V-A1), campaigns skip AFL's
deterministic stages and go straight to havoc. Havoc is split in two:
:meth:`Mutator.havoc_draw` draws a seed's whole havoc randomness from
one key, and :meth:`Mutator.havoc_apply` materializes any number of
such draws as one padded batch of mutants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dictionary import DictionaryMixer

#: AFL's interesting values (8/16/32-bit), as unsigned patterns.
INTERESTING_8 = np.array([128, 255, 0, 1, 16, 32, 64, 100, 127],
                         dtype=np.uint8)
INTERESTING_16 = np.array([0x8000, 0xFFFF, 0, 1, 16, 32, 64, 100, 127,
                           0x7FFF, 128, 255, 256, 512, 1000, 1024, 4096],
                          dtype=np.uint16)
INTERESTING_32 = np.array([0x80000000, 0xFFFFFFFF, 0, 1, 16, 32, 64, 100,
                           0x7FFFFFFF, 32768, 65535, 65536, 100663045],
                          dtype=np.uint32)

#: Havoc stacking: 2^1 .. 2^HAVOC_STACK_POW2 operations per mutant.
HAVOC_STACK_POW2 = 7

#: Arithmetic mutation magnitude (AFL's ARITH_MAX).
ARITH_MAX = 35

#: Havoc block-operation size cap, as a fraction of the input.
_BLOCK_FRACTION = 0.25

#: Below this many live mutants, a vectorized length-op step costs more
#: than finishing the remaining stacks with plain row slices.
_SCALAR_STEP_CUTOFF = 48


@dataclass
class MutantBatch:
    """A batch of mutants in padded-matrix form.

    Attributes:
        data: ``(n, width)`` uint8 matrix; every byte of row ``i`` at or
            past ``lengths[i]`` is zero (the executor relies on this).
        lengths: per-row logical lengths (``int64``).
    """

    data: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return int(self.data.shape[0])

    @property
    def width(self) -> int:
        return int(self.data.shape[1])

    def row(self, i: int) -> np.ndarray:
        """Exact-length uint8 view of mutant ``i``."""
        return self.data[i, :int(self.lengths[i])]

    def rows(self) -> list:
        """Exact-length views for all mutants, in order."""
        return [self.row(i) for i in range(self.n)]

    def tobytes(self, i: int) -> bytes:
        return self.row(i).tobytes()


#: Per-cell op parameters of a :class:`HavocDraw`, in draw order.
_CELL_FIELDS = ("op", "f1", "f2", "f3", "f4", "sel", "val")


@dataclass
class HavocDraw:
    """One seed's fully-drawn havoc randomness, not yet applied.

    Produced by :meth:`Mutator.havoc_draw`; consumed (possibly many at
    a time) by :meth:`Mutator.havoc_apply`. Holds the base/partner
    byte views plus every random draw — splice decisions, stacking
    depths, and one entry per live ``(row, round)`` stack cell for each
    op parameter — so that application is a pure function of this
    record and the shared batch width. The cells are flat and
    row-major: row ``i``'s ``n_ops[i]`` rounds follow row ``i - 1``'s,
    so a draw holds ``n_ops.sum()`` cells, never a padded
    ``(max n_ops, n)`` matrix. :meth:`rows` cuts a draw down to a range
    of its rows, which lets a worker process materialize just its shard
    of a window.

    Attributes:
        base: seed bytes as a uint8 view.
        partner: splice partner bytes, or None.
        n: number of mutants (the seed's energy).
        width: this draw's own padded width (:meth:`Mutator.width`); a
            fused apply uses the max over the window.
        fill: random ``(n, min_len)`` fill for empty bases, else None.
        do_splice / cut_a / cut_b: splice mask and cut points, or None
            when splicing was not eligible.
        n_ops: per-mutant stacking depth.
        op / f1..f4 / sel / val: flat per-cell op parameters (op code,
            four uniform floats, a selector and a value byte).
        stamp: ``(4, n)`` dictionary uniforms (use, token, insert,
            position), or None without a dictionary.
    """

    base: np.ndarray
    partner: Optional[np.ndarray]
    n: int
    width: int
    fill: Optional[np.ndarray]
    do_splice: Optional[np.ndarray]
    cut_a: Optional[np.ndarray]
    cut_b: Optional[np.ndarray]
    n_ops: np.ndarray
    op: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    sel: np.ndarray
    val: np.ndarray
    stamp: Optional[np.ndarray] = None

    def rows(self, lo: int, hi: int) -> "HavocDraw":
        """Rows ``[lo, hi)`` as a draw of their own: applied at the same
        width, it yields exactly those rows of the whole draw's apply."""
        if (lo, hi) == (0, self.n):
            return self
        cut = {name: getattr(self, name)[lo:hi]
               for name in ("fill", "do_splice", "cut_a", "cut_b")
               if getattr(self, name) is not None}
        a, b = int(self.n_ops[:lo].sum()), int(self.n_ops[:hi].sum())
        cut.update({name: getattr(self, name)[a:b]
                    for name in _CELL_FIELDS})
        if self.stamp is not None:
            cut["stamp"] = self.stamp[:, lo:hi]
        return dataclasses.replace(self, n=hi - lo, n_ops=self.n_ops[lo:hi],
                                   **cut)


class Mutator:
    """Havoc mutator configuration (one per campaign instance).

    Holds no randomness: every draw gets its own generator from a key
    (see :meth:`havoc_draw`).

    Args:
        max_len: hard cap on mutant length (AFL's MAX_FILE analogue).
        min_len: mutants are never shrunk below this.
        dictionary: optional tokens (AFL ``-x`` / autodictionary);
            havoc occasionally stamps one into the mutant.
    """

    def __init__(self, *, max_len: int = 8192, min_len: int = 4,
                 dictionary: Optional[Sequence[bytes]] = None) -> None:
        if min_len < 1 or max_len < min_len:
            raise ValueError(f"invalid length bounds [{min_len}, "
                             f"{max_len}]")
        self.max_len = max_len
        self.min_len = min_len
        self.dictionary = DictionaryMixer(dictionary) \
            if dictionary else None

    # -- havoc ------------------------------------------------------------

    def width(self, data: bytes, splice_with: Optional[bytes] = None) -> int:
        """Padded-matrix width of a draw of ``data`` (spliced with
        ``splice_with``): room to grow, capped at ``max_len``. Known
        without drawing."""
        longest = max(len(data), len(splice_with or b""), self.min_len)
        return int(min(self.max_len, max(64, 2 * longest)))

    def havoc_draw(self, key: int, data: bytes, n: int,
                   splice_with: Optional[bytes] = None) -> "HavocDraw":
        """Draw one seed's whole havoc randomness, without applying it.

        The draw is a pure function of its arguments: it builds its own
        generator from ``key``, one word a campaign takes from its RNG
        stream per scheduled seed. So a draw can happen anywhere — in
        the scheduling process or a worker, in any order, once or
        twice — and always yields the same record. The draw order is
        fixed: random fill for empty bases, splice mask and cut points
        (one vector each), per-row stacking depths, then one flat
        vector per op parameter covering every live cell at once (op
        codes, four uniform floats, a selector and a value byte), and —
        only with a dictionary — four uniforms per row for the token
        stamp.

        Application is deferred to :meth:`havoc_apply`, which may fuse
        the draws of several seeds into one uniform batch — the
        cross-seed batching that keeps the vectorized mutation kernels
        fed with large matrices.
        """
        rng = np.random.Generator(np.random.PCG64(key))
        base = np.frombuffer(data, dtype=np.uint8)
        partner = None if splice_with is None else \
            np.frombuffer(splice_with, dtype=np.uint8)
        fill = None
        if not base.size:
            fill = rng.integers(0, 256, size=(n, self.min_len),
                                dtype=np.uint8)
        do_splice = cut_a = cut_b = None
        if partner is not None and partner.size > 2 and base.size > 2:
            do_splice = rng.random(n) < 0.5
            cut_a = rng.integers(1, base.size, size=n)
            cut_b = rng.integers(1, partner.size, size=n)
        n_ops = (1 << rng.integers(1, HAVOC_STACK_POW2 + 1,
                                   size=n)).astype(np.int64)
        cells = int(n_ops.sum())
        return HavocDraw(
            base=base, partner=partner, n=n,
            width=self.width(data, splice_with), fill=fill,
            do_splice=do_splice, cut_a=cut_a, cut_b=cut_b, n_ops=n_ops,
            op=rng.integers(0, 10, size=cells), f1=rng.random(cells),
            f2=rng.random(cells), f3=rng.random(cells),
            f4=rng.random(cells), sel=rng.integers(0, 1 << 30, size=cells),
            val=rng.integers(0, 256, size=cells, dtype=np.uint8),
            stamp=rng.random((4, n)) if self.dictionary else None)

    def draw_rows(self, specs: Sequence[Tuple], lo: int = 0,
                  hi: Optional[int] = None) -> List["HavocDraw"]:
        """Draw the rows ``[lo, hi)`` of a window (default: all rows).

        ``specs`` lists the window's draws as ``(key, data, n,
        splice_with)`` tuples, row blocks in order. Only the specs
        overlapping the range are drawn, each cut to its part of it.
        """
        draws, start = [], 0
        for key, data, n, splice_with in specs:
            a = max(lo - start, 0)
            b = n if hi is None else min(hi - start, n)
            if a < b:
                draws.append(self.havoc_draw(key, data, n,
                                             splice_with).rows(a, b))
            start += n
        return draws

    def havoc_apply(self, draws: Sequence["HavocDraw"],
                    width: Optional[int] = None) -> MutantBatch:
        """Materialize pre-drawn havoc stacks as one uniform batch.

        Row block ``k`` holds draw ``k``'s mutants, in draw order. All
        rows share one padded width — ``width`` if given, else the
        widest draw's (``min_len`` for no draws) — so a whole
        scheduling window's mutation work runs as a single
        :meth:`_apply_stacked` pass: the per-round vectorized steps see
        ``sum(n_k)`` rows instead of ``n_k``, and the scalar tail of
        the deepest stacks is paid once per window rather than once per
        seed. Per-row results depend only on that row's own draw and
        the shared width (rows never interact), so a single-draw apply
        reproduces the classic one-seed batch exactly, and applying
        :meth:`HavocDraw.rows` slices at the window's width reproduces
        the matching rows of the whole window.

        Mutants use AFL's havoc op mix (bit flip, interesting
        byte/word/dword, arithmetic, random byte, block delete, clone /
        insert, block overwrite, constant fill; ops whose guard fails
        fall back to the constant fill, and block sizes are capped at a
        quarter of the input), but the stack is applied in a canonical
        type-major order rather than strictly interleaved: each
        mutant's length-changing block ops run first (in round order),
        then every byte-level op is applied against the final geometry
        — bit flips and arithmetic first (commutative), then all
        overwrites with per-byte conflicts resolved in round order. The
        composition of any fixed op multiset is as random as the
        interleaved one, the result is fully deterministic given the
        draws, and growth is bounded by the matrix width instead of a
        final truncation. With a dictionary, the token stamp runs last,
        against each row's post-havoc length.

        Returns:
            :class:`MutantBatch`; rows are zero-padded past their
            logical lengths.
        """
        if width is None:
            width = max((d.width for d in draws), default=self.min_len)
        bounds = np.concatenate(
            ([0], np.cumsum([d.n for d in draws], dtype=np.int64)))
        total = int(bounds[-1])
        mat = np.zeros((total, width), dtype=np.uint8)
        lengths = np.empty(total, dtype=np.int64)

        for k, d in enumerate(draws):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            sub = mat[lo:hi]
            base = d.base
            if base.size:
                size = min(base.size, width)
                lengths[lo:hi] = size
                sub[:, :size] = base[:size]
            else:
                sub[:, :self.min_len] = d.fill
                lengths[lo:hi] = self.min_len
            if d.do_splice is not None:
                for i in np.flatnonzero(d.do_splice):
                    ca, cb = int(d.cut_a[i]), int(d.cut_b[i])
                    joined = np.concatenate([base[:ca],
                                             d.partner[cb:]])[:width]
                    sub[i] = 0
                    sub[i, :joined.size] = joined
                    lengths[lo + i] = joined.size

        if total:
            # The draws' cells are already flat and row-major, which
            # :meth:`_apply_stacked` requires: the window's are their
            # concatenation.
            n_ops = np.concatenate([d.n_ops for d in draws])
            rnds, _ = self._block_scatter(np.zeros_like(n_ops), n_ops)
            self._apply_stacked(
                mat, lengths, width, np.repeat(np.arange(total), n_ops),
                rnds, *(np.concatenate([getattr(d, name) for d in draws])
                        for name in _CELL_FIELDS))

        if self.dictionary and draws:
            self.dictionary.stamp(
                mat, lengths, np.concatenate([d.stamp for d in draws],
                                             axis=1))
        return MutantBatch(data=mat, lengths=lengths)

    @staticmethod
    def _block_scatter(starts: np.ndarray, lens: np.ndarray):
        """Flat per-row block indices: ``(repeated_rows_base, cols)``.

        For row-aligned blocks ``[starts[i], starts[i]+lens[i])``,
        returns the within-block offsets and the flat column indices so
        a whole vector of variable-length blocks becomes one fancy
        index.
        """
        total = int(lens.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens)
        return within, np.repeat(starts, lens) + within

    def _apply_stacked(self, mat: np.ndarray, lengths: np.ndarray,
                       width: int, rows: np.ndarray, rnds: np.ndarray,
                       op: np.ndarray, f1a: np.ndarray, f2a: np.ndarray,
                       f3a: np.ndarray, f4a: np.ndarray,
                       sela: np.ndarray, vala: np.ndarray) -> None:
        """Apply every mutant's havoc stack in canonical type-major order.

        Inputs are flat parallel arrays with one entry per live
        (row, round) stack cell, sorted row-major — grouped by ``rows``
        with ``rnds`` ascending inside each group (the order
        :meth:`havoc_apply` builds). Length-changing ops
        (delete/insert) run first, per mutant in round order,
        vectorized across mutants one stack position at a time.
        Byte-level ops then run against the final geometry in a
        handful of whole-batch passes: XOR bit flips and mod-256
        arithmetic are commutative (``ufunc.at`` handles duplicate
        targets), and all overwrites are resolved per byte by round
        order — the same bytes a sequential replay of the writes would
        leave behind. (Cell *order* never matters in this phase: a
        byte's round numbers are unique, so the round-latest write is
        well defined.) Guard failures (word/dword on short rows, delete
        at the minimum length, insert at full width) fall through to
        the constant-overwrite op.
        """
        n = int(lengths.size)
        is_len = (op == 6) | (op == 7)

        # -- phase A: block deletes / inserts, sequential per mutant --
        fb_idx = [np.empty(0, dtype=np.int64)]  # guard-fallback cells
        a_idx = np.flatnonzero(is_len)  # row-major: by row, then round
        if a_idx.size:
            counts = np.bincount(rows[a_idx], minlength=n)
            starts = np.cumsum(counts) - counts
            for step in range(int(counts.max())):
                live = counts > step
                idx = starts[live] + step
                if idx.size <= _SCALAR_STEP_CUTOFF:
                    self._length_tail(mat, lengths, width, a_idx, rows,
                                      starts, counts, step, op, f1a,
                                      f2a, f3a, f4a, vala, fb_idx)
                    break
                cell = a_idx[idx]
                r = rows[cell]
                is_del = op[cell] == 6
                ln = lengths[r]
                bad = np.where(is_del, ln <= self.min_len, ln >= width)
                if bad.any():
                    fb_idx.append(cell[bad])
                    good = ~bad
                    cell, r = cell[good], r[good]
                    is_del, ln = is_del[good], ln[good]
                if r.size:
                    self._length_step(mat, lengths, width, r, is_del,
                                      ln, f1a[cell], f2a[cell],
                                      f3a[cell], f4a[cell], vala[cell])

        # -- phase B: byte-level ops against the final geometry --
        b_idx = np.flatnonzero(~is_len)
        rows_b = rows[b_idx]
        rnds_b = rnds[b_idx]
        opv = op[b_idx]
        ln = lengths[rows_b]
        opv[(opv == 2) & (ln < 2)] = 9
        opv[(opv == 3) & (ln < 4)] = 9
        f1 = f1a[b_idx]
        f2 = f2a[b_idx]
        f3 = f3a[b_idx]
        sel = sela[b_idx]
        val = vala[b_idx]

        flat = mat.reshape(-1)
        m = opv == 0  # flip one bit
        if m.any():
            pos = (f1[m] * ln[m]).astype(np.int64)
            np.bitwise_xor.at(
                flat, rows_b[m] * width + pos,
                np.uint8(1) << (f2[m] * 8).astype(np.uint8))

        m = opv == 4  # arithmetic +/- (wraps mod 256)
        if m.any():
            pos = (f1[m] * ln[m]).astype(np.int64)
            delta = 1 + (sel[m] % ARITH_MAX)
            delta = np.where(f3[m] < 0.5, -delta, delta)
            np.add.at(flat, rows_b[m] * width + pos,
                      delta.astype(np.uint8))

        # Overwrites: collect per-byte (flat index, round, value)
        # triples, then keep the round-latest value per byte.
        lin_parts: list = []
        key_parts: list = []
        val_parts: list = []

        def emit(rows, rnds, cols, values):
            lin_parts.append(rows * width + cols)
            key_parts.append(rnds)
            val_parts.append(values)

        m = opv == 1  # interesting byte
        if m.any():
            pos = (f1[m] * ln[m]).astype(np.int64)
            emit(rows_b[m], rnds_b[m], pos,
                 INTERESTING_8[sel[m] % INTERESTING_8.size])

        m = opv == 2  # interesting word
        if m.any():
            pos = (f1[m] * (ln[m] - 1)).astype(np.int64)
            value = INTERESTING_16[sel[m] % INTERESTING_16.size]
            value = np.where(f3[m] < 0.5, value.byteswap(), value)
            emit(rows_b[m], rnds_b[m], pos,
                 (value & 0xFF).astype(np.uint8))
            emit(rows_b[m], rnds_b[m], pos + 1,
                 (value >> 8).astype(np.uint8))

        m = opv == 3  # interesting dword
        if m.any():
            pos = (f1[m] * (ln[m] - 3)).astype(np.int64)
            value = INTERESTING_32[sel[m] % INTERESTING_32.size]
            value = np.where(f3[m] < 0.5, value.byteswap(), value)
            for byte in range(4):
                emit(rows_b[m], rnds_b[m], pos + byte,
                     ((value >> (8 * byte)) & 0xFF).astype(np.uint8))

        m = opv == 5  # random byte
        if m.any():
            pos = (f1[m] * ln[m]).astype(np.int64)
            emit(rows_b[m], rnds_b[m], pos, val[m])

        m = opv == 8  # overwrite block from elsewhere
        if m.any():
            r, n_ = rows_b[m], ln[m]
            cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
            length = 1 + (f2[m] * cap).astype(np.int64)
            src = (f1[m] * (n_ - length + 1)).astype(np.int64)
            dst = (f3[m] * (n_ - length + 1)).astype(np.int64)
            within, src_cols = self._block_scatter(src, length)
            block_rows = np.repeat(r, length)
            emit(block_rows, np.repeat(rnds_b[m], length),
                 np.repeat(dst, length) + within,
                 flat[block_rows * width + src_cols])

        # constant-block overwrite: drawn op 9 plus guard fallbacks
        m = opv == 9
        i9 = np.concatenate([b_idx[m]] + fb_idx)
        if i9.size:
            r9 = rows[i9]
            n_ = lengths[r9]
            cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
            length = 1 + (f2a[i9] * cap).astype(np.int64)
            dst = (f1a[i9] * (n_ - length + 1)).astype(np.int64)
            _, dst_cols = self._block_scatter(dst, length)
            emit(np.repeat(r9, length), np.repeat(rnds[i9], length),
                 dst_cols, np.repeat(vala[i9], length))

        if lin_parts:
            lin = np.concatenate(lin_parts)
            if lin.size:
                key = np.concatenate(key_parts)
                values = np.concatenate(val_parts)
                # Round-latest value per byte without sorting: fold
                # (round, value) packed entries into a dense max
                # accumulator (a byte's round numbers are unique, so
                # the max picks the latest write), then write every
                # contended byte its winner — duplicate scatters all
                # carry the same value.
                acc = np.full(mat.size, -1, dtype=np.int16)
                np.maximum.at(acc, lin,
                              (key * 256 + values).astype(np.int16))
                mat.reshape(-1)[lin] = (acc[lin] & 0xFF).astype(np.uint8)

    def _length_tail(self, mat: np.ndarray, lengths: np.ndarray,
                     width: int, a_idx: np.ndarray, rows: np.ndarray,
                     starts: np.ndarray, counts: np.ndarray, step: int,
                     op: np.ndarray, f1a: np.ndarray, f2a: np.ndarray,
                     f3a: np.ndarray, f4a: np.ndarray,
                     vala: np.ndarray, fb_idx: list) -> None:
        """Finish the remaining length-op stacks with row slices.

        Once few mutants still have pending deletes/inserts, the fixed
        cost of a vectorized :meth:`_length_step` exceeds plain
        slice-copy work, so the deep tail of the longest stacks runs
        sequentially. Bit-identical to the vectorized step: same
        formulas, same guard fallbacks, same write order per mutant.
        """
        min_len = self.min_len
        fb: list = []
        for row in np.flatnonzero(counts > step):
            row_v = mat[row]
            for j in range(starts[row] + step,
                           starts[row] + counts[row]):
                cell = int(a_idx[j])
                ln = int(lengths[row])
                cap = max(1, int(ln * _BLOCK_FRACTION))
                length = 1 + int(f2a[cell] * cap)
                if op[cell] == 6:  # delete block
                    if ln <= min_len:
                        fb.append(cell)
                        continue
                    start = int(f1a[cell] * (ln - length + 1))
                    row_v[start:ln - length] = \
                        row_v[start + length:ln].copy()
                    row_v[ln - length:ln] = 0
                    lengths[row] = max(min_len, ln - length)
                else:  # clone / insert block
                    if ln >= width:
                        fb.append(cell)
                        continue
                    src = int(f1a[cell] * (ln - length + 1))
                    dst = int(f3a[cell] * (ln + 1))
                    if f4a[cell] < 0.75:
                        block = row_v[src:src + length].copy()
                    else:
                        block = vala[cell]
                    tail = row_v[dst:ln].copy()
                    t_end = min(width, ln + length)
                    tail_fit = t_end - (dst + length)
                    if tail_fit > 0:
                        row_v[dst + length:t_end] = tail[:tail_fit]
                    b_end = min(width, dst + length)
                    if isinstance(block, np.ndarray):
                        row_v[dst:b_end] = block[:b_end - dst]
                    else:
                        row_v[dst:b_end] = block
                    lengths[row] = min(width, ln + length)
        if fb:
            fb_idx.append(np.asarray(fb, dtype=np.int64))

    def _length_step(self, mat: np.ndarray, lengths: np.ndarray,
                     width: int, r: np.ndarray, is_del: np.ndarray,
                     n_: np.ndarray, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray, d: np.ndarray,
                     v: np.ndarray) -> None:
        """One stack position of block deletes/inserts, fused.

        Both ops are "move the tail, then write a region": a delete
        shifts ``[start+length, n)`` left and zeroes the vacated end, a
        clone/insert shifts ``[dst, n)`` right and writes the block into
        the gap. Fusing them means one gather/scatter pair for all tail
        moves and one for all region writes, regardless of the
        delete/insert mix. Rows in ``r`` are distinct, so the ops are
        independent; all gathers land before any scatter.
        """
        cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
        length = 1 + (b * cap).astype(np.int64)
        # Delete's block start and insert's clone source share a formula.
        src = (a * (n_ - length + 1)).astype(np.int64)
        dst = (c * (n_ + 1)).astype(np.int64)  # unused for deletes
        # Clone sources are the only region bytes that must be read
        # before any scatter lands; deletes fill with zeros and the
        # rest with a constant, so those skip the gather entirely.
        flat = mat.reshape(-1)
        base = r * width  # 1-D fancy indexing beats 2-D row/col pairs
        clone = ~is_del & (d < 0.75)
        within_c, src_cols_c = self._block_scatter(src[clone],
                                                   length[clone])
        clone_base = np.repeat(base[clone], length[clone])
        clone_vals = flat[clone_base + src_cols_c]
        # Tail move: [move_from, n) shifts to start at move_to.
        move_from = np.where(is_del, src + length, dst)
        move_to = np.where(is_del, src, dst + length)
        tail_len = n_ - move_from
        _, from_cols = self._block_scatter(move_from, tail_len)
        tail_base = np.repeat(base, tail_len)
        tail_vals = flat[tail_base + from_cols]
        to_cols = from_cols + np.repeat(move_to - move_from, tail_len)
        if to_cols.size and int(to_cols.max()) >= width:
            keep = to_cols < width
            tail_base, to_cols = tail_base[keep], to_cols[keep]
            tail_vals = tail_vals[keep]
        flat[tail_base + to_cols] = tail_vals
        # Region writes: the vacated end (delete, zeros), the cloned
        # block, or the constant fill — distinct rows per class, so
        # three scatters land exactly what the fused one did.
        del_base = np.repeat(base[is_del], length[is_del])
        _, del_cols = self._block_scatter((n_ - length)[is_del],
                                          length[is_del])
        flat[del_base + del_cols] = 0
        clone_cols = within_c + np.repeat(dst[clone], length[clone])
        if clone_cols.size and int(clone_cols.max()) >= width:
            keep = clone_cols < width
            clone_base, clone_cols = clone_base[keep], clone_cols[keep]
            clone_vals = clone_vals[keep]
        flat[clone_base + clone_cols] = clone_vals
        const = ~is_del & (d >= 0.75)
        within_k, _ = self._block_scatter(dst[const], length[const])
        const_base = np.repeat(base[const], length[const])
        const_cols = within_k + np.repeat(dst[const], length[const])
        const_vals = np.repeat(v[const], length[const])
        if const_cols.size and int(const_cols.max()) >= width:
            keep = const_cols < width
            const_base, const_cols = const_base[keep], const_cols[keep]
            const_vals = const_vals[keep]
        flat[const_base + const_cols] = const_vals
        lengths[r] = np.where(
            is_del, np.maximum(self.min_len, n_ - length),
            np.minimum(width, n_ + length))
