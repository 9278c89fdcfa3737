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

#: At or below this many live mutants, a vectorized length-op step costs
#: more than finishing the remaining stacks with plain row slices (16
#: timed best on both 1,024-row and 128-row zlib windows).
_SCALAR_STEP_CUTOFF = 16


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the spans ``[starts[i], starts[i] + lens[i])``,
    concatenated: one ``np.repeat`` plus one ``arange``, however many
    spans. ``lens`` must be non-negative."""
    ends = np.cumsum(lens)
    idx = np.repeat(starts - ends + lens, lens)
    idx += np.arange(idx.size)
    return idx


def _stride(width: int) -> int:
    """Row stride of the length-op buffer for ``width``-byte rows: room
    for the furthest byte a window step can touch. A delete's windows
    end by ``2 * width``; an insert writes its tail window (under
    ``width`` bytes) past a block of at most a quarter of the row,
    starting below ``width``."""
    return 2 * width + max(1, width // 4)


def _windows(flat: np.ndarray, size: int) -> np.ndarray:
    """Every ``size``-byte window of ``flat`` as one row of a strided
    view: ``_windows(flat, size)[s]`` is ``flat[s:s + size]``. A fancy
    index of start offsets then gathers or scatters whole windows, each
    a contiguous copy, without a per-byte index array."""
    return np.ndarray((flat.size - size + 1, size), np.uint8,
                      buffer=flat, strides=(1, 1))


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

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> np.ndarray:
        """``batch[i]`` is :meth:`row`: the batch is a sequence of
        exact-length row views, built only when indexed."""
        return self.row(i)

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
        lengths = np.empty(total, dtype=np.int64)
        if not total:
            return MutantBatch(data=np.zeros((0, width), dtype=np.uint8),
                               lengths=lengths)

        # The draws' cells are already flat and row-major, which
        # :meth:`_apply_stacked` requires: the window's are their
        # concatenation. The start rows go in as a plain argument (a
        # ``*args`` tuple would hold them for the whole call), so the
        # wide buffer is freed as soon as phase A is done with it.
        n_ops = np.concatenate([d.n_ops for d in draws])
        op, f1, f2, f3, f4, sel, val = (
            np.concatenate([getattr(d, name) for d in draws])
            for name in _CELL_FIELDS)
        mat = self._apply_stacked(
            self._start_rows(draws, bounds, width, lengths), lengths,
            width, np.repeat(np.arange(total), n_ops),
            _spans(np.zeros_like(n_ops), n_ops),
            op, f1, f2, f3, f4, sel, val)

        if self.dictionary:
            self.dictionary.stamp(
                mat, lengths, np.concatenate([d.stamp for d in draws],
                                             axis=1))
        return MutantBatch(data=mat, lengths=lengths)

    def _start_rows(self, draws: Sequence["HavocDraw"], bounds: np.ndarray,
                    width: int, lengths: np.ndarray) -> np.ndarray:
        """Each mutant's bytes before its stack: the base (or random
        fill for an empty base), spliced where drawn, cut at ``width``.

        Rows are laid out in the length-op buffer of
        :meth:`_apply_stacked`, ``_stride(width)`` bytes apart and zero
        past their lengths, which are written into ``lengths``.
        """
        stride = _stride(width)
        buf = np.zeros((int(bounds[-1]), stride), dtype=np.uint8)
        mat, flat = buf[:, :width], buf.reshape(-1)
        for k, d in enumerate(draws):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            base = d.base
            if base.size:
                size = min(base.size, width)
                lengths[lo:hi] = size
                mat[lo:hi, :size] = base[:size]
            else:
                mat[lo:hi, :self.min_len] = d.fill
                lengths[lo:hi] = self.min_len
            if d.do_splice is not None:
                # base[:cut_a] + partner[cut_b:], cut at the width: the
                # base copy already holds the head, so write the partner
                # tail over it and zero what is left of the base past
                # the joined end.
                i = np.flatnonzero(d.do_splice)
                ca, cb = d.cut_a[i], d.cut_b[i]
                row0 = (lo + i) * stride
                end = np.minimum(width, ca + (d.partner.size - cb))
                tail = np.maximum(end - ca, 0)
                dst = _spans(row0 + ca, tail)
                flat[dst] = d.partner[dst - np.repeat(row0 + ca - cb, tail)]
                flat[_spans(row0 + end, np.maximum(size - end, 0))] = 0
                lengths[lo + i] = end
        return buf

    def _apply_stacked(self, buf: np.ndarray, lengths: np.ndarray,
                       width: int, rows: np.ndarray, rnds: np.ndarray,
                       op: np.ndarray, f1a: np.ndarray, f2a: np.ndarray,
                       f3a: np.ndarray, f4a: np.ndarray,
                       sela: np.ndarray, vala: np.ndarray) -> np.ndarray:
        """Apply every mutant's havoc stack in canonical type-major order.

        Inputs are flat parallel arrays with one entry per live
        (row, round) stack cell, sorted row-major — grouped by ``rows``
        with ``rnds`` ascending inside each group (the order
        :meth:`havoc_apply` builds). ``buf`` holds the start rows
        (:meth:`_start_rows`) ``_stride(width)`` bytes apart, every
        byte past a row's length zero, its margin past ``width``
        included. The result is a new ``(rows, width)`` matrix.

        Phase A: length-changing ops (delete/insert) run first, per
        mutant in round order, vectorized across mutants one stack
        position at a time with :meth:`_window_step`, on ``buf``. Each
        step keeps the zero margin, which is what lets it move a row's
        tail as one fixed-size window instead of a per-byte span. Once
        a step has at most :data:`_SCALAR_STEP_CUTOFF` mutants left,
        :meth:`_length_tail` finishes the remaining stacks row by row.
        The rows are then cut to ``width`` and ``buf`` is dropped.

        Phase B: byte-level ops run against the final geometry in a
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
            # Step-major layout: stack position ``s`` of every mutant
            # is one contiguous run of cells, sorted by kind (0 delete,
            # 1 clone, 2 constant insert), so a step's cells and their
            # kinds are slices. The sort key fits 16 bits (a stack has
            # at most 2**HAVOC_STACK_POW2 rounds), so the sort is a radix
            # sort.
            pos = _spans(np.zeros_like(counts), counts)
            kind = np.where(op[a_idx] == 6, 0, 1 + (f4a[a_idx] >= 0.75))
            order = np.argsort((pos * 3 + kind).astype(np.uint16),
                               kind="stable")
            cells = a_idx[order]
            per_cell = (cells, rows[cells], kind[order], f1a[cells],
                        f2a[cells], f3a[cells], vala[cells])
            lo = 0
            for step, hi in enumerate(np.cumsum(np.bincount(pos))):
                if hi - lo <= _SCALAR_STEP_CUTOFF:
                    self._length_tail(buf, lengths, width, a_idx, rows,
                                      starts, counts, step, op, f1a,
                                      f2a, f3a, f4a, vala, fb_idx)
                    break
                cell, r, k, f1, f2, f3, v = (x[lo:hi] for x in per_cell)
                lo = hi
                ln = lengths[r]
                bad = np.where(k == 0, ln <= self.min_len, ln >= width)
                if bad.any():
                    fb_idx.append(cell[bad])
                    good = ~bad
                    r, k, ln, f1, f2, f3, v = (
                        x[good] for x in (r, k, ln, f1, f2, f3, v))
                self._window_step(buf, lengths, width, r, k, ln, f1, f2,
                                  f3, v)
        mat = buf[:, :width].copy()
        del buf

        # -- phase B: byte-level ops against the final geometry --
        # Group the cells by op once (a stable sort of uint8 codes is a
        # radix sort), so each op reads a contiguous slice of cells and
        # gathers only the parameters it uses.
        b_idx = np.flatnonzero(~is_len)
        ln = lengths[rows[b_idx]]
        opv = op[b_idx].astype(np.uint8)
        opv[(opv == 2) & (ln < 2)] = 9
        opv[(opv == 3) & (ln < 4)] = 9
        groups = np.split(b_idx[np.argsort(opv, kind="stable")],
                          np.cumsum(np.bincount(opv, minlength=10))[:-1])
        # constant-block overwrite: drawn op 9 plus guard fallbacks
        groups[9] = np.concatenate([groups[9]] + fb_idx)

        def at(cells):
            """Row start in ``flat`` and final length of each cell."""
            r = rows[cells]
            return r * width, lengths[r]

        flat = mat.reshape(-1)
        c = groups[0]  # flip one bit
        if c.size:
            row0, n_ = at(c)
            np.bitwise_xor.at(
                flat, row0 + (f1a[c] * n_).astype(np.int64),
                np.uint8(1) << (f2a[c] * 8).astype(np.uint8))

        c = groups[4]  # arithmetic +/- (wraps mod 256)
        if c.size:
            row0, n_ = at(c)
            delta = 1 + (sela[c] % ARITH_MAX)
            delta = np.where(f3a[c] < 0.5, -delta, delta)
            np.add.at(flat, row0 + (f1a[c] * n_).astype(np.int64),
                      delta.astype(np.uint8))

        # Overwrites: collect per-byte flat indices and packed int16
        # keys, then keep the round-latest value per byte.
        lin_parts: list = []
        key_parts: list = []

        def packed(cells, values):
            """``round * 256 + value`` per cell, packed into int16 before
            any block is expanded (rounds stay below 128)."""
            return (rnds[cells] * 256 + values).astype(np.int16)

        c = groups[1]  # interesting byte
        if c.size:
            row0, n_ = at(c)
            lin_parts.append(row0 + (f1a[c] * n_).astype(np.int64))
            key_parts.append(packed(c, INTERESTING_8[
                sela[c] % INTERESTING_8.size]))

        for c, table in ((groups[2], INTERESTING_16),  # word
                         (groups[3], INTERESTING_32)):  # dword
            if c.size:
                row0, n_ = at(c)
                size = table.itemsize
                pos = row0 + (f1a[c] * (n_ - size + 1)).astype(np.int64)
                value = table[sela[c] % table.size]
                value = np.where(f3a[c] < 0.5, value.byteswap(), value)
                # byte k of the little-endian value lands at pos + k
                lin_parts.append((pos[:, None] + np.arange(size)).ravel())
                key_parts.append(packed(c[:, None], value.astype(
                    f"<u{size}", copy=False).view(np.uint8).reshape(
                        -1, size)).ravel())

        c = groups[5]  # random byte
        if c.size:
            row0, n_ = at(c)
            lin_parts.append(row0 + (f1a[c] * n_).astype(np.int64))
            key_parts.append(packed(c, vala[c]))

        c = groups[8]  # overwrite block from elsewhere
        if c.size:
            row0, n_ = at(c)
            cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
            length = 1 + (f2a[c] * cap).astype(np.int64)
            src = (f1a[c] * (n_ - length + 1)).astype(np.int64)
            dst = (f3a[c] * (n_ - length + 1)).astype(np.int64)
            lin = _spans(row0 + dst, length)
            lin_parts.append(lin)
            # A packed round's low byte is zero, so adding the source
            # byte cannot carry out of it.
            key_parts.append(np.repeat(packed(c, 0), length) +
                             flat[lin + np.repeat(src - dst, length)])

        c = groups[9]
        if c.size:
            row0, n_ = at(c)
            cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
            length = 1 + (f2a[c] * cap).astype(np.int64)
            dst = (f1a[c] * (n_ - length + 1)).astype(np.int64)
            lin_parts.append(_spans(row0 + dst, length))
            key_parts.append(np.repeat(packed(c, vala[c]), length))

        if lin_parts:
            lin = np.concatenate(lin_parts)
            # Round-latest value per byte without sorting: fold the
            # packed keys into a dense max accumulator (a byte's round
            # numbers are unique, so the max picks the latest write),
            # then write every contended byte its winner — duplicate
            # scatters all carry the same value.
            acc = np.full(mat.size, -1, dtype=np.int16)
            np.maximum.at(acc, lin, np.concatenate(key_parts))
            flat[lin] = acc[lin].astype(np.uint8)
        return mat

    def _length_tail(self, buf: np.ndarray, lengths: np.ndarray,
                     width: int, a_idx: np.ndarray, rows: np.ndarray,
                     starts: np.ndarray, counts: np.ndarray, step: int,
                     op: np.ndarray, f1a: np.ndarray, f2a: np.ndarray,
                     f3a: np.ndarray, f4a: np.ndarray,
                     vala: np.ndarray, fb_idx: list) -> None:
        """Finish the remaining length-op stacks with row slices.

        Once few mutants still have pending deletes/inserts, the fixed
        cost of a vectorized :meth:`_window_step` exceeds plain
        slice-copy work, so the deep tail of the longest stacks runs
        sequentially, from stack position ``step`` on. Bit-identical to
        the vectorized step: same formulas, same guard fallbacks, same
        write order per mutant. Every write is clipped at ``width`` and
        a delete zeroes the bytes it vacates, so the rows of ``buf``
        stay zero past their lengths, margin included.
        """
        min_len = self.min_len
        fb: list = []
        for row in np.flatnonzero(counts > step):
            row_v = buf[row]
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

    def _window_step(self, buf: np.ndarray, lengths: np.ndarray,
                     width: int, r: np.ndarray, kind: np.ndarray,
                     n_: np.ndarray, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray, v: np.ndarray) -> None:
        """One stack position of block deletes/inserts, as window copies.

        Every byte of ``buf`` past a row's length is zero, the margin
        past ``width`` included, so a tail can be moved as one window
        of a fixed size ``T`` per step (the longest tail of the step):
        the bytes a shorter row's window takes past its end are zeros.
        Each window is one row of the strided view :func:`_windows`,
        indexed by per-row flat start offsets, so a copy is contiguous
        and no per-byte index array is built.

        - A delete is one window copy from ``src + length`` to ``src``;
          the zeros past the row's end fill the vacated bytes.
        - An insert gathers the tails ``[dst, dst + T)``, writes the
          clone (gathered first) or constant blocks at ``dst`` as
          windows of the step's longest block, then writes the tails at
          ``dst + length``. ``T`` also covers the longest block's
          overrun past a shorter one, so the tail write overwrites it.
          Only rows pushed past ``width`` leave bytes in the margin,
          and only those get their margin zeroed again.

        Rows in ``r`` are distinct, so the ops are independent, and
        ``kind`` is sorted (0 delete, 1 clone, 2 constant insert), so
        each kind is one slice of the step.
        """
        cap = np.maximum(1, (n_ * _BLOCK_FRACTION).astype(np.int64))
        length = 1 + (b * cap).astype(np.int64)
        # Delete's block start and insert's clone source share a formula.
        src = (a * (n_ - length + 1)).astype(np.int64)
        row0 = r * buf.shape[1]
        flat = buf.reshape(-1)
        d, k = np.searchsorted(kind, (1, 2))
        if d:
            at = row0[:d] + src[:d]
            view = _windows(flat, int((n_[:d] - src[:d]).max()))
            view[at] = view[at + length[:d]]
        if d < kind.size:
            ln, size = n_[d:], length[d:]
            dst = row0[d:] + (c[d:] * (ln + 1)).astype(np.int64)
            block = int(size.max())
            tails = _windows(flat, max(int((row0[d:] + ln - dst).max()),
                                       block - int(size.min())))
            moved = tails[dst]
            blocks = _windows(flat, block)
            blocks[dst[:k - d]] = blocks[row0[d:k] + src[d:k]]
            blocks[dst[k - d:]] = v[k:, None]
            tails[dst + size] = moved
            over = ln + size > width
            if over.any():
                buf[r[d:][over], width:] = 0
        lengths[r] = np.where(
            kind == 0, np.maximum(self.min_len, n_ - length),
            np.minimum(width, n_ + length))
