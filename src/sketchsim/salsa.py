"""Byte-granular two-field counters with buddy merging.

Memory-efficient variant of the weighted similarity sketch: each row
starts as ``width`` one-byte logical slots (one cm byte, one c byte per
slot) laid out in a ring. When a pending update would leave a slot's
current value range, the slot merges with its buddy (the adjacent,
equal-length, alignment-determined clockwise neighbor) into one logical
counter of twice the byte length, adding both fields. Merging repeats as
counters fill, so heavy regions trade resolution for range while the
memory footprint never changes.

Hashing always targets the initial 1-byte slot positions; layout changes
only alter which logical counter a position resolves to. Extents obey the
buddy discipline (power-of-two byte lengths, start aligned to length,
tiling the row), so the extents of any two layouts nest. Two sketches
that merged differently are therefore compared in the layout given by
the positionwise maximum of their level maps. Bytes that are not an
extent start hold 0 in both fields, so in any layout no finer than a
row's own, a counter is the plain sum of its block's bytes.

The sketch shares its params, budget check, counter caps, entry points
and compatibility checks with the grid sketches of
:mod:`sketchsim.sketches`, its slot pass, ``HashFamily.slots``, with them
and the cm adapter, and scores each aligned row with the grid's
:func:`weighted_row_similarity`. Only the row storage and its growth are
its own.

A batch insert takes that slot pass, which feeds each row its chunk of
positions and sign bits. The row counts each touched extent's
arrivals and +1 signs: with the grids' cut, by one ``bincount`` of a
sign-offset key when its two bins per byte are fewer than a hash chunk's
items, and by a sort of the extent starts in a wider row. A counter
always holds its block's value from before the chunk plus every arrival
into the block since. Before a block forms, that value is at most twice
its halves' cap, below its own, so a block forms its parent exactly when
the value passes its cap anywhere in the chunk. The final value settles
that for most blocks: one that ends past its cap grows, and one whose
worst case fits does not. Only the other blocks' arrivals are walked in
arrival order, for c's running extremes. The row decides every growth so
before it writes, then adds each extent's count and sign sum and
coalesces the formed blocks. That equals adding the arrivals one at a
time, each first growing its counter until the new value fits, as the
tests' replay does, except that a chunk that saturates the row raises
:class:`RowSaturatedError` with the row unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from sketchsim.core import Algo, BudgetTooSmallError, RowSaturatedError, SketchParams
from sketchsim.core import check_budget, integer_arg
from sketchsim.hashing import HASH_CHUNK
from sketchsim.sketches import _C_CAPS, _CM_CAPS, _CounterSketch, weighted_row_similarity

# Per initial slot: one cm byte, one c byte, and one merge-indicator bit
# per field byte. Memory accounting is bit-granular because 18 bits is
# not a whole byte count.
SLOT_BITS = 18


def _over(level, cm: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray) -> np.ndarray:
    """Whether a counter at ``level`` whose cm reaches ``cm`` and whose
    c spans ``[c_lo, c_hi]`` leaves its range."""
    g = np.minimum(level, 3)
    return (cm > _CM_CAPS[g]) | (c_hi > _C_CAPS[g]) | (c_lo < -_C_CAPS[g])


def _starts(level: np.ndarray) -> np.ndarray:
    """Start positions of the extents of the level map ``level``, ascending."""
    pos = np.arange(len(level))
    return pos[(pos & ((1 << level.astype(np.int64)) - 1)) == 0]


def salsa_width(memory_bytes: int, rows: int) -> int:
    """Initial slots per row: byte budget at 18 bits per slot, floored to
    a power of two so full-row merges stay well-formed."""
    memory_bytes, rows = check_budget(memory_bytes, rows)
    raw = (memory_bytes * 8) // (rows * SLOT_BITS)
    if raw < 1:
        raise BudgetTooSmallError(
            f"{memory_bytes} bytes cannot fit one 18-bit slot in each of {rows} rows"
        )
    return 1 << (raw.bit_length() - 1)


class SalsaRow:
    """One ring of logical counters over ``width`` byte positions.

    ``level_of[p]`` is log2 of the byte length of the logical counter
    containing position ``p``. A counter's values live at its extent's
    start; every other byte holds 0 in both fields.
    """

    __slots__ = ("width", "level_of", "cm", "c")

    def __init__(self, width: int) -> None:
        width = integer_arg(width, "width", 1)
        if width & (width - 1):
            raise ValueError(f"width must be a power of two, got {width}")
        self.width = width
        self.level_of = np.zeros(width, dtype=np.int8)
        self.cm = np.zeros(width, dtype=np.int64)
        self.c = np.zeros(width, dtype=np.int64)

    def extents(self) -> Iterator[Tuple[int, int]]:
        """All (start, byte_length) extents in ring order."""
        starts = _starts(self.level_of)
        return zip(starts.tolist(), (1 << self.level_of[starts].astype(np.int64)).tolist())

    def copy(self) -> "SalsaRow":
        row = SalsaRow(self.width)
        row.level_of = self.level_of.copy()
        row.cm = self.cm.copy()
        row.c = self.c.copy()
        return row

    def coalesce(self, starts, g: int) -> None:
        """Make each g-aligned block at ``starts``, one start or an array
        of them, one logical counter holding the sums of the block's bytes.

        Raises ``ValueError``, with the row unchanged, if ``g`` is not a
        level of this row, a start is not a multiple of ``2**g``, a block
        lies outside the row, or a block lies inside a wider counter.
        """
        starts = np.atleast_1d(starts)
        if not starts.size:
            return
        if 0 <= g < self.width.bit_length():
            bad = (starts & ((1 << g) - 1) != 0) | (starts < 0) | (starts > self.width - (1 << g))
        else:
            bad = np.ones(starts.shape, dtype=bool)
        if bad.any():
            start = starts[bad][0]
            raise ValueError(f"no level-{g} block starts at {start} in this {self.width}-byte row")
        inside = self.level_of[starts] > g
        if inside.any():
            start = starts[inside][0]
            raise ValueError(
                f"block at {start} already part of a level-{self.level_of[start]} counter"
            )
        pos = starts[:, None] + np.arange(1 << g)
        for field in (self.cm, self.c):
            sums = field[pos].sum(axis=1)
            field[pos] = 0
            field[starts] = sums
        self.level_of[pos] = g

    def add_many(self, positions: np.ndarray, sign_bits: np.ndarray) -> None:
        """Add each arrival, in order, to the counter holding its position:
        1 to cm, and its sign to c. A counter whose value would leave its
        level's range first coalesces its parent block, as often as needed.

        ``positions`` and ``sign_bits`` are int64 arrays as long as a
        hash chunk at most; a sign bit is 1 for +1 and 0 for -1. Raises
        :class:`RowSaturatedError` if the whole-row counter would have to
        grow, with the row unchanged: the chunk is applied whole or not at all.

        Each touched extent's arrivals are counted, :meth:`_growths`
        decides the growths from those counts, and each extent then takes
        its count and sign sum in one step.
        """
        ext, n, up = self._extent_counts(positions, sign_bits)
        level, c = self.level_of[ext], self.c[ext]
        risky = _over(level, self.cm[ext] + n, c + up, c - (n - up))
        growths = self._growths(positions, sign_bits, (ext, n, up), ext[risky], level[risky])
        self.cm[ext] += n
        self.c[ext] += 2 * up - n
        for g, starts in growths:
            self.coalesce(starts, g)

    def _extent_counts(
        self, positions: np.ndarray, sign_bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ext, n, up)``: the starts, ascending, of the extents the
        arrivals fall in, and each extent's arrival count and +1 count."""
        width = self.width
        ext = np.left_shift(np.int64(-1), self.level_of[positions])
        ext &= positions
        # The grids' cut: a dense count costs O(bins) per chunk, a sort
        # O(m log m) for m arrivals. On one full hash chunk (numpy 2.4.6),
        # the count takes 0.1 ms at widths 2^7 to 2^13, the sort 0.6-1.1;
        # at 2^16 they are level, and at 2^19, a 2 MB row, the count takes
        # 6.1 ms and the sort 0.9.
        if 2 * width < HASH_CHUNK:
            # Extent e counts at e + s*width, where s is the sign bit.
            ext += sign_bits * width
            counts = np.bincount(ext, minlength=2 * width)
            up = counts[width:]
            n = counts[:width] + up
            touched = np.flatnonzero(n)
            return touched, n[touched], up[touched]
        ext <<= 1
        ext |= sign_bits
        ext.sort()
        head = np.flatnonzero(np.diff(ext >> 1, prepend=-1))
        return ext[head] >> 1, np.diff(head, append=len(ext)), np.add.reduceat(ext & 1, head)

    def _growths(
        self,
        positions: np.ndarray,
        sign_bits: np.ndarray,
        counts: Tuple[np.ndarray, np.ndarray, np.ndarray],
        risky: np.ndarray,
        level: np.ndarray,
    ) -> List[Tuple[int, np.ndarray]]:
        """The blocks a chunk forms, as ``(g, starts)`` by rising level
        ``g``; raises :class:`RowSaturatedError` if the whole-row counter
        would pass its cap.

        ``counts`` is :meth:`_extent_counts` of the chunk's arrivals, and
        ``risky`` the starts of the extents, at levels ``level``, whose
        worst case passes their cap. A block forms its parent if its
        running value passes its cap anywhere in the chunk, formed or
        not at that arrival: before it forms, its value stays below its
        cap. The final value decides that for most blocks; only the
        others' arrivals are walked in order.
        """
        ext, n, up = counts
        top = self.width.bit_length() - 1
        formed: List[Tuple[int, np.ndarray]] = []
        starts = np.empty(0, dtype=np.int64)
        for g in range(int(level.min(initial=top + 1)), top + 1):
            starts = np.sort(np.concatenate((starts, risky[level == g])))
            if not starts.size:
                if g >= level.max():
                    break
                continue
            # A block's extents are one run ext[lo:hi] of the ascending
            # ``ext``; the blocks' runs are disjoint and ascending, so
            # reduceat over the interleaved bounds sums them, reading the
            # last run to the end where its bound is the end.
            bounds = np.searchsorted(ext, np.stack((starts, starts + (1 << g)), 1).ravel())
            bounds = bounds[: -1 if bounds[-1] == len(ext) else None]
            count, plus = np.add.reduceat(n, bounds)[::2], np.add.reduceat(up, bounds)[::2]
            pos = starts[:, None] + np.arange(1 << g)
            cm, c = self.cm[pos].sum(axis=1), self.c[pos].sum(axis=1)
            cm_end, c_end = cm + count, c + 2 * plus - count
            over = _over(g, cm_end, c_end, c_end)
            walk = _over(g, cm_end, c + plus, c - (count - plus)) & ~over
            if walk.any():
                steps = self._in_order(positions, sign_bits, starts[walk], g)
                over[walk] = self._overflows(steps, count[walk], cm[walk], c[walk], g)
            if g == top:
                if over.any():
                    raise RowSaturatedError(
                        f"counter spans the whole {self.width}-byte row and cannot grow"
                    )
                break
            # Ascending, a parent formed by both halves is listed twice in a row.
            parents = starts[over] & -(2 << g)
            starts = parents[np.diff(parents, prepend=-1) != 0]
            formed.append((g + 1, starts))
        return formed

    def _in_order(
        self, positions: np.ndarray, sign_bits: np.ndarray, starts: np.ndarray, g: int
    ) -> np.ndarray:
        """The c steps, +1 or -1, of the arrivals into the level-``g``
        blocks at ``starts``, by ascending block and in arrival order within
        a block: blocks are aligned, so one lookup by ``position >> g``
        picks their arrivals, and a stable sort by block keeps that order."""
        pick = np.zeros(self.width >> g, dtype=bool)
        pick[starts >> g] = True
        block = positions >> g
        index = np.flatnonzero(pick[block])
        return 2 * sign_bits[index[np.argsort(block[index], kind="stable")]] - 1

    def _overflows(
        self, steps: np.ndarray, count: np.ndarray, cm0: np.ndarray, c0: np.ndarray, g: int
    ) -> np.ndarray:
        """Per level-``g`` block, worth ``cm0`` and ``c0`` before the chunk,
        whether its running value passes its cap anywhere in the chunk, from
        :meth:`_in_order`'s c ``steps`` of the ``count`` arrivals, at least
        one, into each block. cm only rises, so its final value decides; c,
        its running extremes."""
        head = np.cumsum(count) - count
        run = np.cumsum(steps)
        base = run[head] - steps[head]
        hi = np.maximum.reduceat(run, head) - base
        lo = np.minimum.reduceat(run, head) - base
        return _over(g, cm0 + count, c0 + hi, c0 + lo)

    def coarsened(self, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(cm, c) of this row's counters summed, without changing the row,
        into the layout whose extents begin at ``starts`` (ascending), no
        finer than the row's own anywhere: extents nest, so each coarser
        counter is the sum of its bytes."""
        return np.add.reduceat(self.cm, starts), np.add.reduceat(self.c, starts)

    def total_cm(self) -> int:
        return int(self.cm.sum())

    def total_c(self) -> int:
        return int(self.c.sum())


class SalsaSimilaritySketch(_CounterSketch):
    """Weighted similarity sketch over self-adjusting byte counters."""

    ALGO = Algo.SALSA

    def __init__(self, params: SketchParams) -> None:
        super().__init__(params)
        self.rows = [SalsaRow(params.width) for _ in range(params.rows)]

    @classmethod
    def _budget_width(cls, memory_bytes: int, rows: int) -> int:
        return salsa_width(memory_bytes, rows)

    def _insert(self, items: np.ndarray) -> None:
        """A batch that could saturate a row goes to copies of the rows,
        which replace them only once every row has absorbed all of it, so
        saturation applies nothing. Only the whole-row counter can
        saturate, and its ``|c| <= cm`` is at most the row's arrival
        count, so while that count stays within the counter's c cap the
        rows take the batch in place, under :meth:`insert_many`'s
        contract for writes in place."""
        top = min(self.params.width.bit_length() - 1, 3)
        if self.total_inserted + items.size <= _C_CAPS[top]:
            rows = self.rows
        else:
            rows = [row.copy() for row in self.rows]
        for row, positions, sign_bits in self.hash.slots(items, self.params.width):
            rows[row].add_many(positions, sign_bits)
        self.rows = rows

    def _jaccard(self, other: "SalsaSimilaritySketch") -> float:
        """Weighted two-field estimate over aligned logical counters: each
        row pair's common starts, from the positionwise maximum of its level
        maps, are found once, and both rows are coarsened to them and
        scored. Neither operand changes."""
        acc = 0.0
        for row_a, row_b in zip(self.rows, other.rows):
            starts = _starts(np.maximum(row_a.level_of, row_b.level_of))
            cm_a, c_a = row_a.coarsened(starts)
            cm_b, c_b = row_b.coarsened(starts)
            acc += weighted_row_similarity(cm_a, cm_b, c_a, c_b)
        return acc / self.params.rows
