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

The sketch shares its params, hashing, entry points and compatibility
checks with the grid sketches of :mod:`sketchsim.sketches`, and scores
each aligned row with the grid's :func:`weighted_row_similarity`. Only
the row storage and its growth are its own.

A batch insert hashes through the grids' chunked pass,
:meth:`HashFamily.chunk_hashes`, and feeds each row its chunk of
positions and sign bits. A counter always holds its block's value from
before the chunk plus every arrival into the block since. Before a block
forms, that value is at most twice its halves' cap, below its own, so a
block forms its parent exactly when the value passes its cap anywhere in
the chunk. The row decides every growth so before it writes, then adds
each extent's arrival count and sign sum and coalesces the formed
blocks. That equals adding the arrivals one at a time, each first
growing its counter until the new value fits, as the tests' replay does,
except that a chunk that saturates the row raises
:class:`RowSaturatedError` with the row unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from sketchsim.core import Algo, BudgetTooSmallError, RowSaturatedError, SketchParams
from sketchsim.hashing import HashKind, bucket_of
from sketchsim.sketches import _CounterSketch, weighted_row_similarity

# Per initial slot: one cm byte, one c byte, and one merge-indicator bit
# per field byte. Memory accounting is bit-granular because 18 bits is
# not a whole byte count.
SLOT_BITS = 18

# Counter caps by level: a level-g counter has 2**g bytes per field, and
# the signed range is symmetric. Caps above level 2 pass int64; they are
# clamped, which changes no decision, because no counter can exceed the
# number of arrivals inserted.
_CM_CAPS = np.array([255, (1 << 16) - 1, (1 << 32) - 1, (1 << 62) - 1], dtype=np.int64)
_C_CAPS = np.array([127, (1 << 15) - 1, (1 << 31) - 1, (1 << 61) - 1], dtype=np.int64)


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
    if memory_bytes < 1 or rows < 1:
        raise ValueError(
            f"memory_bytes and rows must be positive, got ({memory_bytes}, {rows})"
        )
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
        if width < 1 or width & (width - 1):
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
        of them, one logical counter holding the sums of the block's bytes."""
        starts = np.atleast_1d(starts)
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
        """
        m = len(positions)
        # One key ``start << shift | index << 1 | bit`` per arrival, where
        # ``start`` is its current extent's start: sorted, the keys group
        # the arrivals by extent, each group in arrival order.
        shift = m.bit_length() + 1
        key = np.left_shift(np.int64(-1), self.level_of[positions])
        key &= positions
        key <<= shift
        key |= np.arange(m) << 1 | sign_bits
        key.sort()
        head = np.flatnonzero(np.diff(key >> shift, prepend=-1))
        ext = key[head] >> shift
        n, up = np.diff(head, append=m), np.add.reduceat(key & 1, head)
        level, c = self.level_of[ext], self.c[ext]
        risky = _over(level, self.cm[ext] + n, c + up, c - (n - up))
        growths = self._growths(key, shift, ext[risky], level[risky])
        self.cm[ext] += n
        self.c[ext] += 2 * up - n
        for g, starts in growths:
            self.coalesce(starts, g)

    def _growths(
        self, key: np.ndarray, shift: int, ext: np.ndarray, level: np.ndarray
    ) -> List[Tuple[int, np.ndarray]]:
        """The blocks a chunk forms, as ``(g, starts)`` by rising level
        ``g``; raises :class:`RowSaturatedError` if the whole-row counter
        would pass its cap.

        ``key`` holds the chunk's sorted arrival keys, and ``ext`` the
        starts of the extents, at levels ``level``, that can grow. A
        block forms its parent if its running value passes its cap
        anywhere in the chunk, formed or not at that arrival: before it
        forms, its value stays below its cap.
        """
        top = self.width.bit_length() - 1
        formed: List[Tuple[int, np.ndarray]] = []
        starts = np.empty(0, dtype=np.int64)
        for g in range(int(level.min(initial=top + 1)), top + 1):
            starts = np.concatenate((starts, ext[level == g]))
            if not starts.size and g >= level.max():
                break
            # The sorted keys of each block's arrivals are one run. A block
            # whose worst case fits its level cannot form its parent.
            lo = np.searchsorted(key, starts << shift)
            count = np.searchsorted(key, (starts + (1 << g)) << shift) - lo
            pos = starts[:, None] + np.arange(1 << g)
            cm, c = self.cm[pos].sum(axis=1), self.c[pos].sum(axis=1)
            reach = np.abs(c) + count
            can = _over(g, cm + count, reach, -reach)
            starts, lo, count, cm, c = (x[can] for x in (starts, lo, count, cm, c))
            block = np.repeat(np.arange(starts.size), count)
            arrivals = key[np.arange(block.size) + np.repeat(lo - np.cumsum(count) + count, count)]
            arrivals &= (1 << shift) - 1
            arrivals |= block << shift
            arrivals.sort()
            over = self._overflows(arrivals, count, cm, c, g)
            if g == top:
                if over.any():
                    raise RowSaturatedError(
                        f"counter spans the whole {self.width}-byte row and cannot grow"
                    )
                break
            # Sorted, a parent formed by both halves is listed twice in a row.
            parents = np.sort(starts[over] & -(2 << g))
            starts = parents[np.diff(parents, prepend=-1) != 0]
            formed.append((g + 1, starts))
        return formed

    def _overflows(
        self, arrivals: np.ndarray, count: np.ndarray, cm0: np.ndarray, c0: np.ndarray, g: int
    ) -> np.ndarray:
        """Per level-``g`` block, worth ``cm0`` and ``c0`` before the chunk,
        whether its running value passes its cap anywhere in the chunk.

        ``arrivals`` are the sorted keys ``block << shift | index << 1 |
        bit`` of the ``count`` arrivals, at least one, into each block.
        cm only rises, so its final value decides; c, its running extremes.
        """
        head = np.cumsum(count) - count
        run = np.cumsum(2 * (arrivals & 1) - 1)
        base = run[head] - (2 * (arrivals[head] & 1) - 1)
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
        """Updates go to copies of the rows, which replace them only once
        every row has absorbed the whole batch, so saturation applies nothing."""
        staged = [row.copy() for row in self.rows]
        for row, (idx, sign) in self.hash.chunk_hashes(items, (HashKind.INDEX, HashKind.SIGN)):
            sign >>= np.uint64(63)
            positions = bucket_of(idx, self.params.width).view(np.int64)
            staged[row].add_many(positions, sign.view(np.int64))
        self.rows = staged

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
