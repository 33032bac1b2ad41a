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
the positionwise maximum of their level maps, where each row's counters
are sums over its own extent starts.

The sketch shares its params, hashing, entry points and compatibility
checks with the grid sketches of :mod:`sketchsim.sketches`, and scores
each aligned row with the grid's :func:`weighted_row_similarity`. Only
the row storage and its growth are its own.

A batch insert hashes through the grids' chunked pass,
:meth:`HashFamily.chunk_hashes`, and feeds each row its chunk of
positions and signs. The row walks them in chunks of ``INSERT_CHUNK``
arrivals. Within a chunk every position resolves to its current extent,
and per-extent running sums give the value each counter would hold
after each arrival. Everything before the first arrival that
would leave its counter's range is applied at once; that arrival alone
goes through the scalar :meth:`SalsaRow.add`, which grows the counter,
and the walk resumes after it under the new layout. A row merges at most
``width - 1`` times, so nearly every arrival takes the vector path, and
the result equals feeding every arrival through ``add`` in order.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from sketchsim.core import (
    Algo,
    BudgetTooSmallError,
    JaccardEstimate,
    RowSaturatedError,
    SketchParams,
    clamped_estimate,
)
from sketchsim.hashing import HashKind, bucket_of
from sketchsim.sketches import _CounterSketch, weighted_row_similarity

# Per initial slot: one cm byte, one c byte, and one merge-indicator bit
# per field byte. Memory accounting is bit-granular because 18 bits is
# not a whole byte count.
SLOT_BITS = 18

# Arrivals resolved per vector step of a batch insert.
INSERT_CHUNK = 1024

# Counter caps by level: a level-g counter has 2**g bytes per field, and
# the signed range is symmetric. Caps above level 2 pass int64; they are
# clamped, which changes no decision, because no counter can exceed the
# number of arrivals inserted.
_CM_CAPS = np.array([255, (1 << 16) - 1, (1 << 32) - 1, (1 << 62) - 1], dtype=np.int64)
_C_CAPS = np.array([127, (1 << 15) - 1, (1 << 31) - 1, (1 << 61) - 1], dtype=np.int64)


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
    containing position ``p``; counter values live at extent starts (the
    arrays hold stale bytes elsewhere; the level map is authoritative).
    """

    __slots__ = ("width", "level_of", "cm", "c")

    def __init__(self, width: int) -> None:
        if width < 1 or width & (width - 1):
            raise ValueError(f"width must be a power of two, got {width}")
        self.width = width
        self.level_of = np.zeros(width, dtype=np.int8)
        self.cm = np.zeros(width, dtype=np.int64)
        self.c = np.zeros(width, dtype=np.int64)

    def extent_of(self, pos: int) -> Tuple[int, int]:
        """(start, byte_length) of the logical counter containing pos."""
        g = int(self.level_of[pos])
        return pos & ~((1 << g) - 1), 1 << g

    def extents(self) -> Iterator[Tuple[int, int]]:
        """All (start, byte_length) extents in ring order."""
        starts = self.starts()
        return zip(starts.tolist(), (1 << self.level_of[starts].astype(np.int64)).tolist())

    def starts(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Start positions of the extents that begin in ``[lo, hi)``
        (default: the whole row), ascending."""
        hi = self.width if hi is None else hi
        pos = np.arange(lo, hi)
        return pos[(pos & ((1 << self.level_of[lo:hi].astype(np.int64)) - 1)) == 0]

    def dump(self) -> List[Tuple[int, int, int, int]]:
        """Debug view: (start, byte_len, cm, c) per logical counter."""
        return [
            (start, blen, int(self.cm[start]), int(self.c[start]))
            for start, blen in self.extents()
        ]

    def copy(self) -> "SalsaRow":
        row = SalsaRow(self.width)
        row.level_of = self.level_of.copy()
        row.cm = self.cm.copy()
        row.c = self.c.copy()
        return row

    def coalesce(self, start: int, g: int) -> None:
        """Make the g-aligned block at ``start`` one logical counter.

        Extents nest, so the block's counters are exactly the extents
        that start inside it; their sums move to ``start``.
        """
        current = int(self.level_of[start])
        if current > g:
            raise ValueError(
                f"block at {start} already part of a level-{current} counter"
            )
        end = start + (1 << g)
        inner = self.starts(start, end)
        self.cm[start] = self.cm[inner].sum()
        self.c[start] = self.c[inner].sum()
        self.level_of[start:end] = g

    def add(self, pos: int, d_cm: int, d_c: int) -> None:
        """Apply one update at a hashed byte position; a counter whose
        value would leave its level's range coalesces its parent block."""
        g = int(self.level_of[pos])
        start = pos & ~((1 << g) - 1)
        while (
            int(self.cm[start]) + d_cm > _CM_CAPS[min(g, 3)]
            or abs(int(self.c[start]) + d_c) > _C_CAPS[min(g, 3)]
        ):
            if (1 << g) == self.width:
                raise RowSaturatedError(
                    f"counter spans the whole {self.width}-byte row and cannot grow"
                )
            g += 1
            start &= ~((1 << g) - 1)
            self.coalesce(start, g)
        self.cm[start] += d_cm
        self.c[start] += d_c

    def add_many(self, positions: np.ndarray, signs: np.ndarray) -> None:
        """Apply ``add(pos, 1, sign)`` for each arrival in order.

        Raises :class:`RowSaturatedError` as ``add`` does, after applying
        the arrivals before the saturating one.
        """
        lo = 0
        while lo < len(positions):
            pos = positions[lo : lo + INSERT_CHUNK]
            sign = signs[lo : lo + INSERT_CHUNK]
            level = self.level_of[pos].astype(np.int64)
            start = (pos >> level) << level
            # Group arrivals by extent, keeping arrival order within a group.
            order = np.argsort(start, kind="stable")
            s_start, s_sign = start[order], sign[order]
            first = np.empty(len(pos), dtype=bool)
            first[0] = True
            first[1:] = s_start[1:] != s_start[:-1]
            head = np.maximum.accumulate(np.where(first, np.arange(len(pos)), 0))
            s_cm = self.cm[s_start] + (np.arange(len(pos)) - head + 1)
            csum = np.cumsum(s_sign)
            s_c = self.c[s_start] + csum - (csum[head] - s_sign[head])
            s_level = np.minimum(level[order], 3)
            over = (s_cm > _CM_CAPS[s_level]) | (np.abs(s_c) > _C_CAPS[s_level])
            stop = int(order[over].min()) if over.any() else len(pos)
            # Each extent takes the running value of its last arrival
            # before ``stop``; within a group those arrivals form a prefix.
            kept = order < stop
            last = kept.copy()
            last[:-1] &= ~(kept[1:] & ~first[1:])
            self.cm[s_start[last]] = s_cm[last]
            self.c[s_start[last]] = s_c[last]
            if stop == len(pos):
                lo += stop
            else:
                self.add(int(pos[stop]), 1, int(sign[stop]))
                lo += stop + 1

    def coarsened(self, level: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, cm, c) of this row's counters summed into the layout
        ``level``, a level map no finer than this row's anywhere.

        Extents nest, so each coarser extent holds a run of this row's
        extents, and its value is the sum over their starts.
        """
        own = self.starts()
        outer_level = level[own].astype(np.int64)
        outer = (own >> outer_level) << outer_level
        first = np.flatnonzero(np.diff(outer, prepend=-1))
        cm, c = (np.add.reduceat(field[own], first) for field in (self.cm, self.c))
        return outer[first], cm, c

    def align(self, other: "SalsaRow") -> None:
        """Give both rows their finest common coarsening, the positionwise
        maximum of the two level maps; mutates both rows."""
        level = np.maximum(self.level_of, other.level_of)
        for row in (self, other):
            starts, cm, c = row.coarsened(level)
            row.cm[starts] = cm
            row.c[starts] = c
            row.level_of[:] = level

    def total_cm(self) -> int:
        return int(self.cm[self.starts()].sum())

    def total_c(self) -> int:
        return int(self.c[self.starts()].sum())


class SalsaSimilaritySketch(_CounterSketch):
    """Weighted similarity sketch over self-adjusting byte counters."""

    ALGO = Algo.SALSA

    def __init__(self, params: SketchParams) -> None:
        if params.width & (params.width - 1):
            raise ValueError(f"width must be a power of two, got {params.width}")
        super().__init__(params)
        self.rows = [SalsaRow(params.width) for _ in range(params.rows)]

    @classmethod
    def _budget_width(cls, memory_bytes: int, rows: int) -> int:
        return salsa_width(memory_bytes, rows)

    def insert_many(self, items) -> None:
        """Insert a batch; raises without applying anything on saturation.

        Updates go to copies of the rows, which replace the rows only
        once every row has absorbed the whole batch.
        """
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        staged = [row.copy() for row in self.rows]
        for row, (idx, sign) in self.hash.chunk_hashes(items, (HashKind.INDEX, HashKind.SIGN)):
            sign >>= np.uint64(63)
            positions = bucket_of(idx, self.params.width).view(np.int64)
            staged[row].add_many(positions, 2 * sign.view(np.int64) - 1)
        self.rows = staged
        self.total_inserted += items.size

    def align_with(self, other: "SalsaSimilaritySketch") -> None:
        """In-place layout alignment of both sketches, row by row."""
        self._check_compatible(other)
        for row_a, row_b in zip(self.rows, other.rows):
            row_a.align(row_b)

    def estimate_jaccard(self, other: "SalsaSimilaritySketch") -> JaccardEstimate:
        """Weighted two-field estimate over aligned logical counters.

        Each row pair is scored over both rows' counters coarsened to
        their common layout; neither operand changes.
        """
        self._check_estimable(other)
        acc = 0.0
        for row_a, row_b in zip(self.rows, other.rows):
            level = np.maximum(row_a.level_of, row_b.level_of)
            _, cm_a, c_a = row_a.coarsened(level)
            _, cm_b, c_b = row_b.coarsened(level)
            acc += weighted_row_similarity(cm_a, cm_b, c_a, c_b)
        raw = acc / self.params.rows
        return clamped_estimate(raw, Algo.SALSA)

    def dump(self) -> List[List[Tuple[int, int, int, int]]]:
        return [row.dump() for row in self.rows]
