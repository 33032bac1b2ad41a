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
only alter which logical counter a position resolves to. Two sketches
that merged differently are aligned (coarsest common refinement of both
layouts) before the weighted two-field estimate runs over their common
logical slots.

The sketch shares its params, hashing, entry points and compatibility
checks with the grid sketches of :mod:`sketchsim.sketches`, and scores
each aligned row with the grid's :func:`weighted_row_similarity`. Only
the row storage and its growth are its own.

Logical counter extents obey the buddy discipline: power-of-two byte
lengths, start aligned to length, tiling the row exactly. This is what
makes alignment decidable and terminating.
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
from sketchsim.sketches import _CounterSketch, weighted_row_similarity

# Per initial slot: one cm byte, one c byte, and one merge-indicator bit
# per field byte. Memory accounting is bit-granular because 18 bits is
# not a whole byte count.
SLOT_BITS = 18


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

    @staticmethod
    def _cm_cap(n_bytes: int) -> int:
        return (1 << (8 * n_bytes)) - 1

    @staticmethod
    def _c_cap(n_bytes: int) -> int:
        # Symmetric signed range; the extra two's-complement value is unused.
        return (1 << (8 * n_bytes - 1)) - 1

    def extent_of(self, pos: int) -> Tuple[int, int]:
        """(start, byte_length) of the logical counter containing pos."""
        g = int(self.level_of[pos])
        return pos & ~((1 << g) - 1), 1 << g

    def extents(self) -> Iterator[Tuple[int, int]]:
        """All (start, byte_length) extents in ring order."""
        pos = 0
        while pos < self.width:
            g = int(self.level_of[pos])
            yield pos, 1 << g
            pos += 1 << g

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

    def _merge_halves(self, start: int, g: int) -> None:
        # Both halves must already be single extents at level g - 1.
        right = start + (1 << (g - 1))
        self.cm[start] += self.cm[right]
        self.c[start] += self.c[right]
        self.level_of[start : start + (1 << g)] = g

    def coalesce(self, start: int, g: int) -> None:
        """Make the g-aligned block at ``start`` one logical counter."""
        current = int(self.level_of[start])
        if current == g:
            return
        if current > g:
            raise ValueError(
                f"block at {start} already part of a level-{current} counter"
            )
        half = 1 << (g - 1)
        self.coalesce(start, g - 1)
        self.coalesce(start + half, g - 1)
        self._merge_halves(start, g)

    def _grow(self, start: int, g: int) -> Tuple[int, int]:
        """Merge the counter at (start, level g) with its buddy."""
        if (1 << g) == self.width:
            raise RowSaturatedError(
                f"counter spans the whole {self.width}-byte row and cannot grow"
            )
        parent = start & ~((1 << (g + 1)) - 1)
        # Coalescing the parent block merges us with our buddy, first
        # coalescing a buddy that is still tiled by smaller counters.
        self.coalesce(parent, g + 1)
        return parent, g + 1

    def add(self, pos: int, d_cm: int, d_c: int) -> None:
        """Apply one update at a hashed byte position, growing as needed."""
        g = int(self.level_of[pos])
        start = pos & ~((1 << g) - 1)
        while True:
            n = 1 << g
            if (
                int(self.cm[start]) + d_cm <= self._cm_cap(n)
                and abs(int(self.c[start]) + d_c) <= self._c_cap(n)
            ):
                break
            start, g = self._grow(start, g)
        self.cm[start] += d_cm
        self.c[start] += d_c

    def align(self, other: "SalsaRow") -> None:
        """Coarsest common refinement of both layouts; mutates both rows."""
        pos = 0
        while pos < self.width:
            ga = int(self.level_of[pos])
            gb = int(other.level_of[pos])
            if ga < gb:
                self.coalesce(pos, gb)
                g = gb
            elif gb < ga:
                other.coalesce(pos, ga)
                g = ga
            else:
                g = ga
            pos += 1 << g

    def total_cm(self) -> int:
        return sum(int(self.cm[s]) for s, _ in self.extents())

    def total_c(self) -> int:
        return sum(int(self.c[s]) for s, _ in self.extents())


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
        for i, row in enumerate(staged):
            positions = self.hash.index_hash_many(items, i, self.params.width).tolist()
            signs = self.hash.sign_hash_many(items, i).tolist()
            add = row.add
            for pos, sign in zip(positions, signs):
                add(pos, 1, sign)
        self.rows = staged
        self.total_inserted += items.size

    def align_with(self, other: "SalsaSimilaritySketch") -> None:
        """In-place layout alignment of both sketches, row by row."""
        self._check_compatible(other)
        for row_a, row_b in zip(self.rows, other.rows):
            row_a.align(row_b)

    def estimate_jaccard(self, other: "SalsaSimilaritySketch") -> JaccardEstimate:
        """Weighted two-field estimate over aligned logical counters.

        Alignment runs on private copies so neither operand's layout is
        coarsened by estimation.
        """
        self._check_estimable(other)
        acc = 0.0
        for row_a, row_b in zip(self.rows, other.rows):
            ca, cb = row_a.copy(), row_b.copy()
            ca.align(cb)
            starts = [s for s, _ in ca.extents()]
            acc += weighted_row_similarity(ca.cm[starts], cb.cm[starts], ca.c[starts], cb.c[starts])
        raw = acc / self.params.rows
        return clamped_estimate(raw, Algo.SALSA)

    def dump(self) -> List[List[Tuple[int, int, int, int]]]:
        return [row.dump() for row in self.rows]
