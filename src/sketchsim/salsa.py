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
positions and sign bits. The row resolves every arrival to its extent
and counts the arrivals and +1 signs per extent. An extent whose worst
case over the chunk fits its level (``cm + n`` for the unsigned field,
``c`` moved by every sign for the signed one) cannot grow. A growth
coalesces the parent block and may go on up, so each extent that can
grow marks a risk region: its parent block, widened while the block's
worst case passes its level's cap. Extents outside every risk region
take their counts in one step. Only the arrivals inside risk regions
are walked in order, in windows of ``INSERT_CHUNK``: per-extent running
sums give each counter's value after each arrival; in each region,
everything before the first arrival that would leave its counter's
range is applied at once, that arrival goes through the scalar
:meth:`SalsaRow.add`, the only growth path, and the region's later
arrivals carry into the next window. Regions are disjoint and hold
every growth of the chunk, so one window takes a growth in each, and
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

# Arrivals per in-order window of a batch insert.
INSERT_CHUNK = 1024

# Counter caps by level: a level-g counter has 2**g bytes per field, and
# the signed range is symmetric. Caps above level 2 pass int64; they are
# clamped, which changes no decision, because no counter can exceed the
# number of arrivals inserted.
_CM_CAPS = np.array([255, (1 << 16) - 1, (1 << 32) - 1, (1 << 62) - 1], dtype=np.int64)
_C_CAPS = np.array([127, (1 << 15) - 1, (1 << 31) - 1, (1 << 61) - 1], dtype=np.int64)


def _covered(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Length-``size`` mask, True on each ``[lo[i], hi[i])`` of disjoint
    ranges."""
    edge = np.zeros(size + 1, dtype=np.int64)
    edge[lo] += 1
    edge[hi] -= 1
    return np.cumsum(edge[:-1]) > 0


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

    def add_many(self, positions: np.ndarray, sign_bits: np.ndarray) -> None:
        """Apply ``add(pos, 1, +1 if bit else -1)`` for each arrival in order.

        ``positions`` and ``sign_bits`` are int64 arrays as long as a
        hash chunk at most; a sign bit is 1 for +1 and 0 for -1. Raises
        :class:`RowSaturatedError` as ``add`` does, after applying the
        arrivals before the saturating one.
        """
        if len(positions):
            routed, shift = self._add_safe(positions, sign_bits)
            if routed.size:
                self._add_at_risk(routed, shift, positions, sign_bits)

    def _sorted_keys(self, positions: np.ndarray, sign_bits: np.ndarray) -> Tuple[np.ndarray, int]:
        """``(keys, shift)``: one key ``start << shift | index << 1 | bit``
        per arrival, where ``start`` is its extent's start, sorted.

        The sort groups arrivals by extent and keeps each group in
        arrival order, as a stable sort by start would.
        """
        shift = len(positions).bit_length() + 1
        key = np.left_shift(np.int64(-1), self.level_of[positions])
        key &= positions
        key <<= shift
        low = np.arange(len(positions))
        low <<= 1
        low |= sign_bits
        key |= low
        key.sort()
        return key, shift

    @staticmethod
    def _over(level, cm: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray) -> np.ndarray:
        """Whether a counter at ``level`` whose cm reaches ``cm`` and whose
        c spans ``[c_lo, c_hi]`` leaves its range."""
        g = np.minimum(level, 3)
        return (cm > _CM_CAPS[g]) | (c_hi > _C_CAPS[g]) | (c_lo < -_C_CAPS[g])

    def _add_safe(self, positions: np.ndarray, sign_bits: np.ndarray) -> Tuple[np.ndarray, int]:
        """Add each safe extent's arrivals in one step; return the others
        as sorted keys ``index << shift | region``, with ``shift``.

        An extent is safe when its worst case over the chunk fits its
        level and it lies in no risk region.
        """
        key, shift = self._sorted_keys(positions, sign_bits)
        change = key[1:] ^ key[:-1]
        change >>= shift
        # Arrivals, and +1 signs, before each extent in sorted order.
        cn = np.concatenate(([0], np.flatnonzero(change) + 1, [len(key)]))
        del change
        cp = np.concatenate(([0], np.cumsum(np.add.reduceat(key & 1, cn[:-1]))))
        ext = key[cn[:-1]] >> shift
        n, up = cn[1:] - cn[:-1], cp[1:] - cp[:-1]
        lo, hi = self._risk_regions(ext, n, up, cn, cp)
        # Region i holds the extents ext[first[i]:last[i]].
        first, last = np.searchsorted(ext, lo), np.searchsorted(ext, hi)
        inside = _covered(first, last, len(ext))
        safe = ~inside
        self.cm[ext[safe]] += n[safe]
        self.c[ext[safe]] += 2 * up[safe] - n[safe]
        if not lo.size:
            return lo, 0
        # Free the chunk-long keys before keying the routed arrivals.
        routed = key[np.repeat(inside, n)]
        del key
        routed >>= 1
        routed &= (1 << (shift - 1)) - 1
        shift = len(lo).bit_length()
        routed <<= shift
        routed |= np.repeat(np.arange(len(lo)), cn[last] - cn[first])
        routed.sort()
        return routed, shift

    def _risk_regions(
        self, ext: np.ndarray, n: np.ndarray, up: np.ndarray, cn: np.ndarray, cp: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted, disjoint ``[lo, hi)`` blocks that hold every growth the
        chunk can start, given its extents ``ext``, their counts ``n`` of
        arrivals and ``up`` of +1 signs, and the prefix sums ``cn`` and
        ``cp`` of those counts.

        An extent can grow when its worst case fits no longer: ``cm + n``
        for the unsigned field, ``c`` moved by every sign for the signed
        one. A growth coalesces the parent block, and goes on up while
        the block's value leaves its level's range. So each such
        extent's block is widened from its parent until the block's
        worst case, its counters plus the chunk's arrivals into it, fits
        its level.
        """
        level, c = self.level_of[ext], self.c[ext]
        grows = self._over(level, self.cm[ext] + n, c + up, c - (n - up))
        top = self.width.bit_length() - 1
        # Each growing extent's block starts as its parent.
        growing, parent = ext[grows], np.minimum(level[grows] + 1, top)
        pending = np.empty(0, dtype=np.int64)
        if not growing.size:
            return pending, pending
        found = [pending, pending]
        last = int(parent.max())
        for g in range(int(parent.min()), top + 1):
            if g > last and not pending.size:
                break
            pending = np.concatenate((pending, growing[parent == g])) & -(1 << g)
            over = self._block_over(pending, g, ext, cn, cp) if g < top else pending < 0
            found += [pending[~over], pending[~over] + (1 << g)]
            pending = pending[over]
        lo, hi = np.concatenate(found[0::2]), np.concatenate(found[1::2])
        # Blocks nest, repeat or are disjoint: keep each block that no
        # earlier one holds.
        order = np.lexsort((-hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.ones(len(lo), dtype=bool)
        keep[1:] = hi[1:] > np.maximum.accumulate(hi)[:-1]
        return lo[keep], hi[keep]

    def _block_over(
        self, blocks: np.ndarray, g: int, ext: np.ndarray, cn: np.ndarray, cp: np.ndarray
    ) -> np.ndarray:
        """Whether each level-``g`` block, as one counter, can leave its
        range: its extents' values plus the chunk's arrivals into it."""
        size = 1 << g
        pos = (blocks[:, None] + np.arange(size)).ravel()
        own = (pos & ((1 << self.level_of[pos].astype(np.int64)) - 1)) == 0
        cm = np.where(own, self.cm[pos], 0).reshape(-1, size).sum(axis=1)
        c = np.where(own, self.c[pos], 0).reshape(-1, size).sum(axis=1)
        i, j = np.searchsorted(ext, blocks), np.searchsorted(ext, blocks + size)
        n, up = cn[j] - cn[i], cp[j] - cp[i]
        return self._over(g, cm + n, c + up, c - (n - up))

    def _add_at_risk(
        self, routed: np.ndarray, shift: int, positions: np.ndarray, sign_bits: np.ndarray
    ) -> None:
        """Apply the arrivals ``routed`` (keys ``index << shift | region``)
        in order, in windows of ``INSERT_CHUNK``; the arrivals a window
        defers lead the next."""
        carry = np.empty(0, dtype=np.int64)
        lo = 0
        while lo < len(routed) or carry.size:
            hi = min(len(routed), lo + INSERT_CHUNK - carry.size)
            slots = np.concatenate((carry, np.arange(lo, hi)))
            lo = hi
            index, region = routed[slots] >> shift, routed[slots] & ((1 << shift) - 1)
            deferred = self._window(positions[index], sign_bits[index], region, 1 << shift)
            carry = slots[deferred]

    def _window(
        self, positions: np.ndarray, sign_bits: np.ndarray, region: np.ndarray, n_regions: int
    ) -> np.ndarray:
        """One vector step over a window of in-order arrivals; returns
        the mask of the arrivals it defers.

        Per-extent running sums give the value each counter would hold
        after each arrival. In each region, everything before the first
        arrival that would leave its counter's range is applied at once;
        that arrival goes through ``add``, and the region's later
        arrivals are deferred. Regions are disjoint and hold every
        growth, so they do not interact.
        """
        key, shift = self._sorted_keys(positions, sign_bits)
        starts = key >> shift
        order = (key >> 1) & ((1 << (shift - 1)) - 1)
        sign = 2 * (key & 1) - 1
        m = len(key)
        step = np.arange(m)
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(starts[1:], starts[:-1], out=first[1:])
        head = np.maximum.accumulate(np.where(first, step, 0))
        s_cm = self.cm[starts] + (step - head + 1)
        csum = np.cumsum(sign)
        s_c = self.c[starts] + csum - (csum[head] - sign[head])
        over = self._over(self.level_of[starts], s_cm, s_c, s_c)
        cut = np.full(n_regions, m)
        np.minimum.at(cut, region[order[over]], order[over])
        cut = cut[region]
        # Each extent takes the running value of its last arrival before
        # its region's cut; within an extent those arrivals form a prefix.
        kept = order < cut[order]
        last = kept.copy()
        last[:-1] &= ~(kept[1:] & ~first[1:])
        self.cm[starts[last]] = s_cm[last]
        self.c[starts[last]] = s_c[last]
        for i in np.flatnonzero(step == cut).tolist():
            self.add(int(positions[i]), 1, 2 * int(sign_bits[i]) - 1)
        return step > cut

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
            staged[row].add_many(positions, sign.view(np.int64))
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
