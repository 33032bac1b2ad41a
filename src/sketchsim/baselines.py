"""Classic set-similarity baselines and multiset-to-set adapters.

The streaming baselines (MinHash, HyperLogLog, MaxLogHash, DotHash)
estimate similarity of *sets*. Multiset streams are bridged by occurrence
expansion: the n-th arrival of item x becomes the pair (x, n), and the
Jaccard similarity of the expanded sets equals the multiset Jaccard of
the original streams exactly. Both adapters number occurrences by one
rule: each arrival counts its keys, and its number is the least running
count among them. The exact adapter's one key is the item itself, so no
two items share one; the cm adapter's keys are its count-min buckets,
one per row, where collisions can over-report (cheaper, slightly lossy).
Each adapter maps a batch straight to 64-bit ids (``expand_exact_ids``,
``expand_cm_ids``), and ``expand_cm`` yields the cm adapter's numbers
from the same array as :class:`OccurrenceItem` pairs. Both take each
key's running counts from ``occurrence_numbers``, which sorts three times
in one int64 buffer that becomes its result, with no stable sort and no
scatter, and ends in one remainder. Its keys reach n² + n - 1, so it
refuses a batch of more than ``MAX_OCCURRENCE_BATCH`` (3,037,000,499)
ids, where they would wrap int64. The adapters then write each id over
the occurrence number it is made from, one hashing chunk at a time.

All baselines accept plain 64-bit item ids; use the adapters to feed
them multiset streams.

MinHash, MaxLogHash and HLL insert through the chunked hashing pass,
``HashFamily.chunk_hashes``, so no array as long as the batch is held.
The pass yields unit hashes open (see ``sketchsim.hashing``): MinHash
closes each chunk itself, and MaxLogHash reads them open.

The baselines share the counter sketches' base, ``sketches._Sketch``,
which runs ``insert_many`` and ``estimate_jaccard`` around each one's
``_insert`` and ``_jaccard``: the id rule ``core.item_ids``, the count
of arrivals, the checks before a comparison, which raise
``IncompatibleSketchError`` across types, sizes or seeds and
``UndefinedSimilarityError`` for two empty sketches, the 0.0 of one
empty side, and the clamp. ``from_budget`` refuses a nonpositive
``memory_bytes`` or ``rows`` with ``ValueError``, as the counter sketches
do, and otherwise ignores ``rows``. It gives MinHash and MaxLogHash
``k = max(1, memory_bytes // 8)`` registers, DotHash as many
coordinates, and HLL ``m_bits``, the largest m with 2**m <=
memory_bytes, clamped to [4, 26].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from sketchsim.core import Algo, DegenerateEstimateError, ItemId, SketchParams, integer_id, item_ids
from sketchsim.hashing import (
    HASH_CHUNK,
    MASK64,
    HashFamily,
    HashKind,
    close_hash,
    mix64,
    mix64_into,
)
from sketchsim.sketches import _Sketch

# Bias constant for rank-based cardinality estimators; good for any
# register count or union size >= 2.
ALPHA_INF = 0.7213


# -- multiset -> set adapters -----------------------------------------


@dataclass(frozen=True)
class OccurrenceItem:
    """One element of a multiset's set image: (base item, arrival index)."""

    base: ItemId
    occurrence: int

    def __post_init__(self) -> None:
        # Both fields are stored as Python ints; a float or bool raises.
        object.__setattr__(self, "base", integer_id(self.base))
        object.__setattr__(self, "occurrence", integer_id(self.occurrence))
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")

    def item_id(self) -> ItemId:
        """Collision-resistant 64-bit id of the (base, occurrence) pair."""
        return mix64(mix64(self.base) ^ self.occurrence)


# The longest batch whose occurrence_numbers keys fit in int64.
MAX_OCCURRENCE_BATCH = 3_037_000_499


def occurrence_numbers(items: np.ndarray) -> np.ndarray:
    """The exact expansion's occurrence counter.

    Returns, per position, how many times that value has appeared in the
    array up to and including the position.

    Three unstable sorts in one int64 buffer stand in for a stable
    argsort and a scatter, and that buffer is the result. The argsort
    groups equal values into runs of sorted slots. Each slot then holds
    the key ``run·n + position``, where ``run`` is the slot at which its
    value's run starts, and a sort of these unique keys puts each run
    back in arrival order. A slot's rank in its run is its occurrence
    number, so each slot then holds ``position·(n+1) + rank``. The
    positions are a permutation, so a last sort leaves slot i holding
    ``i·(n+1) + occurrence``, and as ``1 <= rank <= n``, one in-place
    remainder by n + 1 leaves the occurrence. The keys stay at or below
    n² + n - 1, which fits in int64 up to :data:`MAX_OCCURRENCE_BATCH`
    items; a longer batch raises ``ValueError`` before anything is
    allocated. Besides the buffer, only chunk buffers are held.
    """
    if np.size(items) > MAX_OCCURRENCE_BATCH:
        raise ValueError(
            f"occurrence_numbers takes at most {MAX_OCCURRENCE_BATCH:,} items, "
            f"got {np.size(items):,}"
        )
    items = item_ids(items)
    n = len(items)
    keys = np.argsort(items)
    size = min(n, HASH_CHUNK)
    steps = np.arange(size)
    run, values, new = np.empty(size, np.int64), np.empty(size, np.uint64), np.empty(size, bool)
    start, last = 0, None
    for lo in range(0, n, HASH_CHUNK):
        slots = keys[lo : lo + HASH_CHUNK]
        m = len(slots)
        v, r, fresh = np.take(items, slots, out=values[:m]), run[:m], new[:m]
        # A run starts where a sorted value differs from the one before
        # it. Its start is carried relative to the chunk, then made whole.
        fresh[0] = lo == 0 or v[0] != last
        np.not_equal(v[1:], v[:-1], out=fresh[1:])
        r.fill(start - lo)
        np.copyto(r, steps[:m], where=fresh)
        np.maximum.accumulate(r, out=r)
        r += lo
        start, last = r[-1], v[-1]
        r *= n
        slots += r
    # Dropped before the sort, so that values a caller passed unnamed
    # are freed here.
    items = None
    # Each run keeps its slots, so slot i's key still names its run.
    keys.sort()
    for lo in range(0, n, HASH_CHUNK):
        key = keys[lo : lo + HASH_CHUNK]
        m = len(key)
        # The key splits into the run's start and the position. (A
        # divmod takes three times as long as this division by a scalar.)
        r = np.floor_divide(key, n, out=run[:m])
        key -= r * n
        # The rank is the slot minus the run's start, plus one.
        np.subtract(lo + 1, r, out=r)
        r += steps[:m]
        key *= n + 1
        key += r
    keys.sort()
    return np.remainder(keys, n + 1, out=keys)


def _occurrence_ids(items: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """``mix64(mix64(items) ^ occ)``, written over the uint64 array ``occ``.

    It works in steps of ``HASH_CHUNK`` items, so only two chunk buffers
    are allocated.
    """
    size = min(len(occ), HASH_CHUNK)
    premix, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    for lo in range(0, len(occ), HASH_CHUNK):
        out = occ[lo : lo + HASH_CHUNK]
        n = len(out)
        out ^= mix64_into(items[lo : lo + n], premix[:n], scratch[:n])
        mix64_into(out, out, scratch[:n])
    return occ


def expand_exact_ids(items: np.ndarray) -> np.ndarray:
    """Exact occurrence expansion straight to combined 64-bit ids."""
    items = item_ids(items)
    return _occurrence_ids(items, occurrence_numbers(items).view(np.uint64))


def _cm_occurrences(items: np.ndarray, cm_params: SketchParams) -> np.ndarray:
    """Each arrival's count-min occurrence number, as int64.

    The count-min counter an arrival reads is the running count of its
    bucket, so its occurrence number is the minimum over rows of the
    bucket sequence's exact occurrence numbers.
    """
    family = HashFamily(cm_params.master_seed, cm_params.rows)
    occ = None
    for row in range(cm_params.rows):
        # Unnamed, the buckets die in occurrence_numbers: one batch fewer at its peak.
        row_occ = occurrence_numbers(
            family.index_hash_many(items, row, cm_params.width).view(np.uint64)
        )
        occ = row_occ if occ is None else np.minimum(occ, row_occ, out=occ)
    return occ


def expand_cm_ids(items: np.ndarray, cm_params: SketchParams) -> np.ndarray:
    """Count-min occurrence expansion straight to combined 64-bit ids."""
    items = item_ids(items)
    return _occurrence_ids(items, _cm_occurrences(items, cm_params).view(np.uint64))


def expand_cm(
    stream: Iterable[ItemId], cm_params: SketchParams
) -> Iterator[OccurrenceItem]:
    """Occurrence expansion with counts read from a count-min sketch, one
    :class:`OccurrenceItem` per arrival, whose ``item_id()`` is the id
    :func:`expand_cm_ids` gives it. Collisions can inflate the reported
    occurrence number, so distinct multiset elements may map to a sparser
    set image than the exact expansion produces. That imprecision is the
    point of offering this adapter.
    """
    items = item_ids(stream)
    occ = _cm_occurrences(items, cm_params)
    yield from map(OccurrenceItem, items.tolist(), occ.tolist())


# -- MinHash -----------------------------------------------------------


class _SetSketch(_Sketch):
    """A set baseline, sized by its first constructor argument."""

    @classmethod
    def from_budget(cls, memory_bytes: int, rows: int, master_seed: int):
        if memory_bytes < 1 or rows < 1:
            raise ValueError(
                f"memory_bytes and rows must be positive, got ({memory_bytes}, {rows})"
            )
        return cls(cls._budget_size(memory_bytes), master_seed=master_seed)

    @staticmethod
    def _budget_size(memory_bytes: int) -> int:
        return max(1, memory_bytes // 8)


class MinHashSketch(_SetSketch):
    """k independent minimum unit-hash values; match fraction estimates J."""

    ALGO = Algo.MINHASH
    DEFAULT_K = 128

    def __init__(self, k: int = DEFAULT_K, master_seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(dict(k=k, master_seed=master_seed), master_seed, k)
        self.k = k
        self.mins = np.full(k, np.inf, dtype=np.float64)

    def _insert(self, items: np.ndarray) -> None:
        # The unit hash is monotone in the raw hash, so the batch minimum
        # is taken over raw hashes and converted once, exactly. The pass
        # yields them open; each chunk is closed in a reused buffer.
        lows = np.full(self.k, MASK64, dtype=np.uint64)
        scratch = np.empty(min(items.size, HASH_CHUNK), dtype=np.uint64)
        for row, (h,) in self.hash.chunk_hashes(items, (HashKind.UNIT,)):
            h = close_hash(h, scratch[: h.size])
            lows[row] = min(lows[row], h.min())
        lows >>= np.uint64(12)
        np.minimum(self.mins, (lows.astype(np.float64) + 0.5) * 2.0**-52, out=self.mins)

    def _jaccard(self, other: "MinHashSketch") -> float:
        """Fraction of rows whose minima coincide; unbiased for set J."""
        return int(np.count_nonzero(self.mins == other.mins)) / self.k


# -- HyperLogLog -------------------------------------------------------


@dataclass(frozen=True)
class CardinalityEstimate:
    value: float
    in_range: bool
    """True when the raw estimate lies in the calibrated band
    (2.5*L, 2^32/30]; outside it the formula is reported uncorrected."""


class HllSketch(_SetSketch):
    """2^M max-rank registers over a 64-bit hash."""

    ALGO = Algo.HLL
    DEFAULT_M = 11

    def __init__(self, m_bits: int = DEFAULT_M, master_seed: int = 0) -> None:
        if not 1 <= m_bits < 64:
            raise ValueError(f"need 1 <= m_bits < 64, got {m_bits}")
        super().__init__(dict(m_bits=m_bits, master_seed=master_seed), master_seed, 1)
        self.m_bits = m_bits
        self.n_registers = 1 << m_bits
        self.registers = np.zeros(self.n_registers, dtype=np.uint8)

    @staticmethod
    def _budget_size(memory_bytes: int) -> int:
        return max(4, min(26, memory_bytes.bit_length() - 1))

    @property
    def alpha(self) -> float:
        return ALPHA_INF / (1.0 + ALPHA_INF / self.n_registers)

    def _insert(self, items: np.ndarray) -> None:
        # Chunk by chunk: the register maximum does not depend on the
        # order or the cut of the stream. Each chunk is ranked in buffers
        # allocated once, and the pass's hash buffer keeps the buckets.
        value_bits = 64 - self.m_bits
        size = min(items.size, HASH_CHUNK)
        values, floats = np.empty(size, np.uint64), np.empty(size, np.float64)
        lengths = np.empty(size, np.int8)
        for _, (h,) in self.hash.chunk_hashes(items, (HashKind.BIT,)):
            v, f, e = values[: h.size], floats[: h.size], lengths[: h.size]
            np.bitwise_and(h, np.uint64((1 << value_bits) - 1), out=v)
            np.right_shift(h, np.uint64(value_bits), out=h)
            # frexp's exponent is the bit length (0 for 0) unless float64
            # rounds the value up to the next power of two, which needs
            # its top 53 bits all ones. Clearing each bit that lies 53
            # places below a set bit then clears every bit under them,
            # and never touches those 53, so the value converts exactly.
            # The float buffer, read as uint64, holds the mask first.
            mask = np.right_shift(v, np.uint64(53), out=f.view(np.uint64))
            v &= np.invert(mask, out=mask)
            f[...] = v
            np.frexp(f, out=(f, e))
            # The rank: value_bits + 1 minus the bit length, in [1, 64].
            np.subtract(value_bits + 1, e, out=e)
            np.maximum.at(self.registers, h.view(np.int64), e.view(np.uint8))

    def union(self, other: "HllSketch") -> "HllSketch":
        """Register-wise maximum: exactly the sketch of the union stream."""
        self._check_compatible(other)
        merged = HllSketch(self.m_bits, self.master_seed)
        merged.registers = np.maximum(self.registers, other.registers)
        merged.total_inserted = self.total_inserted + other.total_inserted
        return merged

    def cardinality(self) -> CardinalityEstimate:
        """Harmonic-mean register estimate; an all-zero array means the
        sketch saw nothing and reports exactly 0."""
        if self.is_empty():
            return CardinalityEstimate(value=0.0, in_range=False)
        l = self.n_registers
        denom = float(np.sum(np.exp2(-self.registers.astype(np.float64))))
        estimate = self.alpha * l * l / denom
        in_range = 2.5 * l < estimate <= (1 << 32) / 30
        return CardinalityEstimate(value=estimate, in_range=in_range)

    def _jaccard(self, other: "HllSketch") -> float:
        """Inclusion-exclusion over cardinality estimates of a, b, a|b."""
        card_a = self.cardinality().value
        card_b = other.cardinality().value
        card_union = self.union(other).cardinality().value
        return (card_a + card_b - card_union) / card_union


# -- MaxLogHash --------------------------------------------------------


class MaxLogHashSketch(_SetSketch):
    """k max-floor-log registers with uniqueness flags."""

    ALGO = Algo.MAXLOGHASH
    DEFAULT_K = 128

    def __init__(self, k: int = DEFAULT_K, master_seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(dict(k=k, master_seed=master_seed), master_seed, k)
        self.k = k
        self.maxlogs = np.full(k, -1, dtype=np.int64)
        self.unique_flags = np.ones(k, dtype=bool)

    def _insert(self, items: np.ndarray) -> None:
        # Per chunk and row: the top rank belongs to the least 52-bit
        # value r = h >> 12 (rank 52 - bit_length(r), or 53 for r = 0),
        # and the items tying it are those with r < 2**bit_length. The
        # update rule gives the same state however a stream is cut, so
        # chunks apply it in turn.
        #
        # Both steps only compare hashes with powers of two, so they read
        # the open hash the pass yields. Its closing step x ^ (x >> 33)
        # keeps bits 63..31, which decide a comparison with 2**31 or more,
        # and changes nothing below 2**33, where the smaller powers lie.
        for row, (h,) in self.hash.chunk_hashes(items, (HashKind.UNIT,)):
            length = (int(h.min()) >> 12).bit_length()
            top = 53 if length == 0 else 52 - length
            a = int(self.maxlogs[row])
            if top > a:
                self.maxlogs[row] = top
                # The flag survives only if a single item attains the new
                # maximum.
                h >>= np.uint64(12)
                self.unique_flags[row] = int(np.count_nonzero(h < np.uint64(1 << length))) == 1
            elif top == a:
                self.unique_flags[row] = False

    def _jaccard(self, other: "MaxLogHashSketch") -> float:
        """1 minus the scaled count of rows whose unique maximum sits on
        one side only; those rows witness items outside the intersection.
        Both sides are non-empty here: with one empty side the formula
        would count only the other's unique rows, short of k·α, so the
        base estimates 0.0 before it is reached.
        """
        delta = np.count_nonzero(self.unique_flags & (self.maxlogs > other.maxlogs))
        delta += np.count_nonzero(other.unique_flags & (other.maxlogs > self.maxlogs))
        return 1.0 - delta / (self.k * ALPHA_INF)


# -- DotHash -----------------------------------------------------------


class DotHashSketch(_SetSketch):
    """Sum of deterministic random-sign unit vectors; the inner product of
    two accumulators estimates the intersection size.

    Coordinates are ±1/sqrt(d). Accuracy requires d well above the
    product of set sizes' scale (cross terms decay as 1/sqrt(d)); this is
    only usable for small sets, and large-set use is out of scope.
    """

    ALGO = Algo.DOTHASH
    DEFAULT_D = 1024

    def __init__(self, d: int = DEFAULT_D, master_seed: int = 0) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        super().__init__(dict(d=d, master_seed=master_seed), master_seed, d)
        self.d = d
        self.vec = np.zeros(d, dtype=np.float64)
        self._scale = 1.0 / np.sqrt(d)

    def _insert(self, items: np.ndarray) -> None:
        for item in items.tolist():
            mixed = self.hash.row_hashes(item, HashKind.SIGN)
            self.vec += np.where(mixed >> np.uint64(63), 1.0, -1.0) * self._scale

    def estimate_intersection(self, other: "DotHashSketch") -> float:
        self._check_compatible(other)
        return float(np.dot(self.vec, other.vec))

    def _jaccard(self, other: "DotHashSketch") -> float:
        """Inner-product intersection over inclusion-exclusion union.

        The set sizes are the insert counts, as each element of a set is
        inserted once.
        """
        inter = self.estimate_intersection(other)
        denom = self.total_inserted + other.total_inserted - inter
        if denom <= 0:
            raise DegenerateEstimateError(
                f"estimated union {denom} is not positive; d is too small "
                f"for these set sizes"
            )
        return inter / denom
