"""Classic set-similarity baselines and multiset-to-set adapters.

The streaming baselines (MinHash, HyperLogLog, MaxLogHash, DotHash)
estimate similarity of *sets*. Multiset streams are bridged by occurrence
expansion: the n-th arrival of item x becomes the pair (x, n), and the
Jaccard similarity of the expanded sets equals the multiset Jaccard of
the original streams exactly. Expansion comes in two flavors: an exact
occurrence table, and a count-min-backed variant that may over-report
occurrence numbers under collisions (cheaper, slightly lossy; both are
offered because either may feed the benchmark). Each has a streaming
form over :class:`OccurrenceItem` and a vector form straight to 64-bit
ids (``expand_exact_ids``, ``expand_cm_ids``) that gives the same ids.
Both vector forms number occurrences with ``occurrence_numbers``, which
sorts twice without a stable sort.

All baselines accept plain 64-bit item ids; use the adapters to feed
them multiset streams.

The baselines share the counter sketches' base, ``sketches._Sketch``:
seed and hash family, ``total_inserted``, single-item ``insert``,
``is_empty``, and the checks before a comparison, which raise
``IncompatibleSketchError`` across types, sizes or seeds and
``UndefinedSimilarityError`` for two empty sketches (MinHash raises
``EmptySketchError`` if either side is empty). ``from_budget`` ignores
``rows`` and gives MinHash and MaxLogHash ``k = max(1, memory_bytes //
8)`` registers, DotHash as many coordinates, and HLL ``m_bits``, the
largest m with 2**m <= memory_bytes, clamped to [4, 26].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

import numpy as np

from sketchsim.core import (
    Algo,
    DegenerateEstimateError,
    EmptySketchError,
    ItemId,
    JaccardEstimate,
    SketchParams,
    clamped_estimate,
)
from sketchsim.hashing import MASK64, HashFamily, HashKind, mix64, mix64_array
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
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")

    def item_id(self) -> ItemId:
        """Collision-resistant 64-bit id of the (base, occurrence) pair."""
        return mix64(mix64(self.base) ^ self.occurrence)


def expand_exact(stream: Iterable[ItemId]) -> Iterator[OccurrenceItem]:
    """Tag each arrival with its exact running occurrence count."""
    seen: Dict[ItemId, int] = {}
    for item in stream:
        n = seen.get(item, 0) + 1
        seen[item] = n
        yield OccurrenceItem(base=item, occurrence=n)


def occurrence_numbers(items: np.ndarray) -> np.ndarray:
    """Vector form of the exact expansion's occurrence counter.

    Returns, per position, how many times that value has appeared in the
    array up to and including the position.

    Two unstable sorts stand in for one stable argsort, which is slower:
    the first groups equal values, and a sort of the unique keys
    ``group·n + position`` then puts each group back in arrival order.
    The keys stay below n², which fits in int64 below 3·10⁹ items.
    """
    items = np.asarray(items, dtype=np.uint64)
    n = len(items)
    order = np.argsort(items)
    new_group = np.ones(n, dtype=bool)
    sorted_items = items[order]
    np.not_equal(sorted_items[1:], sorted_items[:-1], out=new_group[1:])
    del sorted_items
    group = np.cumsum(new_group)
    group -= 1
    # Rank within the run of equal values: sorted position minus the
    # run's start, plus one.
    ranks = np.arange(1, n + 1)
    ranks -= np.flatnonzero(new_group)[group]
    # Sorting the keys group·n + position keeps each group's slots and
    # puts its positions in arrival order. In place, so the expansion
    # holds no more full-length temporaries than the stable form did.
    group *= n
    order += group
    order.sort()
    order -= group
    del group
    occ = np.empty(n, dtype=np.int64)
    occ[order] = ranks
    return occ


def expand_exact_ids(items: np.ndarray) -> np.ndarray:
    """Exact occurrence expansion straight to combined 64-bit ids."""
    items = np.asarray(items, dtype=np.uint64)
    occ = occurrence_numbers(items).astype(np.uint64)
    return mix64_array(mix64_array(items) ^ occ)


def expand_cm_ids(items: np.ndarray, cm_params: SketchParams) -> np.ndarray:
    """Vector form of :func:`expand_cm`, straight to combined 64-bit ids.

    The count-min counter an arrival reads is the running count of its
    bucket, so its occurrence number is the minimum over rows of the
    bucket sequence's exact occurrence numbers.
    """
    items = np.asarray(items, dtype=np.uint64)
    family = HashFamily(cm_params.master_seed, cm_params.rows)
    occ = np.min(
        [
            occurrence_numbers(family.index_hash_many(items, row, cm_params.width))
            for row in range(cm_params.rows)
        ],
        axis=0,
    ).astype(np.uint64)
    return mix64_array(mix64_array(items) ^ occ)


class CmFrequencySketch:
    """Plain count-min frequency sketch backing the lossy expansion."""

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        self.hash = HashFamily(params.master_seed, params.rows)
        self.counters = np.zeros((params.rows, params.width), dtype=np.int64)

    def insert(self, item: ItemId) -> None:
        for row in range(self.params.rows):
            self.counters[row, self.hash.index_hash(item, row, self.params.width)] += 1

    def query(self, item: ItemId) -> int:
        """Estimated frequency: minimum over rows; never under-reports."""
        return min(
            int(self.counters[row, self.hash.index_hash(item, row, self.params.width)])
            for row in range(self.params.rows)
        )


def expand_cm(
    stream: Iterable[ItemId], cm_params: SketchParams
) -> Iterator[OccurrenceItem]:
    """Occurrence expansion with counts read from a count-min sketch.

    Collisions can inflate the reported occurrence number, so distinct
    multiset elements may map to a sparser set image than expand_exact
    produces. That imprecision is the point of offering this adapter.
    """
    cm = CmFrequencySketch(cm_params)
    for item in stream:
        cm.insert(item)
        yield OccurrenceItem(base=item, occurrence=cm.query(item))


# -- MinHash -----------------------------------------------------------


class _SetSketch(_Sketch):
    """A set baseline, sized by its first constructor argument."""

    @classmethod
    def from_budget(cls, memory_bytes: int, rows: int, master_seed: int):
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

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        # The unit hash is monotone in the raw hash, so the batch minimum
        # is taken over raw hashes and converted once, exactly.
        lows = np.full(self.k, MASK64, dtype=np.uint64)
        for row, (h,) in self.hash.chunk_hashes(items, (HashKind.UNIT,)):
            lows[row] = min(lows[row], h.min())
        lows >>= np.uint64(12)
        np.minimum(self.mins, (lows.astype(np.float64) + 0.5) * 2.0**-52, out=self.mins)
        self.total_inserted += items.size

    def estimate_jaccard(self, other: "MinHashSketch") -> JaccardEstimate:
        """Fraction of rows whose minima coincide; unbiased for set J."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            raise EmptySketchError("minhash signature saw no items")
        matches = int(np.count_nonzero(self.mins == other.mins))
        return clamped_estimate(matches / self.k, Algo.MINHASH)


# -- HyperLogLog -------------------------------------------------------


@dataclass(frozen=True)
class CardinalityEstimate:
    value: float
    in_range: bool
    """True when the raw estimate lies in the calibrated band
    (2.5*L, 2^32/30]; outside it the formula is reported uncorrected."""


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of each uint64, as int64.

    Shifting out the low 32 bits of values that have high bits leaves
    numbers below 2**32, which float64 holds exactly, so frexp's exponent
    is their bit length (0 for 0). The whole value in float64 would round.
    """
    shift = (values >> np.uint64(32) != 0).astype(np.uint64) << np.uint64(5)
    _, length = np.frexp((values >> shift).astype(np.float64))
    return length + shift.astype(np.int64)


class HllSketch(_SetSketch):
    """2^M max-rank registers over an N-bit hash."""

    ALGO = Algo.HLL
    DEFAULT_N = 64
    DEFAULT_M = 11

    def __init__(
        self, m_bits: int = DEFAULT_M, n_bits: int = DEFAULT_N, master_seed: int = 0
    ) -> None:
        if not 1 <= m_bits < n_bits:
            raise ValueError(f"need 1 <= m_bits < n_bits, got ({m_bits}, {n_bits})")
        if n_bits > 64:
            raise ValueError(f"n_bits must be <= 64, got {n_bits}")
        super().__init__(dict(m_bits=m_bits, n_bits=n_bits, master_seed=master_seed), master_seed, 1)
        self.m_bits = m_bits
        self.n_bits = n_bits
        self.n_registers = 1 << m_bits
        self.registers = np.zeros(self.n_registers, dtype=np.uint8)

    @staticmethod
    def _budget_size(memory_bytes: int) -> int:
        return max(4, min(26, memory_bytes.bit_length() - 1))

    @property
    def alpha(self) -> float:
        return ALPHA_INF / (1.0 + ALPHA_INF / self.n_registers)

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        h = self.hash.bit_hash_many(items, self.n_bits)
        value_bits = self.n_bits - self.m_bits
        buckets = (h >> np.uint64(value_bits)).astype(np.int64)
        h &= np.uint64((1 << value_bits) - 1)  # in place: h keeps the value bits
        rho = value_bits - _bit_length(h) + 1
        np.maximum.at(self.registers, buckets, rho.astype(np.uint8))
        self.total_inserted += items.size

    def union(self, other: "HllSketch") -> "HllSketch":
        """Register-wise maximum: exactly the sketch of the union stream."""
        self._check_compatible(other)
        merged = HllSketch(self.m_bits, self.n_bits, self.master_seed)
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

    def estimate_jaccard(self, other: "HllSketch") -> JaccardEstimate:
        """Inclusion-exclusion over cardinality estimates of a, b, a|b."""
        self._check_estimable(other)
        card_a = self.cardinality().value
        card_b = other.cardinality().value
        card_union = self.union(other).cardinality().value
        raw = (card_a + card_b - card_union) / card_union
        return clamped_estimate(raw, Algo.HLL)


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

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        # Per chunk and row: the top rank belongs to the least 52-bit
        # value r = h >> 12 (rank 52 - bit_length(r), or 53 for r = 0),
        # and the items tying it are those with r < 2**bit_length. The
        # update rule gives the same state however a stream is cut, so
        # chunks apply it in turn.
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
        self.total_inserted += items.size

    def estimate_jaccard(
        self, other: "MaxLogHashSketch", union_card_hint: int = 2
    ) -> JaccardEstimate:
        """1 minus the scaled count of rows whose unique maximum sits on
        one side only; those rows witness items outside the intersection.
        """
        self._check_estimable(other)
        if union_card_hint < 2:
            raise ValueError(
                f"the bias constant needs union cardinality >= 2, got {union_card_hint}"
            )
        differs = self.maxlogs != other.maxlogs
        self_wins = self.maxlogs > other.maxlogs
        other_wins = other.maxlogs > self.maxlogs
        phi = (self.unique_flags & self_wins).astype(np.int64) + (
            other.unique_flags & other_wins
        ).astype(np.int64)
        delta = np.where(differs, phi, 0)
        raw = 1.0 - float(delta.sum()) / (self.k * ALPHA_INF)
        return clamped_estimate(raw, Algo.MAXLOGHASH)


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
        # One sign seed per coordinate, lifted out of the insert loop.
        self._sign_seeds = np.array(
            [self.hash.row_seed(HashKind.SIGN, row) for row in range(d)],
            dtype=np.uint64,
        )

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        for item in items:
            mixed = mix64_array(np.uint64(mix64(int(item))) ^ self._sign_seeds)
            self.vec += np.where(mixed >> np.uint64(63), 1.0, -1.0) * self._scale
        self.total_inserted += items.size

    def estimate_intersection(self, other: "DotHashSketch") -> float:
        self._check_compatible(other)
        return float(np.dot(self.vec, other.vec))

    def estimate_jaccard(
        self,
        other: "DotHashSketch",
        card_a: int | None = None,
        card_b: int | None = None,
    ) -> JaccardEstimate:
        """Inner-product intersection over inclusion-exclusion union.

        Cardinalities default to the insert counts, which equal the set
        sizes when each element was inserted exactly once.
        """
        self._check_estimable(other)
        card_a = self.total_inserted if card_a is None else card_a
        card_b = other.total_inserted if card_b is None else card_b
        inter = self.estimate_intersection(other)
        denom = card_a + card_b - inter
        if denom <= 0:
            raise DegenerateEstimateError(
                f"estimated union {denom} is not positive; d is too small "
                f"for these set sizes"
            )
        return clamped_estimate(inter / denom, Algo.DOTHASH)
