"""Classic set-similarity baselines and multiset-to-set adapters.

The streaming baselines (MinHash, HyperLogLog, MaxLogHash, DotHash)
estimate similarity of *sets*. Multiset streams are bridged by occurrence
expansion: the n-th arrival of item x becomes the pair (x, n), and the
Jaccard similarity of the expanded sets equals the multiset Jaccard of
the original streams exactly. Expansion comes in two flavors: an exact
occurrence table, and a count-min-backed variant that may over-report
occurrence numbers under collisions (cheaper, slightly lossy; both are
offered because either may feed the benchmark).

All baselines accept plain 64-bit item ids; use the adapters to feed
them multiset streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

import numpy as np

from sketchsim.core import (
    Algo,
    DegenerateEstimateError,
    EmptySketchError,
    IncompatibleSketchError,
    ItemId,
    JaccardEstimate,
    SketchParams,
    UndefinedSimilarityError,
    clamped_estimate,
)
from sketchsim.hashing import HashFamily, HashKind, mix64, mix64_array

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
    """
    items = np.asarray(items, dtype=np.uint64)
    order = np.argsort(items, kind="stable")
    sorted_items = items[order]
    # Start offset of each equal-value run, propagated across the run.
    new_group = np.empty(len(items), dtype=bool)
    if len(items):
        new_group[0] = True
        new_group[1:] = sorted_items[1:] != sorted_items[:-1]
    group_starts = np.maximum.accumulate(np.where(new_group, np.arange(len(items)), 0))
    ranks = np.arange(len(items)) - group_starts + 1
    occ = np.empty(len(items), dtype=np.int64)
    occ[order] = ranks
    return occ


def expand_exact_ids(items: np.ndarray) -> np.ndarray:
    """Exact occurrence expansion straight to combined 64-bit ids."""
    items = np.asarray(items, dtype=np.uint64)
    occ = occurrence_numbers(items).astype(np.uint64)
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


class MinHashSketch:
    """k independent minimum unit-hash values; match fraction estimates J."""

    ALGO = Algo.MINHASH
    DEFAULT_K = 128

    def __init__(self, k: int = DEFAULT_K, master_seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.master_seed = master_seed
        self.hash = HashFamily(master_seed, k)
        self.mins = np.full(k, np.inf, dtype=np.float64)
        self.n_inserted = 0

    def insert(self, item: ItemId) -> None:
        for row in range(self.k):
            u = self.hash.unit_hash(item, row)
            if u < self.mins[row]:
                self.mins[row] = u
        self.n_inserted += 1

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        for row in range(self.k):
            u_min = self.hash.unit_hash_many(items, row).min()
            if u_min < self.mins[row]:
                self.mins[row] = u_min
        self.n_inserted += items.size

    def is_empty(self) -> bool:
        return self.n_inserted == 0

    def _check_compatible(self, other: "MinHashSketch") -> None:
        if self.k != other.k or self.master_seed != other.master_seed:
            raise IncompatibleSketchError(
                "minhash signatures differ in k or seed"
            )

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


class HllSketch:
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
        self.m_bits = m_bits
        self.n_bits = n_bits
        self.n_registers = 1 << m_bits
        self.master_seed = master_seed
        self.hash = HashFamily(master_seed, 1)
        self.registers = np.zeros(self.n_registers, dtype=np.uint8)

    @property
    def alpha(self) -> float:
        return ALPHA_INF / (1.0 + ALPHA_INF / self.n_registers)

    def insert(self, item: ItemId) -> None:
        h = self.hash.bit_hash(item, self.n_bits)
        value_bits = self.n_bits - self.m_bits
        bucket = h >> value_bits
        rest = h & ((1 << value_bits) - 1)
        # rho: leftmost set bit position within the value bits; all-zero
        # value maps to value_bits + 1.
        rho = value_bits - rest.bit_length() + 1
        if rho > self.registers[bucket]:
            self.registers[bucket] = rho

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

    def is_empty(self) -> bool:
        return not self.registers.any()

    def _check_compatible(self, other: "HllSketch") -> None:
        if (
            self.m_bits != other.m_bits
            or self.n_bits != other.n_bits
            or self.master_seed != other.master_seed
        ):
            raise IncompatibleSketchError("hll registers differ in shape or seed")

    def union(self, other: "HllSketch") -> "HllSketch":
        """Register-wise maximum: exactly the sketch of the union stream."""
        self._check_compatible(other)
        merged = HllSketch(self.m_bits, self.n_bits, self.master_seed)
        merged.registers = np.maximum(self.registers, other.registers)
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
        self._check_compatible(other)
        if self.is_empty() and other.is_empty():
            raise UndefinedSimilarityError("both register arrays are empty")
        card_a = self.cardinality().value
        card_b = other.cardinality().value
        card_union = self.union(other).cardinality().value
        raw = (card_a + card_b - card_union) / card_union
        return clamped_estimate(raw, Algo.HLL)


# -- MaxLogHash --------------------------------------------------------


class MaxLogHashSketch:
    """k max-floor-log registers with uniqueness flags."""

    ALGO = Algo.MAXLOGHASH
    DEFAULT_K = 128

    def __init__(self, k: int = DEFAULT_K, master_seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.master_seed = master_seed
        self.hash = HashFamily(master_seed, k)
        self.maxlogs = np.full(k, -1, dtype=np.int64)
        self.unique_flags = np.ones(k, dtype=bool)
        self.n_inserted = 0

    def insert(self, item: ItemId) -> None:
        for row in range(self.k):
            rank = self.hash.unit_rank(item, row)
            a = self.maxlogs[row]
            if rank > a:
                self.maxlogs[row] = rank
                self.unique_flags[row] = True
            elif rank == a:
                self.unique_flags[row] = False
        self.n_inserted += 1

    def insert_many(self, items) -> None:
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return
        for row in range(self.k):
            ranks = self.hash.unit_rank_many(items, row)
            top = int(ranks.max())
            a = int(self.maxlogs[row])
            if top > a:
                self.maxlogs[row] = top
                # The flag survives only if a single batch item attains
                # the new maximum.
                self.unique_flags[row] = int(np.count_nonzero(ranks == top)) == 1
            elif top == a:
                self.unique_flags[row] = False
        self.n_inserted += items.size

    def is_empty(self) -> bool:
        return self.n_inserted == 0

    def _check_compatible(self, other: "MaxLogHashSketch") -> None:
        if self.k != other.k or self.master_seed != other.master_seed:
            raise IncompatibleSketchError("maxloghash states differ in k or seed")

    def estimate_jaccard(
        self, other: "MaxLogHashSketch", union_card_hint: int = 2
    ) -> JaccardEstimate:
        """1 minus the scaled count of rows whose unique maximum sits on
        one side only; those rows witness items outside the intersection.
        """
        self._check_compatible(other)
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


class DotHashSketch:
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
        self.d = d
        self.master_seed = master_seed
        self.hash = HashFamily(master_seed, d)
        self.vec = np.zeros(d, dtype=np.float64)
        self.n_inserted = 0
        self._scale = 1.0 / np.sqrt(d)
        # One sign seed per coordinate, lifted out of the insert loop.
        self._sign_seeds = np.array(
            [self.hash.row_seed(HashKind.SIGN, row) for row in range(d)],
            dtype=np.uint64,
        )

    def _signs(self, item: ItemId) -> np.ndarray:
        mixed = mix64_array(np.uint64(mix64(item)) ^ self._sign_seeds)
        return np.where(mixed >> np.uint64(63), 1.0, -1.0)

    def insert(self, item: ItemId) -> None:
        self.vec += self._signs(item) * self._scale
        self.n_inserted += 1

    def insert_many(self, items) -> None:
        for item in np.ascontiguousarray(items, dtype=np.uint64):
            self.insert(int(item))

    def is_empty(self) -> bool:
        return self.n_inserted == 0

    def _check_compatible(self, other: "DotHashSketch") -> None:
        if self.d != other.d or self.master_seed != other.master_seed:
            raise IncompatibleSketchError("dothash accumulators differ in d or seed")

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
        self._check_compatible(other)
        card_a = self.n_inserted if card_a is None else card_a
        card_b = other.n_inserted if card_b is None else card_b
        inter = self.estimate_intersection(other)
        denom = card_a + card_b - inter
        if denom <= 0:
            raise DegenerateEstimateError(
                f"estimated union {denom} is not positive; d is too small "
                f"for these set sizes"
            )
        return clamped_estimate(inter / denom, Algo.DOTHASH)
