"""Exact multiset algebra.

The brute-force ground truth the sketches are measured against. Multisets
are plain multiplicity maps; cardinality is kept incrementally so repeated
similarity queries stay cheap. Nothing here is memory-bounded on purpose.

``multiset_jaccard`` computes the same similarity straight from two
arrays, from their sorted ``np.unique`` counts; the harness takes its
truth from it. ``ExactMultiset`` stays the reference it is tested
against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np

from sketchsim.core import ItemId, UndefinedSimilarityError, integer_id, item_ids


def multiset_jaccard(a, b) -> float:
    """Exact multiset Jaccard similarity of two arrays of 64-bit ids.

    Equals ``ExactMultiset.from_array(a).jaccard(ExactMultiset.from_array(b))``
    to the last bit: the intersection is an exact integer sum of
    pointwise minima, the union is ``len(a) + len(b)`` minus it, and the
    one division is of Python integers.

    Raises:
        TypeError: if either array holds ids that are not integers.
        UndefinedSimilarityError: if both arrays are empty (0/0).
    """
    a, b = item_ids(a), item_ids(b)
    if len(a) == 0 and len(b) == 0:
        raise UndefinedSimilarityError("jaccard of two empty multisets is 0/0")
    values_a, counts_a = np.unique(a, return_counts=True)
    values_b, counts_b = np.unique(b, return_counts=True)
    inter = 0
    if len(values_a) and len(values_b):
        # Where each value of a would sit in b; clipped so a value past
        # b's largest still indexes b, and then fails the equality test.
        at = np.minimum(np.searchsorted(values_b, values_a), len(values_b) - 1)
        shared = values_b[at] == values_a
        inter = int(np.minimum(counts_a[shared], counts_b[at[shared]]).sum())
    return inter / (len(a) + len(b) - inter)


class ExactMultiset:
    """Multiset over 64-bit item ids with exact multiplicities.

    Stored entries always have multiplicity >= 1; the support is exactly
    the key set. ``len()`` returns the cardinality (sum of multiplicities),
    not the support size.
    """

    __slots__ = ("_counts", "_cardinality")

    def __init__(self, counts: Mapping[ItemId, int] | None = None) -> None:
        self._counts: Dict[ItemId, int] = {}
        self._cardinality = 0
        if counts:
            for item, mult in counts.items():
                if mult < 0:
                    raise ValueError(f"negative multiplicity {mult} for item {item}")
                if mult > 0:
                    self._counts[item] = mult
                    self._cardinality += mult

    @classmethod
    def from_items(cls, items: Iterable[ItemId]) -> "ExactMultiset":
        ms = cls()
        for item in items:
            ms.insert(item)
        return ms

    @classmethod
    def from_array(cls, items) -> "ExactMultiset":
        """Bulk constructor for large numpy streams."""
        values, counts = np.unique(item_ids(items), return_counts=True)
        ms = cls()
        ms._counts = dict(zip(values.tolist(), counts.tolist()))
        ms._cardinality = int(counts.sum())
        return ms

    def insert(self, item: ItemId, count: int = 1) -> None:
        """Add ``count`` occurrences of ``item``, an integer id."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        item = integer_id(item)
        self._counts[item] = self._counts.get(item, 0) + count
        self._cardinality += count

    def multiplicity(self, item: ItemId) -> int:
        return self._counts.get(item, 0)

    def __len__(self) -> int:
        return self._cardinality

    @property
    def cardinality(self) -> int:
        return self._cardinality

    @property
    def support_size(self) -> int:
        return len(self._counts)

    def support(self) -> Iterator[ItemId]:
        return iter(self._counts)

    def items(self) -> Iterator[Tuple[ItemId, int]]:
        return iter(self._counts.items())

    def is_empty(self) -> bool:
        return self._cardinality == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"ExactMultiset({self._counts!r})"

    def copy(self) -> "ExactMultiset":
        return ExactMultiset(self._counts)

    # -- multiset algebra -----------------------------------------------

    def sum(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise multiplicity addition."""
        out = self.copy()
        for item, mult in other._counts.items():
            out._counts[item] = out._counts.get(item, 0) + mult
        out._cardinality = self._cardinality + other._cardinality
        return out

    def union(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise multiplicity maximum."""
        out = ExactMultiset()
        for item, mult in self._counts.items():
            out._counts[item] = max(mult, other._counts.get(item, 0))
        for item, mult in other._counts.items():
            if item not in self._counts:
                out._counts[item] = mult
        out._cardinality = sum(out._counts.values())
        return out

    def intersect(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise multiplicity minimum; zero entries are dropped."""
        small, large = (self, other) if len(self._counts) <= len(other._counts) else (other, self)
        out = ExactMultiset()
        for item, mult in small._counts.items():
            m = min(mult, large._counts.get(item, 0))
            if m > 0:
                out._counts[item] = m
        out._cardinality = sum(out._counts.values())
        return out

    def difference(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise subtraction clamped at zero."""
        out = ExactMultiset()
        for item, mult in self._counts.items():
            m = mult - other._counts.get(item, 0)
            if m > 0:
                out._counts[item] = m
        out._cardinality = sum(out._counts.values())
        return out

    def jaccard(self, other: "ExactMultiset") -> float:
        """Exact multiset Jaccard similarity.

        Raises:
            UndefinedSimilarityError: if both operands are empty (0/0).
        """
        if self.is_empty() and other.is_empty():
            raise UndefinedSimilarityError("jaccard of two empty multisets is 0/0")
        inter = 0
        union = 0
        for item, mult in self._counts.items():
            o = other._counts.get(item, 0)
            inter += min(mult, o)
            union += max(mult, o)
        for item, mult in other._counts.items():
            if item not in self._counts:
                union += mult
        return inter / union

    def epsilon_subset(self, eps: float) -> "ExactMultiset":
        """Heavy-hitter sub-multiset covering at least ``(1 - eps)`` of the mass.

        Items are taken greedily by descending multiplicity (ties by
        ascending id) until their multiplicities sum to at least
        ``(1 - eps) * cardinality``; kept items retain full multiplicity.
        This greedy choice minimizes the number of kept items among all
        valid sub-multisets and is deterministic.
        """
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if self.is_empty():
            raise ValueError("epsilon_subset of an empty multiset")
        needed = (1.0 - eps) * self._cardinality
        out = ExactMultiset()
        covered = 0
        for item, mult in sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if covered >= needed:
                break
            out._counts[item] = mult
            covered += mult
        out._cardinality = covered
        return out
