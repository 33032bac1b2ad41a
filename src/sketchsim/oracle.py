"""Exact multiset algebra.

The brute-force ground truth the sketches are measured against. A
multiset is one ``collections.Counter``, whose operators are the algebra
(``intersect`` and ``union`` are its ``&`` and ``|``, pointwise minima and
maxima) and whose ``total()`` is the cardinality, derived, not cached.
Nothing here is memory-bounded on purpose.

``multiset_jaccard`` computes the same similarity straight from two
arrays, from their sorted ``np.unique`` counts; the harness takes its
truth from it. ``ExactMultiset`` stays the reference it is tested
against.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Tuple

import numpy as np

from sketchsim.core import ItemId, UndefinedSimilarityError, integer_arg, integer_id, item_ids


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

    One ``Counter`` holds the multiplicities, and its operators are the
    algebra. Stored entries always have multiplicity >= 1; the support is
    exactly the key set. ``len()`` returns the cardinality (sum of
    multiplicities, ``Counter.total()``), not the support size.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[ItemId, int] | None = None) -> None:
        self._counts: Counter[ItemId] = Counter()
        if counts:
            for item, mult in counts.items():
                if integer_arg(mult, "multiplicity", 0):
                    self.insert(item, mult)

    @classmethod
    def _of(cls, counts: Counter) -> "ExactMultiset":
        """Wrap ``counts``, whose keys are ids and whose values are >= 1."""
        ms = cls()
        ms._counts = counts
        return ms

    @classmethod
    def from_items(cls, items: Iterable[ItemId]) -> "ExactMultiset":
        return cls._of(Counter(map(integer_id, items)))

    @classmethod
    def from_array(cls, items) -> "ExactMultiset":
        """Bulk constructor for large numpy streams."""
        values, counts = np.unique(item_ids(items), return_counts=True)
        return cls._of(Counter(dict(zip(values.tolist(), counts.tolist()))))

    def insert(self, item: ItemId, count: int = 1) -> None:
        """Add ``count`` occurrences, an integer of at least 1, of ``item``,
        an integer id."""
        self._counts[integer_id(item)] += integer_arg(count, "count", 1)

    def multiplicity(self, item: ItemId) -> int:
        return self._counts[integer_id(item)]

    def __len__(self) -> int:
        return self._counts.total()

    @property
    def cardinality(self) -> int:
        return len(self)

    @property
    def support_size(self) -> int:
        return len(self._counts)

    def support(self) -> Iterator[ItemId]:
        return iter(self._counts)

    def items(self) -> Iterator[Tuple[ItemId, int]]:
        return iter(self._counts.items())

    def is_empty(self) -> bool:
        return not self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"ExactMultiset({dict(self._counts)!r})"

    def copy(self) -> "ExactMultiset":
        return self._of(self._counts.copy())

    # -- multiset algebra -----------------------------------------------

    def union(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise multiplicity maximum."""
        return self._of(self._counts | other._counts)

    def intersect(self, other: "ExactMultiset") -> "ExactMultiset":
        """Pointwise multiplicity minimum; zero entries are dropped."""
        return self._of(self._counts & other._counts)

    def jaccard(self, other: "ExactMultiset") -> float:
        """Exact multiset Jaccard similarity; the union's cardinality is
        ``len(self) + len(other)`` minus the intersection's.

        Raises:
            UndefinedSimilarityError: if both operands are empty (0/0).
        """
        if self.is_empty() and other.is_empty():
            raise UndefinedSimilarityError("jaccard of two empty multisets is 0/0")
        inter = (self._counts & other._counts).total()
        return inter / (len(self) + len(other) - inter)

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
        needed = (1.0 - eps) * len(self)
        kept: Counter[ItemId] = Counter()
        covered = 0
        for item, mult in sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if covered >= needed:
                break
            kept[item] = mult
            covered += mult
        return self._of(kept)
