"""Counter-grid similarity sketches.

Every grid variant is a set of counter fields over one rows-by-width
grid, filled by a single insert path: per row, an item hashes to one
slot, an unsigned field counts its arrivals there, and a signed field
adds its sign hash. The variants differ only in which fields they hold
and how they compare slots:

* :class:`CmSimilaritySketch`: one unsigned field; the estimate is the
  minimum over rows of (sum of per-slot minima) / (sum of per-slot
  maxima). Never under-estimates the true multiset Jaccard.
* :class:`CountSimilaritySketch`: one signed field; the estimate is the
  uniform average over all slots of :func:`sign_gated_ratios`.
* :class:`WeightedSimilaritySketch`: both fields; each row's estimate is
  :func:`weighted_row_similarity`, and the rows are averaged.

All variants are linear in the stream: merging two sketches equals
sketching the concatenated streams, counter for counter.

Counters are 32-bit (overflow-checked, not saturating), so a grid holds
exactly the bytes its budget is charged for. Totals are formed and checked
in int64 before they are written back, so no check sees a wrapped value.

All eight sketches, these and the set baselines, derive from ``_Sketch``,
which runs ``insert_many`` and ``estimate_jaccard``; each sketch writes
only its update, ``_insert``, and its raw estimator, ``_jaccard``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from sketchsim.core import (
    Algo,
    CounterOverflowError,
    IncompatibleSketchError,
    ItemId,
    JaccardEstimate,
    SketchParams,
    UndefinedSimilarityError,
    clamped_estimate,
    derive_width,
    item_ids,
)
from sketchsim.hashing import HASH_CHUNK, HashFamily, HashKind, bucket_of

_CM_MAX = (1 << 32) - 1
# Symmetric signed bounds; the negative end of two's complement is unused
# so that magnitude bounds are sign-independent.
_C_MAX = (1 << 31) - 1


def sign_gated_ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-slot min/max of ``|a|`` and ``|b|``; 0 where the signs differ
    or either side is 0. Gating on signs, not on ``a * b``, cannot
    overflow however large the counters grow."""
    mask = (np.sign(a) * np.sign(b)) > 0
    mag_a, mag_b = np.abs(a), np.abs(b)
    ratios = np.zeros(np.shape(a), dtype=np.float64)
    np.divide(np.minimum(mag_a, mag_b), np.maximum(mag_a, mag_b), out=ratios, where=mask)
    return ratios


def weighted_row_similarity(
    cm_a: np.ndarray, cm_b: np.ndarray, c_a: np.ndarray, c_b: np.ndarray
) -> float:
    """One row of the weighted estimator: the signed fields' slot ratios,
    averaged with weights max(cm_a, cm_b). An all-zero row gives 0."""
    max_cm = np.maximum(cm_a, cm_b)
    denom = int(max_cm.sum())
    if denom == 0:
        return 0.0
    return float((max_cm * sign_gated_ratios(c_a, c_b)).sum()) / denom


class _Sketch:
    """What all eight sketches share: the master seed and its hash family,
    the count of inserted arrivals, the insert and estimate entry points,
    and the checks two sketches pass before they are compared: the same
    type, then an equal ``geometry`` (the sizes and seed fixed at
    construction). Subclasses supply ``_insert``, which applies a batch of
    ids whole or raises having applied nothing, and ``_jaccard``, the raw
    estimate of two non-empty sketches."""

    ALGO: Algo

    def __init__(self, geometry, master_seed: int, hash_rows: int) -> None:
        self._geometry = geometry
        self.master_seed = master_seed
        self.hash = HashFamily(master_seed, hash_rows)
        self.total_inserted = 0

    def insert(self, item: ItemId) -> None:
        self.insert_many([item])

    def insert_many(self, items) -> None:
        """Insert a batch of integer ids; a batch that raises changes nothing."""
        items = item_ids(items)
        if items.size == 0:
            return
        self._insert(items)
        self.total_inserted += items.size

    def estimate_jaccard(self, other: "_Sketch") -> JaccardEstimate:
        """The estimate against a compatible sketch. One empty side shares
        no item with the other, so its raw estimate is 0.0."""
        self._check_estimable(other)
        raw = 0.0 if self.is_empty() or other.is_empty() else self._jaccard(other)
        return clamped_estimate(raw, self.ALGO)

    def is_empty(self) -> bool:
        return self.total_inserted == 0

    def _check_compatible(self, other: "_Sketch") -> None:
        if type(self) is not type(other):
            raise IncompatibleSketchError(
                f"cannot compare {type(self).__name__} with {type(other).__name__}"
            )
        if self._geometry != other._geometry:
            raise IncompatibleSketchError(
                f"sketch geometry differs: {self._geometry} vs {other._geometry}"
            )

    def _check_estimable(self, other: "_Sketch") -> None:
        self._check_compatible(other)
        if self.is_empty() and other.is_empty():
            raise UndefinedSimilarityError("both sketches are empty")


class _CounterSketch(_Sketch):
    """Params and budget sizing of every counter sketch; the params are
    its geometry. Subclasses supply ``_budget_width``."""

    def __init__(self, params: SketchParams) -> None:
        super().__init__(params, params.master_seed, params.rows)
        self.params = params

    @classmethod
    def from_budget(cls, memory_bytes: int, rows: int, master_seed: int):
        width = cls._budget_width(memory_bytes, rows)
        return cls(SketchParams(rows=rows, width=width, master_seed=master_seed))


def _check_range(totals: np.ndarray, signed: bool, what: str) -> None:
    # Unsigned totals are sums of counts, so only their maximum can fail.
    if signed and (int(totals.max(initial=0)) > _C_MAX or int(totals.min(initial=0)) < -_C_MAX):
        raise CounterOverflowError(f"{what} would exceed the signed 32-bit counter range")
    if not signed and int(totals.max(initial=0)) > _CM_MAX:
        raise CounterOverflowError(f"{what} would exceed the 32-bit counter range")


class _GridSketch(_CounterSketch):
    """Counter fields over one rows-by-width grid.

    ``FIELDS`` maps each field's attribute name to whether it is signed.
    An unsigned field (uint32) counts arrivals per slot; a signed field
    (int32) sums the arrivals' sign hashes. An insert forms and checks
    the new totals in its int64 count buffer and writes them back only
    once every field has passed.
    """

    SLOT_BYTES: int
    FIELDS: Dict[str, bool]

    def __init__(self, params: SketchParams) -> None:
        super().__init__(params)
        for name, signed in self.FIELDS.items():
            dtype = np.int32 if signed else np.uint32
            setattr(self, name, np.zeros((params.rows, params.width), dtype))

    @classmethod
    def _budget_width(cls, memory_bytes: int, rows: int) -> int:
        return derive_width(memory_bytes, rows, cls.SLOT_BYTES)

    def _insert(self, items: np.ndarray) -> None:
        width = self.params.width
        signed = any(self.FIELDS.values())
        kinds = (HashKind.INDEX, HashKind.SIGN) if signed else (HashKind.INDEX,)
        # A signed grid counts slot i + s*width, where s is the arrival's
        # sign bit (1 for +1), so one count gives both signs per slot.
        bins = 2 * width if signed else width
        counts = np.zeros((self.params.rows, bins), dtype=np.int64)
        for row, hashes in self.hash.chunk_hashes(items, kinds):
            idx = bucket_of(hashes[0], width)
            if signed:
                sign_bit = hashes[1]
                sign_bit >>= np.uint64(63)
                sign_bit *= np.uint64(width)
                idx += sign_bit
            idx = idx.view(np.int64)
            # A dense count costs O(bins) per chunk, a scattered add
            # O(items). On numpy 2.4.6, bincount is level to 13% faster at
            # 10 KB grids, and add.at 1.3-7 times faster from 32k bins up.
            # The buffer stays int64: np.add.at into int32 with a Python 1
            # takes numpy's casting path, about 150 ns an arrival, not 9.
            if bins < HASH_CHUNK:
                counts[row] += np.bincount(idx, minlength=bins)
            else:
                np.add.at(counts[row], idx, 1)
        if signed:  # totals in place: signed pos - neg, unsigned 2*neg + (pos - neg)
            neg, pos = counts[:, :width], counts[:, width:]
            pos -= neg
            if not all(self.FIELDS.values()):
                neg *= 2
                neg += pos
        totals = {False: neg, True: pos} if signed else {False: counts}
        for name, is_signed in self.FIELDS.items():
            totals[is_signed] += getattr(self, name)
            _check_range(totals[is_signed], is_signed, f"insert into {name}")
        for name, is_signed in self.FIELDS.items():
            getattr(self, name)[...] = totals[is_signed]

    def merge(self, other: "_GridSketch") -> "_GridSketch":
        """Field-wise sum; equivalent to sketching the concatenated streams."""
        self._check_compatible(other)
        merged = type(self)(self.params)
        for name, is_signed in self.FIELDS.items():
            # Summed in int64: a 32-bit sum would wrap before the check.
            total = np.add(getattr(self, name), getattr(other, name), dtype=np.int64)
            _check_range(total, is_signed, f"merge of {name}")
            getattr(merged, name)[...] = total
        merged.total_inserted = self.total_inserted + other.total_inserted
        return merged


class CmSimilaritySketch(_GridSketch):
    """Unsigned counter grid with the min-over-rows min/max-sum estimator."""

    ALGO = Algo.CM
    SLOT_BYTES = 4
    FIELDS = {"counters": False}

    def row_ratios(self, other: "CmSimilaritySketch") -> np.ndarray:
        """Per-row (sum of minima)/(sum of maxima); the estimate is their min."""
        self._check_estimable(other)
        mins = np.minimum(self.counters, other.counters).sum(axis=1)
        maxs = np.maximum(self.counters, other.counters).sum(axis=1)
        # Every row counts every insertion, so maxs > 0 once either
        # sketch is nonempty.
        return mins / maxs

    def _jaccard(self, other: "CmSimilaritySketch") -> float:
        return float(self.row_ratios(other).min())


class CountSimilaritySketch(_GridSketch):
    """Sign-hashed counter grid with the uniform slot-average estimator."""

    ALGO = Algo.COUNT
    SLOT_BYTES = 4
    FIELDS = {"counters": True}

    def _jaccard(self, other: "CountSimilaritySketch") -> float:
        """Average over all k*l slots of sign-gated min/max magnitude ratio.

        Empty slots contribute 0, so the estimate dilutes toward 0 as the
        grid grows past the stream's support. That is inherent to the
        uniform average, not a bug.
        """
        ratios = sign_gated_ratios(self.counters, other.counters)
        return float(ratios.sum() / (self.params.rows * self.params.width))


class WeightedSimilaritySketch(_GridSketch):
    """Two-field slots: unsigned counts weight the signed-field similarities.

    Per slot, the unsigned ``cm`` field counts arrivals and the signed
    ``c`` field accumulates sign hashes. Row estimate: sum over slots of
    [max(cm_a, cm_b) / row total of max(cm_a, cm_b)] times the sign-gated
    min/max ratio of |c| values; the final estimate averages the rows.
    """

    ALGO = Algo.WEIGHTED
    SLOT_BYTES = 8
    FIELDS = {"cm_counters": False, "c_counters": True}

    def _jaccard(self, other: "WeightedSimilaritySketch") -> float:
        acc = 0.0
        for row in zip(self.cm_counters, other.cm_counters, self.c_counters, other.c_counters):
            acc += weighted_row_similarity(*row)
        return acc / self.params.rows
