"""Shared domain types for the similarity-sketch family.

Every sketch in this package is sized from a byte budget: the caller fixes
the total memory and a row count, and the number of counters per row follows
from the variant's per-slot byte cost. Keeping the budget authoritative (and
the width always derived) is what makes cross-algorithm accuracy comparisons
memory-fair.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

ItemId = int
"""Opaque 64-bit item identifier. Ingestion hashes tokens / address pairs
down to one of these; equality of ids is identity of items."""


def integer_id(item) -> int:
    """``item`` as a Python int. A float or a bool raises ``TypeError``, and
    an int outside [0, 2**64), which a uint64 cast would wrap, ``ValueError``."""
    if not isinstance(item, bool):
        try:
            value = operator.index(item)
        except TypeError:
            pass
        else:
            if 0 <= value < 1 << 64:
                return value
            raise ValueError(f"item ids must lie in [0, 2**64), got {value}")
    raise TypeError(f"item ids must be integers, got {type(item).__name__} {item!r}")


def item_ids(items) -> np.ndarray:
    """``items`` as one flat, contiguous uint64 batch: every entry point's one
    id rule. Non-integers raise ``TypeError``, since a cast would truncate
    them. An array of any shape is judged by its dtype, so an empty one
    passes, and an integer one is cast as is. A list or a scalar is judged
    item by item by :func:`integer_id`, as numpy would cast it unchecked."""
    if not hasattr(items, "dtype"):
        items = [integer_id(x) for x in items] if np.iterable(items) else integer_id(items)
    elif np.size(items) and items.dtype.kind not in "iu":
        raise TypeError(f"item ids must be integers, got an array of dtype {items.dtype}")
    return np.ascontiguousarray(items, dtype=np.uint64).reshape(-1)


class SketchError(Exception):
    """Base class for sketch-domain failures."""


class BudgetTooSmallError(SketchError):
    """Memory budget cannot fit even one counter per row."""


class IncompatibleSketchError(SketchError):
    """Two sketches do not share geometry and seed, so they cannot be compared."""


class UndefinedSimilarityError(SketchError):
    """Similarity of two empty operands is 0/0 and deliberately not defined."""


class CounterOverflowError(SketchError):
    """An insert or merge would push a counter past its value range."""


class RowSaturatedError(SketchError):
    """A ring counter already spans the whole row and still cannot grow."""


class DegenerateEstimateError(SketchError):
    """Estimator inputs leave the formula without a usable denominator."""


class Algo(str, enum.Enum):
    """Tags identifying which estimator produced a value."""

    CM = "cm"
    COUNT = "count"
    WEIGHTED = "weighted"
    SALSA = "salsa"
    MINHASH = "minhash"
    HLL = "hll"
    MAXLOGHASH = "maxloghash"
    DOTHASH = "dothash"


def derive_width(memory_bytes: int, rows: int, slot_bytes: int) -> int:
    """Number of counters per row affordable under ``memory_bytes``.

    Args:
        memory_bytes: total budget for the counter grid.
        rows: number of counter rows (independent hash functions).
        slot_bytes: cost of one slot for the variant at hand.

    Returns:
        ``memory_bytes // (rows * slot_bytes)``, always at least 1.

    Raises:
        BudgetTooSmallError: if the budget cannot fit one slot per row.
    """
    if memory_bytes < 1 or rows < 1 or slot_bytes < 1:
        raise ValueError(
            f"memory_bytes, rows and slot_bytes must be positive, got "
            f"({memory_bytes}, {rows}, {slot_bytes})"
        )
    width = memory_bytes // (rows * slot_bytes)
    if width < 1:
        raise BudgetTooSmallError(
            f"{memory_bytes} bytes cannot fit {rows} rows at "
            f"{slot_bytes} bytes per slot"
        )
    return width


@dataclass(frozen=True)
class SketchParams:
    """Geometry shared by a comparable pair of sketches.

    ``width`` is normally derived from the budget via :func:`derive_width`;
    constructing params with an explicit width is meant for tests and
    differential experiments.
    """

    rows: int
    width: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class JaccardEstimate:
    """One similarity estimate.

    ``value`` is clamped to [0, 1]; ``raw`` keeps the pre-clamp number so
    error analysis can see over- and under-shoot.
    """

    value: float
    raw: float
    algo: Algo


def clamped_estimate(raw: float, algo: Algo) -> JaccardEstimate:
    """Wrap a raw estimator output, clamping the reported value into [0, 1]."""
    return JaccardEstimate(value=min(1.0, max(0.0, raw)), raw=raw, algo=algo)
