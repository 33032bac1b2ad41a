"""Seed-derived hash family.

One 64-bit master seed fixes every hash function in an experiment. Row
seeds are expanded splitmix-style from the master seed, tagged with the
row index and the hash kind, so index, sign, unit and bit hashes of the
same row never share a seed. Quality is enforced statistically by the
test suite rather than by depending on a named hash library.

Each hash has one implementation, its ``*_many`` form. The one-item
methods (``index_hash``, ``sign_hash``, ``unit_hash``, ``unit_rank``,
``bit_hash``) are views: element 0 of the ``*_many`` form on ``[item]``.

Every vector hash comes from one chunked pass,
:meth:`HashFamily.chunk_hashes`. It walks a batch in chunks of
:data:`HASH_CHUNK` items, premixes each chunk once, and then mixes the
premix with each (row, kind) seed in place, in buffers reused for the
whole pass, so no array as long as the batch is allocated. The grid
sketches, SALSA, MinHash, MaxLogHash and HLL consume the pass chunk by
chunk; the ``*_many`` methods copy its output into one array. DotHash,
built for small sets, hashes one item at a time over all its rows with
:meth:`HashFamily.row_hashes`.

The pass yields the kinds in :data:`OPEN_KINDS` open: without ``mix64``'s
closing xorshift ``x ^ (x >> 33)``. That step leaves bits 63..31 as they
are, and changes no hash below 2**33. So an open hash has the sign bit of
the full hash, and compares with any power of two as the full hash does,
which is all MaxLogHash asks of it. A consumer that needs every bit
closes the hash with :func:`close_hash`.
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence, Tuple

import numpy as np

from sketchsim.core import _integer, integer_id, item_ids

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xFF51AFD7ED558CCD
_MIX_B = 0xC4CEB9FE1A85EC53

_U33 = np.uint64(33)
_UMIX_A = np.uint64(_MIX_A)
_UMIX_B = np.uint64(_MIX_B)


def mix64(x: int) -> int:
    """Finalizing 64-bit mixer (murmur-style avalanche)."""
    x &= MASK64
    x ^= x >> 33
    x = (x * _MIX_A) & MASK64
    x ^= x >> 33
    x = (x * _MIX_B) & MASK64
    x ^= x >> 33
    return x


# Items per step of every chunked pass: the hashing pass, occurrence_numbers
# and the expanded ids in baselines, and zipf_stream and random_split. The
# hashing pass's few uint64 buffers of this length (256 KB each) stay in
# cache while every (row, kind) of a chunk is mixed.
HASH_CHUNK = 1 << 15


def _xorshift(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = x ^ (x >> 33)``, the first and last step of :func:`mix64`.

    It is linear over xor and its own inverse, because 2 * 33 >= 64.
    ``scratch`` takes the shifted values, so nothing is allocated.
    """
    np.right_shift(x, _U33, out=scratch)
    return np.bitwise_xor(x, scratch, out=out)


def close_hash(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Close an open hash in place; ``scratch`` has ``h``'s length."""
    return _xorshift(h, h, scratch)


def mix64_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = mix64(x)`` over uint64 arrays of one length; ``out`` may be ``x``.

    ``scratch`` takes the shifted values, so nothing is allocated.
    """
    _xorshift(x, out, scratch)
    out *= _UMIX_A
    _xorshift(out, out, scratch)
    out *= _UMIX_B
    return _xorshift(out, out, scratch)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array. Returns a new array."""
    x = np.array(x, dtype=np.uint64)
    return mix64_into(x, x, np.empty_like(x))


def bucket_of(h: np.ndarray, width: int) -> np.ndarray:
    """``h % width`` written over the uint64 array ``h``.

    A power-of-two width keeps the low bits with one ``&``. Any other is
    spelled as ``h - (h // width) * width``: numpy divides by a scalar
    with a precomputed multiply, about three times faster than its
    ``%``, and every step is exact in uint64.
    """
    w = np.uint64(width)
    if width & (width - 1) == 0:
        h &= w - np.uint64(1)
        return h
    quotient = h // w
    quotient *= w
    h -= quotient
    return h


class HashKind(enum.IntEnum):
    """Seed-separation tag; one sub-seed per (kind, row)."""

    INDEX = 0
    SIGN = 1
    UNIT = 2
    BIT = 3


# The kinds :meth:`HashFamily.chunk_hashes` yields open; see the module
# docstring.
OPEN_KINDS = frozenset({HashKind.SIGN, HashKind.UNIT})


class HashFamily:
    """Deterministic family of row-indexed hash functions.

    Args:
        master_seed: 64-bit experiment seed, an integer taken modulo
            2**64; a bool or a non-integer raises ``TypeError``.
        rows: number of rows the family serves; each row gets its own
            seed per hash kind.
    """

    __slots__ = ("master_seed", "rows", "_seeds")

    def __init__(self, master_seed: int, rows: int) -> None:
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.master_seed = _integer(master_seed, "master_seed must be an integer") & MASK64
        self.rows = rows
        # The seed of (row, kind) is mix64(master + (1 + 4*row + kind) *
        # GOLDEN mod 2**64); uint64 arithmetic wraps as the mod does. The
        # tags 1 + 4*row + kind, row-major below, are pairwise distinct;
        # multiplying by an odd constant keeps them distinct mod 2**64,
        # and mix64 is a bijection, so the seeds are pairwise distinct too.
        tags = np.arange(1, 1 + rows * len(HashKind), dtype=np.uint64).reshape(rows, len(HashKind))
        tags *= np.uint64(_GOLDEN)
        tags += np.uint64(self.master_seed)
        self._seeds = mix64_array(tags)

    def row_seed(self, kind: HashKind, row: int) -> int:
        self._check_row(row)
        return int(self._seeds[row, kind])

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range for {self.rows} rows")

    def row_hashes(self, item: int, kind: HashKind) -> np.ndarray:
        """``item``'s hashes under every row's seed of ``kind``, one per row."""
        return mix64_array(np.uint64(mix64(integer_id(item))) ^ self._seeds[:, kind])

    # -- vectorized -----------------------------------------------------

    def chunk_hashes(
        self,
        items: np.ndarray,
        kinds: Sequence[HashKind],
        rows: Sequence[int] | None = None,
    ) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
        """The one hashing pass behind every vector hash.

        Walks the batch ``items``, taken flat, in chunks of :data:`HASH_CHUNK`
        items and premixes each chunk once. Then, for each row of
        ``rows`` (default: every row), it yields ``(row, hashes)``, where
        ``hashes[j]`` holds the chunk's ``mix64(mix64(item) ^ seed)``
        under the seed of ``kinds[j]`` and ``row``: the value the ``*_many``
        methods reduce. The kinds of :data:`OPEN_KINDS` (SIGN and UNIT)
        come open: the closing xorshift of ``mix64`` is skipped, so only
        bits 63..31, which it never changes, are that hash's.
        :func:`close_hash` gives the rest. The hashes live in buffers
        reused for the whole pass; they are overwritten at the next step,
        and the caller may change them in place.
        """
        items = item_ids(items)
        rows = range(self.rows) if rows is None else rows
        for row in rows:
            self._check_row(row)
        # mix64 opens with the xorshift X, so X(premix ^ seed) equals
        # X(premix) ^ X(seed), and X(premix) is the premix without its
        # closing X. Each chunk keeps that form, and each (row, kind)
        # starts from its xor with X(seed): two steps fewer per hash.
        keys = self._seeds ^ (self._seeds >> _U33)
        size = min(items.size, HASH_CHUNK)
        premix, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        outs = [np.empty(size, dtype=np.uint64) for _ in kinds]
        for lo in range(0, items.size, HASH_CHUNK):
            n = min(HASH_CHUNK, items.size - lo)
            x, tmp = premix[:n], scratch[:n]
            _xorshift(items[lo : lo + n], x, tmp)
            x *= _UMIX_A
            _xorshift(x, x, tmp)
            x *= _UMIX_B
            for row in rows:
                hashes = []
                for kind, out in zip(kinds, outs):
                    h = np.bitwise_xor(x, keys[row, kind], out=out[:n])
                    h *= _UMIX_A
                    _xorshift(h, h, tmp)
                    h *= _UMIX_B
                    if kind not in OPEN_KINDS:
                        _xorshift(h, h, tmp)
                    hashes.append(h)
                yield row, tuple(hashes)

    def _mixed_many(self, items: np.ndarray, kind: HashKind, row: int) -> np.ndarray:
        """One (kind, row) of :meth:`chunk_hashes` as one array, closed."""
        items = item_ids(items)
        mixed = np.empty(items.size, dtype=np.uint64)
        lo = 0
        for _, (h,) in self.chunk_hashes(items, (kind,), (row,)):
            out = mixed[lo : lo + h.size]
            if kind in OPEN_KINDS:
                _xorshift(h, out, out)
            else:
                out[...] = h
            lo += h.size
        return mixed

    def index_hash_many(self, items: np.ndarray, row: int, width: int) -> np.ndarray:
        """Bucket indices in ``[0, width)`` under row ``row``, as int64."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        return bucket_of(self._mixed_many(items, HashKind.INDEX, row), width).view(np.int64)

    def sign_hash_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """Balanced signs in {+1, -1}, the hash's top bit, as int64."""
        h = self._mixed_many(items, HashKind.SIGN, row)
        return np.where(h >> np.uint64(63), np.int64(1), np.int64(-1))

    def unit_hash_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """Uniform reals strictly inside (0, 1), as float64.

        Built as ``(r + 0.5) * 2**-52`` from the hash's top 52 bits ``r``,
        so each is an exact dyadic float, never 0.0 or 1.0, and its log2
        is finite.
        """
        r = self._mixed_many(items, HashKind.UNIT, row) >> np.uint64(12)
        # 52-bit integers convert to float64 exactly.
        return (r.astype(np.float64) + 0.5) * 2.0**-52

    def unit_rank_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """``floor(-log2(u))`` of each unit hash ``u``, exactly, as int64 in [0, 53]."""
        r = self._mixed_many(items, HashKind.UNIT, row) >> np.uint64(12)
        # frexp(r + 0.5) = (m, e) with m in [0.5, 1); floor(log2(r + 0.5))
        # is e - 1 except exactly at powers of two, where m == 0.5.
        m, e = np.frexp(r.astype(np.float64) + 0.5)
        return (np.int64(52) - e + (m == 0.5)).astype(np.int64)

    def bit_hash_many(self, items: np.ndarray, bits: int) -> np.ndarray:
        """The top ``bits`` bits of each item's hash, as uint64."""
        if not 1 <= bits <= 64:
            raise ValueError(f"bits must be in [1, 64], got {bits}")
        h = self._mixed_many(items, HashKind.BIT, 0)
        return h >> np.uint64(64 - bits)

    # -- one-item views -------------------------------------------------

    def index_hash(self, item: int, row: int, width: int) -> int:
        return int(self.index_hash_many([item], row, width)[0])

    def sign_hash(self, item: int, row: int) -> int:
        return int(self.sign_hash_many([item], row)[0])

    def unit_hash(self, item: int, row: int) -> float:
        return float(self.unit_hash_many([item], row)[0])

    def unit_rank(self, item: int, row: int) -> int:
        return int(self.unit_rank_many([item], row)[0])

    def bit_hash(self, item: int, bits: int) -> int:
        return int(self.bit_hash_many([item], bits)[0])
