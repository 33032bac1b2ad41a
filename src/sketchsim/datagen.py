"""Synthetic Zipf streams and random splitting into stream pairs.

``zipf_stream`` inverts the Zipf CDF by table lookup. It draws its
uniforms in chunks of ``hashing.HASH_CHUNK``, which yields the same
doubles as one draw of the whole length, and maps each through a guide
table (Chen & Asau, 1974) of a power-of-two number of equal-width buckets.
The table is built by counting how many CDF entries fall at or below
each bucket's left end, which is exact because that number of buckets
is a power of two. A uniform whose bucket holds at most one CDF entry is
resolved by one comparison; the others fall back to a binary search.
Both give exactly the index ``np.searchsorted(cdf, u, side="right")``
would, so the stream depends on the seed alone, and no temporary is
longer than a chunk or the table.

``random_split`` walks its uniforms in the same chunks and takes each side
by index, so it too holds nothing longer than a chunk beside its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sketchsim.core import item_ids
from sketchsim.hashing import HASH_CHUNK, mix64, mix64_array


@dataclass(frozen=True)
class ZipfSpec:
    """Parameters for one synthetic stream draw.

    Probabilities are proportional to rank^(-alpha) over ranks
    1..n_distinct; alpha = 0 degenerates to the uniform law.
    """

    n_items: int
    n_distinct: int
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be positive")
        if self.n_distinct < 1:
            raise ValueError("n_distinct must be positive")
        # Written so that NaN fails too.
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha!r}")


def rank_ids(n_distinct: int) -> np.ndarray:
    """Deterministic item id for each rank, spread over the 64-bit space."""
    return mix64_array(np.arange(1, n_distinct + 1, dtype=np.uint64))


def zipf_stream(spec: ZipfSpec) -> np.ndarray:
    """Draw spec.n_items ids i.i.d. from the normalized Zipf law.

    Sampling inverts a precomputed cumulative table, through the guide
    table the module docstring describes, so every draw is exact and the
    stream is fully determined by spec.seed.
    """
    ranks = np.arange(1, spec.n_distinct + 1, dtype=np.float64)
    weights = ranks ** -spec.alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ids = rank_ids(spec.n_distinct)
    # Bucket j covers uniforms in [j/m, (j+1)/m), whose indices lie in
    # edges[j]..edges[j+1]. With m a power of two, u*m and j/m are exact.
    # At least 2·n_distinct buckets leave nearly every one holding at
    # most one CDF entry; start[j] = -1 marks those holding more.
    m = 1 << (2 * spec.n_distinct - 1).bit_length()
    # edges[j] counts the entries c <= j/m, that is those with
    # ceil(c·m) <= j: a running sum of how many entries have each ceiling.
    edges = np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1)
    np.cumsum(edges, out=edges)
    start = edges[:-1]
    start[np.diff(edges) > 1] = -1
    rng = np.random.default_rng(spec.seed)
    out = np.empty(spec.n_items, dtype=np.uint64)
    for lo in range(0, spec.n_items, HASH_CHUNK):
        u = rng.random(min(HASH_CHUNK, spec.n_items - lo))
        first = start[(u * m).astype(np.intp)]
        slow = first < 0
        # A bucket holding at most one CDF entry maps u to edges[j], plus
        # one if that entry is <= u.
        index = first + (cdf[first] <= u)
        if slow.any():
            index[slow] = np.searchsorted(cdf, u[slow], side="right")
        np.take(ids, index, out=out[lo : lo + len(u)])
    return out


def split_seed(seed: int) -> int:
    """The seed that splits the stream drawn with ``seed`` into a pair.

    The harness and ``gen-zipf`` both use it, so one seed names one
    stream pair whichever of them makes it.
    """
    return mix64(seed ^ 0x5EED)


def random_split(
    stream: np.ndarray, p: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Route each element independently to the first output with probability p.

    Order is preserved within each output, and the two outputs partition
    the input: their multiset sum equals the input multiset exactly.
    Element i goes first when the i-th uniform drawn with ``seed`` is
    below p. The draws are walked twice in chunks of ``HASH_CHUNK``,
    which yields the same doubles as one full-length draw: once to size
    the two outputs, then again to fill them by index, so apart from the
    outputs no temporary is longer than a chunk.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    stream = item_ids(stream)
    n = len(stream)
    starts = range(0, n, HASH_CHUNK)
    rng = np.random.default_rng(seed)
    counts = [np.count_nonzero(rng.random(min(HASH_CHUNK, n - lo)) < p) for lo in starts]
    first = np.empty(sum(counts), dtype=np.uint64)
    second = np.empty(n - len(first), dtype=np.uint64)
    rng = np.random.default_rng(seed)
    i = 0
    for lo, k in zip(starts, counts):
        chunk = stream[lo : lo + HASH_CHUNK]
        mask = rng.random(len(chunk)) < p
        # np.compress would copy its out slice; take in "clip" mode does not.
        np.take(chunk, np.flatnonzero(mask), out=first[i : i + k], mode="clip")
        # The lo - i elements before this chunk that are not first are second.
        j = lo - i
        np.take(chunk, np.flatnonzero(~mask), out=second[j : j + len(chunk) - k], mode="clip")
        i += k
    return first, second
