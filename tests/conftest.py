import tracemalloc

import numpy as np

from sketchsim.hashing import MASK64, HashFamily, HashKind
from sketchsim.oracle import ExactMultiset

_MIX_A_INV = pow(0xFF51AFD7ED558CCD, -1, 1 << 64)
_MIX_B_INV = pow(0xC4CEB9FE1A85EC53, -1, 1 << 64)


def unmix64(x: int) -> int:
    """Inverse of ``mix64``: each xorshift by 33 undoes itself."""
    x ^= x >> 33
    x = (x * _MIX_B_INV) & MASK64
    x ^= x >> 33
    x = (x * _MIX_A_INV) & MASK64
    x ^= x >> 33
    return x


def item_with_hash(fam: HashFamily, kind: HashKind, row: int, h: int) -> int:
    """The item whose (kind, row) hash is ``h``."""
    return unmix64(unmix64(h) ^ fam.row_seed(kind, row))


def find_seed(pred, limit=20000, start=0):
    """First master seed in [start, start+limit) satisfying pred."""
    for seed in range(start, start + limit):
        if pred(seed):
            return seed
    raise AssertionError(f"no seed satisfying predicate in {limit} attempts")


def multiset_of(stream) -> ExactMultiset:
    ms = ExactMultiset()
    values, counts = np.unique(np.asarray(stream, dtype=np.uint64), return_counts=True)
    for v, c in zip(values, counts):
        ms.insert(int(v), int(c))
    return ms


def random_stream_pair(rng, n_a, n_b, universe=64, id_offset=10_000):
    """Two overlapping integer streams drawn from a small shared universe."""
    a = rng.integers(0, universe, size=n_a).astype(np.uint64) + id_offset
    b = rng.integers(0, universe, size=n_b).astype(np.uint64) + id_offset
    return a, b


def traced_peak(fn, *args):
    """``(peak, result)``: the most bytes ``fn(*args)`` held at once, and what it returned.

    Only allocations made during the call count, so the arguments are not,
    even when tracing was already on (``PYTHONTRACEMALLOC=1``): the peak is
    reset, and the bytes traced at the start are subtracted. A trace that
    was on before the call stays on after it.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return peak, result
