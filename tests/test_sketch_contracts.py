"""Contracts shared by the sketches.

Weighted's two fields are CM's and Count's fields under one hash family,
no sketch's state, whether a counter grid or a set baseline, depends
on how a stream is cut into batches, sketches of different types refuse
to compare, and two empty sketches have no similarity.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsim.baselines import DotHashSketch, HllSketch, MaxLogHashSketch, MinHashSketch
from sketchsim.core import IncompatibleSketchError, SketchParams, UndefinedSimilarityError
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

GRID_CLASSES = (CmSimilaritySketch, CountSimilaritySketch, WeightedSimilaritySketch)


def params(rows, width, seed):
    return SketchParams(rows=rows, width=width, master_seed=seed, memory_bytes=rows * width * 8)


def grid_state(s):
    fields = ("counters", "cm_counters", "c_counters")
    return {f: getattr(s, f).tolist() for f in fields if hasattr(s, f)}


def salsa_state(s):
    return [(r.level_of.tolist(), r.cm.tolist(), r.c.tolist()) for r in s.rows]


SET_SKETCHES = (
    lambda seed: MinHashSketch(k=16, master_seed=seed),
    lambda seed: MaxLogHashSketch(k=16, master_seed=seed),
    lambda seed: HllSketch(m_bits=4, master_seed=seed),
)


def set_state(s):
    if isinstance(s, MinHashSketch):
        return s.mins.tolist(), s.total_inserted
    if isinstance(s, MaxLogHashSketch):
        return s.maxlogs.tolist(), s.unique_flags.tolist(), s.total_inserted
    return s.registers.tolist()


class TestWeightedIsCmPlusCount:
    def test_fields_equal_cm_and_count_counters(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            rows = int(rng.integers(1, 5))
            width = int(rng.integers(1, 64))
            p = params(rows, width, seed=trial)
            stream = rng.integers(0, 1 << 63, size=int(rng.integers(0, 3000)), dtype=np.uint64)
            cm, count, weighted = (cls(p) for cls in GRID_CLASSES)
            for s in (cm, count, weighted):
                s.insert_many(stream)
            assert (weighted.cm_counters == cm.counters).all()
            assert (weighted.c_counters == count.counters).all()
            assert weighted.total_inserted == cm.total_inserted == count.total_inserted


@st.composite
def chunked_streams(draw, universe=40):
    # Small universes make all-duplicate pools; repeated cuts make empty parts.
    stream = draw(st.lists(st.integers(0, universe), max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return np.array(stream, dtype=np.uint64), [np.array(c, dtype=np.uint64) for c in chunks]


class TestBatchSplitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(chunked_streams(), st.integers(0, 1 << 32))
    def test_grid_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        for cls in GRID_CLASSES:
            whole, parts = cls(params(3, 8, seed)), cls(params(3, 8, seed))
            whole.insert_many(stream)
            for chunk in chunks:
                parts.insert_many(chunk)
            assert grid_state(parts) == grid_state(whole)
            assert parts.total_inserted == whole.total_inserted == len(stream)

    @settings(max_examples=60, deadline=None)
    @given(chunked_streams(universe=3), st.integers(0, 1 << 32))
    def test_salsa_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        # Two slots and four distinct items: long streams push a slot past
        # one byte, so buddy merges happen mid-stream.
        p = SketchParams(rows=2, width=2, master_seed=seed, memory_bytes=9)
        whole, parts = SalsaSimilaritySketch(p), SalsaSimilaritySketch(p)
        whole.insert_many(stream)
        for chunk in chunks:
            parts.insert_many(chunk)
        assert salsa_state(parts) == salsa_state(whole)
        assert parts.total_inserted == whole.total_inserted == len(stream)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(chunked_streams(), chunked_streams(universe=0), chunked_streams(universe=2)),
        st.integers(0, 1 << 32),
    )
    def test_set_baseline_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        for make in SET_SKETCHES:
            whole, parts = make(seed), make(seed)
            whole.insert_many(stream)
            for chunk in chunks:
                parts.insert_many(chunk)
            assert set_state(parts) == set_state(whole)


# One small sketch of each of the eight types, all under the same seed.
ALL_SKETCHES = {
    "cm": lambda: CmSimilaritySketch(params(1, 16, 1)),
    "count": lambda: CountSimilaritySketch(params(1, 16, 1)),
    "weighted": lambda: WeightedSimilaritySketch(params(1, 16, 1)),
    "salsa": lambda: SalsaSimilaritySketch(params(1, 16, 1)),
    "minhash": lambda: MinHashSketch(k=8, master_seed=1),
    "hll": lambda: HllSketch(m_bits=4, master_seed=1),
    "maxloghash": lambda: MaxLogHashSketch(k=8, master_seed=1),
    "dothash": lambda: DotHashSketch(d=8, master_seed=1),
}


class TestDifferentTypesRefuse:
    @pytest.mark.parametrize("first,second", list(itertools.permutations(ALL_SKETCHES, 2)))
    def test_every_ordered_pair_raises(self, first, second):
        a, b = ALL_SKETCHES[first](), ALL_SKETCHES[second]()
        items = np.arange(1, 40, dtype=np.uint64)
        a.insert_many(items)
        b.insert_many(items)
        with pytest.raises(IncompatibleSketchError, match="cannot compare"):
            a.estimate_jaccard(b)


class TestEmptyPairs:
    @pytest.mark.parametrize("name", ["maxloghash", "dothash"])
    def test_two_empty_sketches_are_undefined(self, name):
        a, b = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        with pytest.raises(UndefinedSimilarityError):
            a.estimate_jaccard(b)
