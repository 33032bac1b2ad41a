"""Differential tests for the vector stages that run before the inserts.

Each stage is checked against the simpler form it replaced, kept here as
the reference: Zipf sampling against a full-length ``searchsorted``
inversion, ``multiset_jaccard`` against ``ExactMultiset``, and
``occurrence_numbers`` against a stable argsort.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchsim.baselines import occurrence_numbers
from sketchsim.core import UndefinedSimilarityError
from sketchsim.datagen import ZIPF_CHUNK, ZipfSpec, rank_ids, zipf_stream
from sketchsim.oracle import ExactMultiset, multiset_jaccard


def reference_zipf_stream(spec: ZipfSpec) -> np.ndarray:
    ranks = np.arange(1, spec.n_distinct + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -spec.alpha)
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(spec.seed).random(spec.n_items)
    return rank_ids(spec.n_distinct)[np.searchsorted(cdf, uniforms, side="right")]


def reference_occurrence_numbers(items: np.ndarray) -> np.ndarray:
    items = np.asarray(items, dtype=np.uint64)
    order = np.argsort(items, kind="stable")
    sorted_items = items[order]
    new_group = np.ones(len(items), dtype=bool)
    new_group[1:] = sorted_items[1:] != sorted_items[:-1]
    group_starts = np.maximum.accumulate(np.where(new_group, np.arange(len(items)), 0))
    occ = np.empty(len(items), dtype=np.int64)
    occ[order] = np.arange(len(items)) - group_starts + 1
    return occ


def reference_jaccard(a, b) -> float:
    return ExactMultiset.from_array(a).jaccard(ExactMultiset.from_array(b))


class TestZipfSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0.0, 0.6, 1.0, 2.0, math.inf]),
        st.sampled_from([1, 2, 3, 7, 1000, 1 << 16, 200_000]) | st.integers(1, 5000),
        st.sampled_from(
            [1, ZIPF_CHUNK - 1, ZIPF_CHUNK, ZIPF_CHUNK + 1, 3 * ZIPF_CHUNK + 12_345]
        ),
        st.integers(0, 1 << 32),
    )
    @example(0.6, 200_000, 3 * ZIPF_CHUNK + 12_345, 1)
    @example(math.inf, 1, ZIPF_CHUNK + 1, 0)
    def test_matches_searchsorted_inversion(self, alpha, n_distinct, n_items, seed):
        spec = ZipfSpec(n_items, n_distinct, alpha, seed)
        assert np.array_equal(zipf_stream(spec), reference_zipf_stream(spec))

    def test_steep_law_takes_the_fallback_search(self):
        # At alpha = 3 most tail ranks share a bucket with their neighbours,
        # so a long stream draws many uniforms that need the binary search.
        spec = ZipfSpec(4 * ZIPF_CHUNK, 50_000, 3.0, 11)
        assert np.array_equal(zipf_stream(spec), reference_zipf_stream(spec))


def _pool_streams():
    big = st.integers(0, (1 << 64) - 1)
    return st.lists(big, min_size=1, max_size=8).flatmap(
        lambda pool: st.tuples(
            st.lists(st.sampled_from(pool), max_size=200),
            st.lists(st.sampled_from(pool), max_size=200),
        )
    )


class TestMultisetJaccard:
    @settings(max_examples=150, deadline=None)
    @given(_pool_streams())
    @example(([], [1, 1, 2]))
    @example(([3], []))
    def test_matches_exact_multiset(self, pair):
        a, b = (np.array(s, dtype=np.uint64) for s in pair)
        if len(a) == 0 and len(b) == 0:
            return
        assert multiset_jaccard(a, b) == reference_jaccard(a, b)

    def test_disjoint_is_zero(self):
        assert multiset_jaccard(np.array([1, 2, 2], np.uint64), np.array([3, 4], np.uint64)) == 0.0

    def test_identical_is_one(self):
        a = np.array([5, 1 << 63, 5, 7], dtype=np.uint64)
        assert multiset_jaccard(a, a.copy()) == 1.0

    def test_one_empty_is_zero(self):
        a = np.array([9, 9], dtype=np.uint64)
        empty = np.array([], dtype=np.uint64)
        assert multiset_jaccard(a, empty) == multiset_jaccard(empty, a) == 0.0

    def test_both_empty_raises(self):
        empty = np.array([], dtype=np.uint64)
        with pytest.raises(UndefinedSimilarityError):
            multiset_jaccard(empty, empty)

    def test_zipf_pair_matches_to_the_last_bit(self):
        a = zipf_stream(ZipfSpec(200_000, 20_000, 0.6, 3))
        b = zipf_stream(ZipfSpec(150_000, 20_000, 0.9, 4))
        assert multiset_jaccard(a, b) == reference_jaccard(a, b)


class TestOccurrenceNumbers:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=300)
        )
    )
    @example([])
    @example([42])
    @example([7] * 300)
    def test_matches_stable_argsort(self, stream):
        items = np.array(stream, dtype=np.uint64)
        assert np.array_equal(occurrence_numbers(items), reference_occurrence_numbers(items))

    @pytest.mark.parametrize("universe", [1, 3, 1000, 1 << 62])
    def test_long_stream_matches_stable_argsort(self, universe):
        # Long enough for the vectorised sort kernels, from heavy
        # duplicates to nearly all distinct.
        items = np.random.default_rng(universe % 97).integers(
            0, universe, size=300_000, dtype=np.uint64
        )
        assert np.array_equal(occurrence_numbers(items), reference_occurrence_numbers(items))
