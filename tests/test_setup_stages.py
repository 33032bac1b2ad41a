"""Differential tests for the vector stages that run before the inserts.

Each stage is checked against the simpler form it replaced, kept here as
the reference: Zipf sampling against a full-length ``searchsorted``
inversion, the split against one full-length draw and mask,
``multiset_jaccard`` against ``ExactMultiset``, ``occurrence_numbers``
against a stable argsort, and the expansion adapters against their
full-length ``mix64_array`` form. The split, ``occurrence_numbers``
and both expansions are also held to bounds on the memory they allocate.
"""

import math

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchsim.baselines import expand_cm_ids, expand_exact_ids, occurrence_numbers
from sketchsim.core import SketchParams, UndefinedSimilarityError
from sketchsim.datagen import ZipfSpec, random_split, rank_ids, zipf_stream
from sketchsim.hashing import HASH_CHUNK, HashFamily, mix64_array
from sketchsim.oracle import ExactMultiset, multiset_jaccard


def reference_zipf_stream(spec: ZipfSpec) -> np.ndarray:
    ranks = np.arange(1, spec.n_distinct + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -spec.alpha)
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(spec.seed).random(spec.n_items)
    return rank_ids(spec.n_distinct)[np.searchsorted(cdf, uniforms, side="right")]


def reference_random_split(stream: np.ndarray, p: float, seed: int):
    mask = np.random.default_rng(seed).random(len(stream)) < p
    return stream[mask], stream[~mask]


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


def reference_occurrence_ids(items: np.ndarray, occ: np.ndarray) -> np.ndarray:
    return mix64_array(mix64_array(items) ^ occ.astype(np.uint64))


def reference_jaccard(a, b) -> float:
    return ExactMultiset.from_array(a).jaccard(ExactMultiset.from_array(b))


class TestZipfSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0.0, 0.6, 1.0, 2.0, math.inf]),
        st.sampled_from([1, 2, 3, 7, 1000, 1 << 16, 200_000]) | st.integers(1, 5000),
        st.sampled_from(
            [1, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1, 3 * HASH_CHUNK + 12_345]
        ),
        st.integers(0, 1 << 32),
    )
    @example(0.6, 200_000, 3 * HASH_CHUNK + 12_345, 1)
    @example(math.inf, 1, HASH_CHUNK + 1, 0)
    def test_matches_searchsorted_inversion(self, alpha, n_distinct, n_items, seed):
        spec = ZipfSpec(n_items, n_distinct, alpha, seed)
        assert np.array_equal(zipf_stream(spec), reference_zipf_stream(spec))

    def test_steep_law_takes_the_fallback_search(self):
        # At alpha = 3 most tail ranks share a bucket with their neighbours,
        # so a long stream draws many uniforms that need the binary search.
        spec = ZipfSpec(4 * HASH_CHUNK, 50_000, 3.0, 11)
        assert np.array_equal(zipf_stream(spec), reference_zipf_stream(spec))


class TestRandomSplit:
    @pytest.mark.parametrize(
        "n", [0, 1, HASH_CHUNK - 1, HASH_CHUNK + 1, 3 * HASH_CHUNK + 12_345]
    )
    @pytest.mark.parametrize("p", [1e-12, 0.3, 1 - 1e-12])
    def test_matches_one_full_length_draw(self, n, p):
        stream = np.random.default_rng(n).integers(0, 1 << 64, size=n, dtype=np.uint64)
        got = random_split(stream, p, seed=n + 5)
        for side, want in zip(got, reference_random_split(stream, p, seed=n + 5)):
            assert side.dtype == np.uint64
            assert np.array_equal(side, want)

    def test_holds_only_its_outputs(self):
        stream = zipf_stream(ZipfSpec(1_000_000, 100_000, 0.6, 1))
        peak, (first, second) = traced_peak(random_split, stream, 0.5, 3)
        outputs = first.nbytes + second.nbytes
        # Beyond the two outputs, a chunk's uniforms, mask and selection.
        assert peak < outputs + (1 << 20), f"peak {peak} bytes for {outputs} bytes of outputs"

    def test_holds_one_chunk_of_uniforms_beyond_its_outputs(self):
        # Beyond the two outputs: one chunk's uniforms (256 KB at HASH_CHUNK
        # items) and two chunk masks. Selecting by index writes each out
        # slice in place, where np.compress copies it.
        stream = zipf_stream(ZipfSpec(2_000_000, 100_000, 0.6, 1))
        peak, (first, second) = traced_peak(random_split, stream, 0.5, 3)
        outputs = first.nbytes + second.nbytes
        assert peak < outputs + (1 << 19), f"peak {peak} bytes for {outputs} bytes of outputs"


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


def _expansion_batch(distinct: bool) -> np.ndarray:
    """500k ids: Zipf draws from 50k values, or nearly all distinct."""
    if distinct:
        return np.random.default_rng(3).integers(0, 1 << 64, size=500_000, dtype=np.uint64)
    return zipf_stream(ZipfSpec(500_000, 50_000, 0.6, 2))


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

    @pytest.mark.parametrize("distinct", [False, True], ids=["zipf", "distinct"])
    def test_holds_under_1_5_batches(self, distinct):
        items = _expansion_batch(distinct)
        peak, occ = traced_peak(occurrence_numbers, items)
        # The sort buffer, which becomes the result, and a few chunk buffers.
        assert occ.nbytes == items.nbytes
        assert peak < 1.5 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"

    def test_refuses_a_batch_whose_keys_would_wrap(self):
        # A zero-stride view of 3,037,000,500 ids: the check must come
        # before anything as long as the batch is allocated.
        items = np.broadcast_to(np.uint64(0), (3_037_000_500,))
        with pytest.raises(ValueError, match="3,037,000,499"):
            occurrence_numbers(items)


class TestExpansion:
    def test_exact_ids_match_the_full_length_form(self):
        # Several hashing chunks, with a partial one at the end.
        items = zipf_stream(ZipfSpec(3 * HASH_CHUNK + 77, 5_000, 0.8, 5))
        want = reference_occurrence_ids(items, reference_occurrence_numbers(items))
        assert np.array_equal(expand_exact_ids(items), want)

    # 65,536 is the widest uint16 bucket range; the next widths take wider buckets.
    @pytest.mark.parametrize(
        "rows,width", [(1, 8192), (2, 8192), (3, 1000), (1, 65536), (1, 65537), (2, 70_000)]
    )
    def test_cm_ids_match_the_full_length_form(self, rows, width):
        items = zipf_stream(ZipfSpec(3 * HASH_CHUNK + 77, 20_000, 0.6, 6))
        params = SketchParams(rows=rows, width=width, master_seed=9)
        family = HashFamily(9, rows)
        occ = np.min(
            [
                reference_occurrence_numbers(family.index_hash_many(items, row, width))
                for row in range(rows)
            ],
            axis=0,
        )
        assert np.array_equal(expand_cm_ids(items, params), reference_occurrence_ids(items, occ))

    @pytest.mark.parametrize("distinct", [False, True], ids=["zipf", "distinct"])
    def test_exact_expansion_holds_under_3_5_batches(self, distinct):
        items = _expansion_batch(distinct)
        peak, ids = traced_peak(expand_exact_ids, items)
        # However many values are distinct.
        assert ids.nbytes == items.nbytes
        assert peak < 3.5 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"

    @pytest.mark.parametrize("distinct", [False, True], ids=["zipf", "distinct"])
    def test_exact_expansion_holds_under_1_5_batches(self, distinct):
        items = _expansion_batch(distinct)
        peak, ids = traced_peak(expand_exact_ids, items)
        # The ids are written over the occurrence numbers, so besides
        # them only chunk buffers are held.
        assert ids.nbytes == items.nbytes
        assert peak < 1.5 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"

    def test_cm_expansion_holds_under_3_5_batches(self):
        items = _expansion_batch(False)
        params = SketchParams(rows=2, width=8192, master_seed=1)
        peak, ids = traced_peak(expand_cm_ids, items, params)
        # The result, a rows x width table of running bucket counts and
        # chunk buffers, with room to spare.
        assert ids.nbytes == items.nbytes
        assert peak < 3.5 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"

    def test_cm_expansion_holds_under_2_batches(self):
        items = _expansion_batch(False)
        params = SketchParams(rows=2, width=8192, master_seed=1)
        peak, ids = traced_peak(expand_cm_ids, items, params)
        # The result, written chunk by chunk, the table of running bucket
        # counts and chunk buffers.
        assert ids.nbytes == items.nbytes
        assert peak < 2 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"

    def test_cm_expansion_holds_under_4_3_batches(self):
        items = _expansion_batch(False)
        params = SketchParams(rows=2, width=8192, master_seed=1)
        peak, ids = traced_peak(expand_cm_ids, items, params)
        # The result, a rows x width table of running bucket counts and
        # chunk buffers, with room to spare.
        assert ids.nbytes == items.nbytes
        assert peak < 4.3 * items.nbytes, f"peak {peak / items.nbytes:.2f}x the batch"
