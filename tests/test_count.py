import numpy as np
import pytest
from conftest import find_seed, random_stream_pair

from sketchsim.core import (
    CounterOverflowError,
    IncompatibleSketchError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.sketches import CountSimilaritySketch

X, Y = 4242, 7777


def sketch(rows=1, width=4, seed=0):
    params = SketchParams(rows=rows, width=width, master_seed=seed)
    return CountSimilaritySketch(params)


def colliding_opposite_sign_seed(width=4):
    def ok(seed):
        s = sketch(width=width, seed=seed)
        return (
            s.hash.index_hash(X, 0, width) == s.hash.index_hash(Y, 0, width)
            and s.hash.sign_hash(X, 0) != s.hash.sign_hash(Y, 0)
        )

    return find_seed(ok)


class TestInsert:
    def test_single_insert_applies_sign(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(X)
        for row in range(2):
            j = s.hash.index_hash(X, row, 8)
            assert s.counters[row, j] == s.hash.sign_hash(X, row)

    def test_double_insert_magnitude_two(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(X)
        s.insert(X)
        for row in range(2):
            j = s.hash.index_hash(X, row, 8)
            assert abs(s.counters[row, j]) == 2

    def test_opposite_signs_cancel(self):
        seed = colliding_opposite_sign_seed()
        s = sketch(seed=seed)
        s.insert(X)
        s.insert(Y)
        assert (s.counters == 0).all()
        assert s.total_inserted == 2

    def test_insert_many_matches_repeated_insert(self):
        items = np.array([3, 9, 3, 12, 9, 9], dtype=np.uint64)
        a, b = sketch(rows=2, width=8, seed=2), sketch(rows=2, width=8, seed=2)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        assert (a.counters == b.counters).all()

    def test_overflow_rejected_on_both_bounds(self):
        s = sketch(seed=3)
        s.insert(X)
        j = s.hash.index_hash(X, 0, 4)
        sign = s.hash.sign_hash(X, 0)
        s.counters[0, j] = sign * ((1 << 31) - 1)
        with pytest.raises(CounterOverflowError):
            s.insert(X)


class TestEstimate:
    def test_single_slot_hand_example(self):
        # One occupied slot with magnitudes 2 and 1, same sign; width 4.
        a, b = sketch(seed=5), sketch(seed=5)
        a.insert(X)
        a.insert(X)
        b.insert(X)
        est = a.estimate_jaccard(b)
        assert est.raw == pytest.approx((1 / 4) * (1 / 2))

    def test_opposite_sign_slot_contributes_zero(self):
        seed = colliding_opposite_sign_seed()
        a, b = sketch(seed=seed), sketch(seed=seed)
        for _ in range(5):
            a.insert(X)
        for _ in range(3):
            b.insert(Y)
        # Slot magnitudes 5 and 3, but the counters disagree in sign.
        assert a.estimate_jaccard(b).raw == 0.0

    def test_identical_streams_average_of_occupied_slots(self):
        rng = np.random.default_rng(6)
        items = rng.integers(0, 50, size=200, dtype=np.uint64)
        a, b = sketch(rows=2, width=32, seed=7), sketch(rows=2, width=32, seed=7)
        a.insert_many(items)
        b.insert_many(items)
        occupied = np.count_nonzero(a.counters)
        est = a.estimate_jaccard(b)
        assert est.raw == pytest.approx(occupied / (2 * 32))
        assert est.raw < 1.0

    def test_estimate_within_unit_interval(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            sa, sb = random_stream_pair(rng, 150, 100)
            a = sketch(rows=2, width=16, seed=trial)
            b = sketch(rows=2, width=16, seed=trial)
            a.insert_many(sa)
            b.insert_many(sb)
            est = a.estimate_jaccard(b)
            assert 0.0 <= est.raw <= 1.0
            assert est.value == est.raw

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        sa, sb = random_stream_pair(rng, 300, 200)
        a, b = sketch(rows=2, width=8, seed=11), sketch(rows=2, width=8, seed=11)
        a.insert_many(sa)
        b.insert_many(sb)
        assert a.estimate_jaccard(b).raw == b.estimate_jaccard(a).raw

    def test_empty_sketches_are_undefined(self):
        a, b = sketch(seed=1), sketch(seed=1)
        with pytest.raises(UndefinedSimilarityError):
            a.estimate_jaccard(b)

    def test_widening_the_grid_dilutes_the_estimate(self):
        # Same stream, injective in both grids: the ratio sum is fixed
        # while the slot count grows.
        items = [101, 202, 303]

        def injective_at(seed, width):
            s = sketch(width=width, seed=seed)
            return len({s.hash.index_hash(x, 0, width) for x in items}) == len(items)

        seed = find_seed(lambda s: injective_at(s, 8) and injective_at(s, 64))
        estimates = []
        for width in (8, 64):
            a, b = sketch(width=width, seed=seed), sketch(width=width, seed=seed)
            a.insert_many(items)
            b.insert_many(items)
            estimates.append(a.estimate_jaccard(b).raw)
        assert estimates[1] < estimates[0]

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(seed=1).estimate_jaccard(sketch(seed=2))


class TestMerge:
    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            s1, s2 = random_stream_pair(rng, 90, 110)
            a, b = sketch(rows=2, width=8, seed=trial), sketch(rows=2, width=8, seed=trial)
            a.insert_many(s1)
            b.insert_many(s2)
            merged = a.merge(b)
            direct = sketch(rows=2, width=8, seed=trial)
            direct.insert_many(np.concatenate([s1, s2]))
            assert (merged.counters == direct.counters).all()

    def test_merge_with_empty_is_identity(self):
        a, b = sketch(seed=12), sketch(seed=12)
        a.insert_many([X, Y, X])
        assert (a.merge(b).counters == a.counters).all()

    def test_merge_doubles_magnitude(self):
        a, b = sketch(rows=2, width=8, seed=13), sketch(rows=2, width=8, seed=13)
        a.insert(X)
        b.insert(X)
        merged = a.merge(b)
        for row in range(2):
            j = merged.hash.index_hash(X, row, 8)
            assert abs(merged.counters[row, j]) == 2

    def test_merge_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(rows=1).merge(sketch(rows=1, width=8))
