import numpy as np
import pytest
from conftest import find_seed, multiset_of, random_stream_pair
import reference as ref

from sketchsim.core import (
    CounterOverflowError,
    IncompatibleSketchError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.sketches import WeightedSimilaritySketch, weighted_row_similarity

X1, X2, X3 = 111, 222, 333


def sketch(rows=1, width=4, seed=0):
    params = SketchParams(rows=rows, width=width, master_seed=seed)
    return WeightedSimilaritySketch(params)


def injective_seed(items, rows, width, start=0):
    def ok(seed):
        s = sketch(rows=rows, width=width, seed=seed)
        for row in range(rows):
            slots = set(s.hash.index_hash_many(items, row, width).tolist())
            if len(slots) != len(items):
                return False
        return True

    return find_seed(ok, start=start)


def opposite_sign_collision(seed):
    """Whether X1 and X2 share row 0's slot of a width-4 sketch, with opposite signs."""
    s = sketch(seed=seed)
    (i, j), (a, b) = s.hash.index_hash_many([X1, X2], 0, 4), s.hash.sign_hash_many([X1, X2], 0)
    return i == j and a != b


class TestInsert:
    def test_single_insert_sets_both_fields(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(X1)
        for row in range(2):
            j = ref.index_hash(s.hash, X1, row, 8)
            assert s.cm_counters[row, j] == 1
            assert s.c_counters[row, j] == ref.sign_hash(s.hash, X1, row)

    def test_double_insert(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(X1)
        s.insert(X1)
        for row in range(2):
            j = ref.index_hash(s.hash, X1, row, 8)
            assert s.cm_counters[row, j] == 2
            assert abs(s.c_counters[row, j]) == 2

    def test_opposite_sign_collision_cancels_c_only(self):
        s = sketch(seed=find_seed(opposite_sign_collision))
        s.insert(X1)
        s.insert(X2)
        j = ref.index_hash(s.hash, X1, 0, 4)
        assert s.cm_counters[0, j] == 2
        assert s.c_counters[0, j] == 0

    def test_cm_row_sums_equal_total(self):
        rng = np.random.default_rng(2)
        s = sketch(rows=3, width=16, seed=3)
        s.insert_many(rng.integers(0, 500, size=400, dtype=np.uint64))
        assert (s.cm_counters.sum(axis=1) == 400).all()

    def test_field_invariants_on_random_streams(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            s = sketch(rows=2, width=8, seed=trial)
            s.insert_many(rng.integers(0, 60, size=200, dtype=np.uint64))
            assert (np.abs(s.c_counters) <= s.cm_counters).all()
            assert ((s.cm_counters - s.c_counters) % 2 == 0).all()

    def test_overflow_rejected_per_field(self):
        s = sketch(seed=5)
        s.insert(X1)
        j = ref.index_hash(s.hash, X1, 0, 4)
        s.cm_counters[0, j] = (1 << 32) - 1
        with pytest.raises(CounterOverflowError):
            s.insert(X1)


class TestEstimate:
    def test_injective_hand_example(self):
        # A = [x1,x1,x2], B = [x1,x3]: weights [2,1,1]/4, shared-slot
        # ratio 1/2 -> estimate 0.25, equal to the exact similarity.
        seed = injective_seed([X1, X2, X3], rows=1, width=4)
        a, b = sketch(seed=seed), sketch(seed=seed)
        a.insert_many([X1, X1, X2])
        b.insert_many([X1, X3])
        est = a.estimate_jaccard(b)
        assert est.raw == pytest.approx(0.25, abs=1e-15)
        assert multiset_of([X1, X1, X2]).jaccard(multiset_of([X1, X3])) == 0.25

    def test_identical_streams_exactly_one(self):
        # Exactness needs every occupied slot to keep a nonzero signed
        # field; a slot whose signs cancel to 0 is gated out of the ratio
        # but still carries weight. Pick a seed with no such slot.
        rng = np.random.default_rng(6)
        items = rng.integers(0, 100, size=300, dtype=np.uint64)

        def no_cancelled_slot(seed):
            s = sketch(rows=2, width=16, seed=seed)
            s.insert_many(items)
            return not ((s.c_counters == 0) & (s.cm_counters > 0)).any()

        seed = find_seed(no_cancelled_slot)
        a, b = sketch(rows=2, width=16, seed=seed), sketch(rows=2, width=16, seed=seed)
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).raw == 1.0

    def test_cancelled_slot_drags_identical_streams_below_one(self):
        seed = find_seed(opposite_sign_collision)
        a, b = sketch(seed=seed), sketch(seed=seed)
        for s in (a, b):
            s.insert(X1)
            s.insert(X2)
        # The only occupied slot has cm=2 but c=0, so its similarity term
        # is gated to zero despite the streams being identical.
        assert a.estimate_jaccard(b).raw == 0.0

    def test_disjoint_streams_injective_placement(self):
        items = [X1, X2, X3, 444]
        seed = injective_seed(items, rows=1, width=16)
        a, b = sketch(width=16, seed=seed), sketch(width=16, seed=seed)
        a.insert_many(items[:2])
        b.insert_many(items[2:])
        assert a.estimate_jaccard(b).raw == 0.0

    def test_no_collision_estimate_is_exact(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            sa, sb = random_stream_pair(rng, 150, 120, universe=12)
            support = sorted(set(sa.tolist()) | set(sb.tolist()))
            seed = injective_seed(support, rows=1, width=64, start=trial * 50)
            a, b = sketch(width=64, seed=seed), sketch(width=64, seed=seed)
            a.insert_many(sa)
            b.insert_many(sb)
            j = multiset_of(sa).jaccard(multiset_of(sb))
            assert a.estimate_jaccard(b).raw == pytest.approx(j, abs=1e-12)

    def test_estimate_within_unit_interval_and_symmetric(self):
        rng = np.random.default_rng(9)
        for trial in range(15):
            sa, sb = random_stream_pair(rng, 200, 150)
            a = sketch(rows=2, width=8, seed=trial)
            b = sketch(rows=2, width=8, seed=trial)
            a.insert_many(sa)
            b.insert_many(sb)
            est_ab = a.estimate_jaccard(b)
            est_ba = b.estimate_jaccard(a)
            assert 0.0 <= est_ab.raw <= 1.0
            assert est_ab.raw == est_ba.raw

    def test_row_weights_sum_to_one(self):
        # Reconstruct the weight vector of a row and check normalization.
        rng = np.random.default_rng(10)
        a, b = sketch(rows=2, width=8, seed=11), sketch(rows=2, width=8, seed=11)
        a.insert_many(rng.integers(0, 40, size=100, dtype=np.uint64))
        b.insert_many(rng.integers(0, 40, size=80, dtype=np.uint64))
        for row in range(2):
            mx = np.maximum(a.cm_counters[row], b.cm_counters[row])
            weights = mx / mx.sum()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_row_scores_zero(self):
        zeros = np.zeros(4, dtype=np.int32)
        assert weighted_row_similarity(zeros, zeros, zeros, zeros) == 0.0

    def test_both_empty_is_an_error(self):
        a, b = sketch(seed=1), sketch(seed=1)
        with pytest.raises(UndefinedSimilarityError):
            a.estimate_jaccard(b)

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(seed=1).estimate_jaccard(sketch(seed=2))


class TestMerge:
    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            s1, s2 = random_stream_pair(rng, 100, 70)
            a, b = sketch(rows=2, width=8, seed=trial), sketch(rows=2, width=8, seed=trial)
            a.insert_many(s1)
            b.insert_many(s2)
            merged = a.merge(b)
            direct = sketch(rows=2, width=8, seed=trial)
            direct.insert_many(np.concatenate([s1, s2]))
            assert (merged.cm_counters == direct.cm_counters).all()
            assert (merged.c_counters == direct.c_counters).all()

    def test_merge_with_empty_is_identity(self):
        a, b = sketch(seed=13), sketch(seed=13)
        a.insert_many([X1, X2, X2])
        merged = a.merge(b)
        assert (merged.cm_counters == a.cm_counters).all()
        assert (merged.c_counters == a.c_counters).all()

    def test_merge_opposite_sign_slots(self):
        seed = find_seed(opposite_sign_collision)
        a, b = sketch(seed=seed), sketch(seed=seed)
        a.insert(X1)
        b.insert(X2)
        merged = a.merge(b)
        j = ref.index_hash(merged.hash, X1, 0, 4)
        assert merged.cm_counters[0, j] == 2
        assert merged.c_counters[0, j] == 0

    def test_merge_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(rows=1).merge(sketch(rows=1, width=8))
