import numpy as np
import pytest
from conftest import find_seed, multiset_of, random_stream_pair

from sketchsim.core import (
    CounterOverflowError,
    IncompatibleSketchError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.sketches import CmSimilaritySketch

X1, X2, X3 = 111, 222, 333


def sketch(rows=1, width=4, seed=0):
    params = SketchParams(rows=rows, width=width, master_seed=seed)
    return CmSimilaritySketch(params)


def slot_preimage(s, stream, row, slot):
    """Exact sub-multiset of ``stream`` that ``s`` routes to (row, slot)."""
    return multiset_of(stream[s.hash.index_hash_many(stream, row, s.params.width) == slot])


def injective_seed(items, rows, width, start=0):
    def ok(seed):
        s = sketch(rows=rows, width=width, seed=seed)
        for row in range(rows):
            slots = {s.hash.index_hash(x, row, width) for x in items}
            if len(slots) != len(items):
                return False
        return True

    return find_seed(ok, start=start)


class TestInsert:
    def test_single_item_two_rows(self):
        s = sketch(rows=2, width=8)
        s.insert(X1)
        assert np.count_nonzero(s.counters == 1) == 2
        assert s.counters.sum() == 2
        assert s.total_inserted == 1

    def test_same_item_twice(self):
        s = sketch(rows=3, width=8)
        s.insert(X1)
        s.insert(X1)
        for row in range(3):
            j = s.hash.index_hash(X1, row, 8)
            assert s.counters[row, j] == 2

    def test_width_one_accumulates_everything(self):
        s = sketch(rows=2, width=1)
        s.insert_many(np.arange(100, 150, dtype=np.uint64))
        assert (s.counters[:, 0] == 50).all()

    def test_row_sums_equal_total_inserted(self):
        rng = np.random.default_rng(0)
        s = sketch(rows=4, width=16)
        s.insert_many(rng.integers(0, 1000, size=500, dtype=np.uint64))
        assert (s.counters.sum(axis=1) == s.total_inserted).all()
        assert s.total_inserted == 500

    def test_insert_many_matches_repeated_insert(self):
        items = np.array([5, 6, 5, 7, 5], dtype=np.uint64)
        a = sketch(rows=2, width=8)
        b = sketch(rows=2, width=8)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        assert (a.counters == b.counters).all()

    def test_overflow_rejected_without_partial_update(self):
        s = sketch(rows=1, width=4)
        s.insert(X1)
        j = s.hash.index_hash(X1, 0, 4)
        s.counters[0, j] = (1 << 32) - 1
        before = s.counters.copy()
        with pytest.raises(CounterOverflowError):
            s.insert(X1)
        assert (s.counters == before).all()


class TestEstimate:
    def test_injective_hand_example(self):
        # A = [x1,x1,x2], B = [x1,x3]: sum-min 1, sum-max 4 -> 0.25.
        seed = injective_seed([X1, X2, X3], rows=1, width=4)
        a, b = sketch(seed=seed), sketch(seed=seed)
        a.insert_many([X1, X1, X2])
        b.insert_many([X1, X3])
        est = a.estimate_jaccard(b)
        assert est.raw == 0.25
        assert multiset_of([X1, X1, X2]).jaccard(multiset_of([X1, X3])) == 0.25

    def test_collision_inflates_estimate(self):
        # Same streams, but x2 and x3 share a slot: sum-min 2, sum-max 3.
        def collides(seed):
            s = sketch(seed=seed)
            j1 = s.hash.index_hash(X1, 0, 4)
            j2 = s.hash.index_hash(X2, 0, 4)
            j3 = s.hash.index_hash(X3, 0, 4)
            return j2 == j3 != j1

        seed = find_seed(collides)
        a, b = sketch(seed=seed), sketch(seed=seed)
        a.insert_many([X1, X1, X2])
        b.insert_many([X1, X3])
        est = a.estimate_jaccard(b)
        assert est.raw == pytest.approx(2 / 3)
        assert est.raw >= 0.25

    def test_identical_streams_exactly_one(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 100, size=300, dtype=np.uint64)
        a, b = sketch(rows=2, width=16, seed=3), sketch(rows=2, width=16, seed=3)
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).raw == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        sa, sb = random_stream_pair(rng, 400, 300)
        a, b = sketch(rows=3, width=8, seed=5), sketch(rows=3, width=8, seed=5)
        a.insert_many(sa)
        b.insert_many(sb)
        assert a.estimate_jaccard(b).raw == b.estimate_jaccard(a).raw

    def test_never_underestimates(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            sa, sb = random_stream_pair(rng, 200, 250, universe=40)
            seed = int(rng.integers(0, 10000))
            rows = int(rng.integers(1, 5))
            width = int(rng.integers(8, 64))
            a = sketch(rows=rows, width=width, seed=seed)
            b = sketch(rows=rows, width=width, seed=seed)
            a.insert_many(sa)
            b.insert_many(sb)
            j = multiset_of(sa).jaccard(multiset_of(sb))
            assert a.estimate_jaccard(b).raw >= j

    def test_no_collision_row_is_exact(self):
        rng = np.random.default_rng(4)
        sa, sb = random_stream_pair(rng, 150, 150, universe=12)
        support = sorted(set(sa.tolist()) | set(sb.tolist()))
        seed = injective_seed(support, rows=1, width=64)
        a, b = sketch(width=64, seed=seed), sketch(width=64, seed=seed)
        a.insert_many(sa)
        b.insert_many(sb)
        j = multiset_of(sa).jaccard(multiset_of(sb))
        assert a.estimate_jaccard(b).raw == pytest.approx(j, abs=1e-12)

    def test_both_empty_is_an_error(self):
        a, b = sketch(seed=9), sketch(seed=9)
        with pytest.raises(UndefinedSimilarityError):
            a.estimate_jaccard(b)

    def test_one_empty_gives_zero(self):
        a, b = sketch(seed=9), sketch(seed=9)
        a.insert(X1)
        assert a.estimate_jaccard(b).raw == 0.0

    def test_incompatible_geometry_rejected(self):
        a = sketch(rows=1, width=4, seed=1)
        b = sketch(rows=1, width=8, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.estimate_jaccard(b)

    def test_budgets_of_one_width_compare(self):
        # Both budgets give 250 counters; the budget itself is not geometry.
        a = CmSimilaritySketch.from_budget(1000, 1, 1)
        b = CmSimilaritySketch.from_budget(1003, 1, 1)
        assert a.params.width == b.params.width == 250
        a.insert(X1)
        b.insert(X1)
        assert a.estimate_jaccard(b).raw == 1.0

    def test_incompatible_seed_rejected(self):
        a = sketch(seed=1)
        b = sketch(seed=2)
        with pytest.raises(IncompatibleSketchError):
            a.estimate_jaccard(b)


class TestSlotBounds:
    """Per-slot counters bound the exact per-slot sub-multiset overlaps."""

    def test_min_max_bound_slot_intersections(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            sa, sb = random_stream_pair(rng, 120, 100, universe=30)
            seed = int(rng.integers(0, 1000))
            a = sketch(rows=2, width=8, seed=seed)
            b = sketch(rows=2, width=8, seed=seed)
            a.insert_many(sa)
            b.insert_many(sb)
            for row in range(2):
                for slot in range(8):
                    pa = slot_preimage(a, sa, row, slot)
                    pb = slot_preimage(b, sb, row, slot)
                    lo = min(a.counters[row, slot], b.counters[row, slot])
                    hi = max(a.counters[row, slot], b.counters[row, slot])
                    if pa.is_empty() and pb.is_empty():
                        assert lo == hi == 0
                        continue
                    assert lo >= len(pa.intersect(pb))
                    assert hi <= len(pa.union(pb))


class TestHeavyItemIsolationBound:
    """Rows where all heavy items sit in distinct slots estimate within
    2*eps + 2*eps/(1-eps) of the true similarity."""

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_per_row_error_bound(self, eps):
        rng = np.random.default_rng(6)
        for trial in range(5):
            sa, sb = random_stream_pair(rng, 400, 350, universe=25)
            ma, mb = multiset_of(sa), multiset_of(sb)
            heavy = sorted(
                set(ma.epsilon_subset(eps).support())
                | set(mb.epsilon_subset(eps).support())
            )
            seed = injective_seed(heavy, rows=2, width=64, start=trial * 100)
            a, b = sketch(rows=2, width=64, seed=seed), sketch(rows=2, width=64, seed=seed)
            a.insert_many(sa)
            b.insert_many(sb)
            j = ma.jaccard(mb)
            bound = 2 * eps + 2 * eps / (1 - eps)
            for ratio in a.row_ratios(b):
                assert abs(j - ratio) < bound


class TestMerge:
    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            s1, s2 = random_stream_pair(rng, 100, 80)
            a, b = sketch(rows=2, width=8, seed=trial), sketch(rows=2, width=8, seed=trial)
            a.insert_many(s1)
            b.insert_many(s2)
            merged = a.merge(b)
            direct = sketch(rows=2, width=8, seed=trial)
            direct.insert_many(np.concatenate([s1, s2]))
            assert (merged.counters == direct.counters).all()
            assert merged.total_inserted == direct.total_inserted

    def test_merge_with_empty_is_identity(self):
        a, b = sketch(seed=4), sketch(seed=4)
        a.insert_many([X1, X2, X2])
        merged = a.merge(b)
        assert (merged.counters == a.counters).all()

    def test_merge_single_item_sketches(self):
        a, b = sketch(rows=2, width=8, seed=4), sketch(rows=2, width=8, seed=4)
        a.insert(X1)
        b.insert(X1)
        merged = a.merge(b)
        for row in range(2):
            j = merged.hash.index_hash(X1, row, 8)
            assert merged.counters[row, j] == 2

    def test_merge_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(seed=1).merge(sketch(seed=2))

    def test_merge_overflow_rejected(self):
        a, b = sketch(seed=4), sketch(seed=4)
        a.insert(X1)
        b.insert(X1)
        a.counters[0, a.hash.index_hash(X1, 0, 4)] = (1 << 32) - 1
        with pytest.raises(CounterOverflowError):
            a.merge(b)
