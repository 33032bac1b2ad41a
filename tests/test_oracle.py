import pytest
from hypothesis import given
from hypothesis import strategies as st
import reference as ref

from sketchsim.core import UndefinedSimilarityError
from sketchsim.oracle import ExactMultiset

X, Y, Z = 1001, 1002, 1003

multiset_dicts = st.dictionaries(
    keys=st.integers(min_value=0, max_value=60),
    values=st.integers(min_value=1, max_value=25),
    max_size=15,
)


def ms(d):
    return ExactMultiset(d)


class TestInsert:
    def test_insert_into_empty(self):
        a = ExactMultiset()
        a.insert(X)
        assert a.multiplicity(X) == 1
        assert len(a) == 1

    def test_insert_twice(self):
        a = ExactMultiset()
        a.insert(X)
        a.insert(X)
        assert a.multiplicity(X) == 2

    def test_two_distinct_items(self):
        a = ExactMultiset.from_items([X, Y])
        assert len(a) == 2
        assert a.support_size == 2

    def test_bulk_count(self):
        a = ExactMultiset()
        a.insert(X, count=5)
        assert a.multiplicity(X) == 5
        assert len(a) == a.cardinality == 5

    def test_rejects_nonpositive_count(self):
        a = ExactMultiset()
        with pytest.raises(ValueError):
            a.insert(X, count=0)

    def test_constructor_drops_zero_entries(self):
        a = ms({X: 0, Y: 3})
        assert a.support_size == 1
        assert len(a) == 3

    def test_constructor_rejects_negative(self):
        with pytest.raises(ValueError):
            ms({X: -1})

    def test_copy_is_independent(self):
        a = ms({X: 2})
        b = a.copy()
        b.insert(X)
        b.insert(Y)
        assert a == ms({X: 2}) and b == ms({X: 3, Y: 1})

    def test_repr_names_the_counts(self):
        assert repr(ms({X: 2, Y: 1})) == f"ExactMultiset({{{X}: 2, {Y}: 1}})"

    def test_not_equal_to_a_plain_mapping(self):
        assert (ExactMultiset() == {}) is False
        assert (ms({X: 1}) == {X: 1}) is False


class TestAlgebra:
    def test_sum_pointwise_addition(self):
        assert ref.multiset_sum(ms({X: 1}), ms({X: 2})) == ms({X: 3})

    def test_sum_identity(self):
        assert ref.multiset_sum(ms({X: 1}), ExactMultiset()) == ms({X: 1})

    def test_sum_three_items(self):
        assert ref.multiset_sum(ms({X: 1, Y: 2}), ms({Y: 1, Z: 3})) == ms({X: 1, Y: 3, Z: 3})

    def test_union_pointwise_max(self):
        assert ms({X: 1, Y: 2}).union(ms({X: 3})) == ms({X: 3, Y: 2})

    def test_union_idempotent(self):
        a = ms({X: 2, Y: 5})
        assert a.union(a) == a

    def test_union_identity(self):
        b = ms({X: 4, Z: 1})
        assert ExactMultiset().union(b) == b

    def test_intersect_pointwise_min(self):
        assert ms({X: 2, Y: 1}).intersect(ms({X: 1, Z: 1})) == ms({X: 1})

    def test_intersect_idempotent(self):
        a = ms({X: 2, Y: 5})
        assert a.intersect(a) == a

    def test_intersect_disjoint(self):
        assert ms({X: 2}).intersect(ms({Y: 3})) == ExactMultiset()

    def test_difference_subtracts(self):
        assert ref.multiset_difference(ms({X: 3}), ms({X: 1})) == ms({X: 2})

    def test_difference_clamps_at_zero(self):
        assert ref.multiset_difference(ms({X: 1}), ms({X: 5})) == ExactMultiset()

    def test_difference_identity(self):
        a = ms({X: 3, Y: 1})
        assert ref.multiset_difference(a, ExactMultiset()) == a

    @given(multiset_dicts, multiset_dicts)
    def test_min_max_identity(self, da, db):
        # m_min(x) + m_max(x) = m_a(x) + m_b(x) pointwise, hence for cardinalities.
        a, b = ms(da), ms(db)
        inter, union = a.intersect(b), a.union(b)
        assert len(inter) + len(union) == len(a) + len(b)
        for item in set(da) | set(db):
            assert inter.multiplicity(item) + union.multiplicity(item) == (
                a.multiplicity(item) + b.multiplicity(item)
            )

    @given(multiset_dicts, multiset_dicts)
    def test_sum_contains_union(self, da, db):
        a, b = ms(da), ms(db)
        s, u = ref.multiset_sum(a, b), a.union(b)
        for item in s.support():
            assert s.multiplicity(item) >= u.multiplicity(item)

    @given(multiset_dicts, multiset_dicts)
    def test_difference_recomposes(self, da, db):
        # (a \ b) + (a ∩ b) = a
        a, b = ms(da), ms(db)
        assert ref.multiset_sum(ref.multiset_difference(a, b), a.intersect(b)) == a


class TestJaccard:
    def test_hand_derived_quarter(self):
        a = ms({X: 2, Y: 1})
        b = ms({X: 1, Z: 1})
        assert a.jaccard(b) == 0.25

    def test_self_similarity_is_one(self):
        a = ms({X: 2, Y: 7})
        assert a.jaccard(a) == 1.0

    def test_disjoint_is_zero(self):
        assert ms({X: 1}).jaccard(ms({Y: 1})) == 0.0

    def test_both_empty_is_an_error(self):
        with pytest.raises(UndefinedSimilarityError):
            ExactMultiset().jaccard(ExactMultiset())

    def test_one_empty_is_zero(self):
        assert ExactMultiset().jaccard(ms({X: 1})) == 0.0

    @given(multiset_dicts, multiset_dicts)
    def test_symmetric_and_bounded(self, da, db):
        a, b = ms(da), ms(db)
        if a.is_empty() and b.is_empty():
            return
        j = a.jaccard(b)
        assert j == b.jaccard(a)
        assert 0.0 <= j <= 1.0

    @given(multiset_dicts, multiset_dicts)
    def test_one_iff_equal(self, da, db):
        a, b = ms(da), ms(db)
        if a.is_empty() and b.is_empty():
            return
        assert (a.jaccard(b) == 1.0) == (a == b)

    @given(multiset_dicts, multiset_dicts)
    def test_matches_ratio_of_algebra_cardinalities(self, da, db):
        a, b = ms(da), ms(db)
        if a.is_empty() and b.is_empty():
            return
        assert a.jaccard(b) == len(a.intersect(b)) / len(a.union(b))


class TestEpsilonSubset:
    def test_single_heavy_item_suffices(self):
        a = ms({X: 8, Y: 1, Z: 1})
        assert a.epsilon_subset(0.2) == ms({X: 8})

    def test_tiny_eps_keeps_everything(self):
        a = ms({X: 3, Y: 2, Z: 1})
        assert a.epsilon_subset(1e-9) == a

    def test_kept_items_retain_full_multiplicity(self):
        a = ms({X: 5, Y: 4, Z: 1})
        sub = a.epsilon_subset(0.15)
        for item in sub.support():
            assert sub.multiplicity(item) == a.multiplicity(item)

    def test_ties_break_by_ascending_id(self):
        a = ms({Y: 2, X: 2, Z: 2})
        sub = a.epsilon_subset(0.5)
        # Coverage target is 3, so two items of weight 2 are kept.
        assert sorted(sub.support()) == [X, Y]

    def test_eps_domain_enforced(self):
        a = ms({X: 1})
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                a.epsilon_subset(bad)

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            ExactMultiset().epsilon_subset(0.1)

    @given(multiset_dicts.filter(bool), st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    def test_coverage_bound(self, da, eps):
        a = ms(da)
        sub = a.epsilon_subset(eps)
        assert len(sub) >= (1.0 - eps) * len(a)

    @given(multiset_dicts.filter(bool), st.sampled_from([0.05, 0.1, 0.3]))
    def test_greedy_prefix_is_minimal(self, da, eps):
        # Dropping the lightest kept item must break the coverage bound.
        a = ms(da)
        sub = a.epsilon_subset(eps)
        kept = sorted(sub.items(), key=lambda kv: (kv[1], -kv[0]))
        if len(kept) > 1:
            lightest_mult = kept[0][1]
            assert len(sub) - lightest_mult < (1.0 - eps) * len(a)


class TestHeavySubsetSimilarityDrift:
    """Trimming both operands to heavy-hitter subsets moves Jaccard by < 2*eps."""

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_drift_bound_on_random_pairs(self, eps):
        import numpy as np

        rng = np.random.default_rng(12345)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            universe = rng.choice(200, size=n, replace=False)
            a, b = ExactMultiset(), ExactMultiset()
            for item in universe:
                ca = int(rng.integers(0, 30))
                cb = int(rng.integers(0, 30))
                if ca:
                    a.insert(int(item), ca)
                if cb:
                    b.insert(int(item), cb)
            if a.is_empty() or b.is_empty():
                continue
            j = a.jaccard(b)
            j_sub = a.epsilon_subset(eps).jaccard(b.epsilon_subset(eps))
            assert abs(j - j_sub) < 2 * eps

    @given(multiset_dicts.filter(bool), multiset_dicts.filter(bool))
    def test_drift_bound_property(self, da, db):
        a, b = ms(da), ms(db)
        for eps in (0.05, 0.1, 0.25):
            j = a.jaccard(b)
            j_sub = a.epsilon_subset(eps).jaccard(b.epsilon_subset(eps))
            assert abs(j - j_sub) < 2 * eps
