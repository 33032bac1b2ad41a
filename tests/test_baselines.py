import numpy as np
import pytest
from conftest import item_with_hash, multiset_of, random_stream_pair
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchsim.core import (
    DegenerateEstimateError,
    IncompatibleSketchError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.baselines import (
    DotHashSketch,
    HllSketch,
    MaxLogHashSketch,
    MinHashSketch,
    OccurrenceItem,
    expand_cm,
    expand_cm_ids,
    expand_exact,
    expand_exact_ids,
    occurrence_numbers,
)
from sketchsim.hashing import HashKind
from sketchsim.oracle import ExactMultiset


def set_of_pairs(stream):
    ms = ExactMultiset()
    for occ_item in expand_exact(stream):
        ms.insert(occ_item.item_id())
    return ms


class TestOccurrenceExpansion:
    def test_word_stream_expansion(self):
        a, rose, is_ = 11, 22, 33
        out = list(expand_exact([a, rose, is_, a, rose]))
        assert out == [
            OccurrenceItem(a, 1),
            OccurrenceItem(rose, 1),
            OccurrenceItem(is_, 1),
            OccurrenceItem(a, 2),
            OccurrenceItem(rose, 2),
        ]

    def test_all_distinct_stream(self):
        out = list(expand_exact([5, 6, 7]))
        assert all(o.occurrence == 1 for o in out)

    def test_triple_repeat(self):
        out = list(expand_exact([9, 9, 9]))
        assert [o.occurrence for o in out] == [1, 2, 3]

    def test_no_duplicate_pairs(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 50, size=400, dtype=np.uint64).tolist()
        pairs = [(o.base, o.occurrence) for o in expand_exact(stream)]
        assert len(pairs) == len(set(pairs))

    def test_occurrence_numbers_matches_streaming_expansion(self):
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 30, size=500, dtype=np.uint64)
        expected = [o.occurrence for o in expand_exact(stream.tolist())]
        assert occurrence_numbers(stream).tolist() == expected

    def test_expand_exact_ids_matches_item_id(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 20, size=100, dtype=np.uint64)
        ids = expand_exact_ids(stream)
        for i, occ_item in enumerate(expand_exact(stream.tolist())):
            assert int(ids[i]) == occ_item.item_id()

    def test_jaccard_bridge_to_multiset(self):
        # The set image's Jaccard equals the multiset Jaccard exactly.
        rng = np.random.default_rng(3)
        for _ in range(25):
            sa, sb = random_stream_pair(rng, 200, 150, universe=40)
            j_multi = multiset_of(sa).jaccard(multiset_of(sb))
            j_set = set_of_pairs(sa.tolist()).jaccard(set_of_pairs(sb.tolist()))
            assert j_set == j_multi

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ValueError):
            OccurrenceItem(base=1, occurrence=0)


class TestCmExpansion:
    def big_params(self):
        return SketchParams(rows=4, width=4096, master_seed=7)

    def test_collision_free_cm_matches_exact(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 25, size=300, dtype=np.uint64).tolist()
        assert list(expand_cm(stream, self.big_params())) == list(expand_exact(stream))

    def test_two_repeats_with_roomy_sketch(self):
        x = 42
        assert list(expand_cm([x, x], self.big_params())) == [
            OccurrenceItem(x, 1),
            OccurrenceItem(x, 2),
        ]

    def test_single_bucket_over_reports(self):
        params = SketchParams(rows=1, width=1, master_seed=0)
        out = list(expand_cm([1, 2], params))
        assert out[0] == OccurrenceItem(1, 1)
        # Everything shares the one counter, so the second distinct item
        # reads an inflated occurrence.
        assert out[1] == OccurrenceItem(2, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=300)
        ),
        st.integers(1, 3),
        st.integers(1, 64),
        st.integers(0, 1 << 32),
    )
    @example([], 2, 8, 0)
    @example([5] * 300, 3, 1, 1)
    def test_expand_cm_ids_matches_streaming_expansion(self, stream, rows, width, seed):
        # A pool of at most six distinct items gives heavy duplicates, and
        # narrow widths make distinct items share buckets in every row.
        params = SketchParams(rows=rows, width=width, master_seed=seed)
        expected = [o.item_id() for o in expand_cm(stream, params)]
        assert expand_cm_ids(np.array(stream, dtype=np.uint64), params).tolist() == expected

    def test_cm_query_never_under_reports(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 100, size=500, dtype=np.uint64).tolist()
        params = SketchParams(rows=2, width=32, master_seed=1)
        for cm, exact in zip(expand_cm(stream, params), expand_exact(stream), strict=True):
            assert cm.base == exact.base
            assert cm.occurrence >= exact.occurrence


class TestMinHash:
    def j_half_pair(self):
        common = list(range(100, 130))
        return common + list(range(1, 16)), common + list(range(16, 31))

    def test_identical_sets_estimate_one(self):
        a, b = MinHashSketch(k=64, master_seed=1), MinHashSketch(k=64, master_seed=1)
        items = [3, 1, 4, 1, 5]
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).value == 1.0

    def test_insert_many_matches_insert(self):
        # Both paths must equal the per-row minimum of the scalar unit
        # hashes.
        rng = np.random.default_rng(6)
        items = rng.integers(0, 1 << 40, size=200, dtype=np.uint64)
        a, b = MinHashSketch(k=32, master_seed=2), MinHashSketch(k=32, master_seed=2)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        expected = [min(a.hash.unit_hash(int(x), row) for x in items) for row in range(a.k)]
        assert a.mins.tolist() == expected
        assert b.mins.tolist() == expected

    def test_one_empty_side_estimates_zero(self):
        a, b = MinHashSketch(k=8, master_seed=3), MinHashSketch(k=8, master_seed=3)
        a.insert(1)
        assert a.estimate_jaccard(b).raw == 0.0
        assert b.estimate_jaccard(a).raw == 0.0

    def test_incompatible_rejected(self):
        a, b = MinHashSketch(k=8, master_seed=1), MinHashSketch(k=8, master_seed=2)
        a.insert(1)
        b.insert(1)
        with pytest.raises(IncompatibleSketchError):
            a.estimate_jaccard(b)
        with pytest.raises(IncompatibleSketchError):
            MinHashSketch(k=8).estimate_jaccard(MinHashSketch(k=16))

    def test_mean_over_seeds_near_truth(self):
        set_a, set_b = self.j_half_pair()
        j = ExactMultiset.from_items(set_a).jaccard(ExactMultiset.from_items(set_b))
        assert j == 0.5
        estimates = []
        for seed in range(200):
            a, b = MinHashSketch(k=128, master_seed=seed), MinHashSketch(k=128, master_seed=seed)
            a.insert_many(np.array(set_a, dtype=np.uint64))
            b.insert_many(np.array(set_b, dtype=np.uint64))
            estimates.append(a.estimate_jaccard(b).value)
        assert abs(np.mean(estimates) - 0.5) < 0.03


class TestHll:
    def test_register_rank_formula(self):
        s = HllSketch(m_bits=4, master_seed=1)
        value_bits = 60
        for item in range(50):
            h = s.hash.bit_hash(item, 64)
            bucket, rest = h >> value_bits, h & ((1 << value_bits) - 1)
            expected = value_bits - rest.bit_length() + 1
            fresh = HllSketch(m_bits=4, master_seed=1)
            fresh.insert(item)
            assert fresh.registers[bucket] == expected
            # Leading-one position examples: top bit set -> 1; an
            # all-zero remainder -> value_bits + 1.
            if rest >> (value_bits - 1):
                assert expected == 1
            if rest == 0:
                assert expected == value_bits + 1

    def test_insert_many_matches_insert(self):
        # Both paths must equal the scalar register rule: the register of
        # the top m_bits keeps the largest leftmost-one position of the
        # remaining value bits (value_bits + 1 for all zeros).
        rng = np.random.default_rng(7)
        items = rng.integers(0, 1 << 50, size=3000, dtype=np.uint64)
        a = HllSketch(master_seed=4)
        b = HllSketch(master_seed=4)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        value_bits = 64 - a.m_bits
        expected = [0] * a.n_registers
        for x in items:
            h = a.hash.bit_hash(int(x), 64)
            bucket, rest = h >> value_bits, h & ((1 << value_bits) - 1)
            expected[bucket] = max(expected[bucket], value_bits - rest.bit_length() + 1)
        assert a.registers.tolist() == expected
        assert b.registers.tolist() == expected

    @pytest.mark.parametrize("m_bits", [4, 10])
    def test_insert_many_rank_exact_past_53_value_bits(self, m_bits):
        # Float64 rounds these remainders up to the next power of two,
        # which would overstate their bit length by one.
        value_bits = 64 - m_bits
        top = 1 << value_bits
        rests = [top - 1, top - 2, (1 << 54) - 1, (1 << 53) + 1, 1 << 53, 3, 1, 0]
        hashes = [(bucket << value_bits) | rest for bucket, rest in enumerate(rests)]
        s = HllSketch(m_bits=m_bits, master_seed=1)
        items = [item_with_hash(s.hash, HashKind.BIT, 0, h) for h in hashes]
        assert [s.hash.bit_hash(x, 64) for x in items] == hashes
        s.insert_many(items)
        expected = [value_bits - rest.bit_length() + 1 for rest in rests]
        assert s.registers[: len(rests)].tolist() == expected

    def test_union_is_registerwise_max(self):
        rng = np.random.default_rng(8)
        sa = rng.integers(0, 1 << 50, size=5000, dtype=np.uint64)
        sb = rng.integers(0, 1 << 50, size=4000, dtype=np.uint64)
        a, b = HllSketch(master_seed=5), HllSketch(master_seed=5)
        a.insert_many(sa)
        b.insert_many(sb)
        direct = HllSketch(master_seed=5)
        direct.insert_many(np.concatenate([sa, sb]))
        merged = a.union(b)
        assert (merged.registers == np.maximum(a.registers, b.registers)).all()
        assert (merged.registers == direct.registers).all()

    def test_empty_reports_zero(self):
        s = HllSketch()
        est = s.cardinality()
        assert est.value == 0.0
        assert not est.in_range

    def test_small_set_estimate_flagged_out_of_range(self):
        s = HllSketch(master_seed=6)
        s.insert_many(np.arange(100, dtype=np.uint64))
        assert not s.cardinality().in_range

    def test_cardinality_accuracy(self):
        errors = []
        for seed in range(5):
            s = HllSketch(master_seed=seed)
            items = np.random.default_rng(seed).integers(
                0, 1 << 62, size=100_000, dtype=np.uint64
            )
            s.insert_many(items)
            est = s.cardinality()
            assert est.in_range
            errors.append(abs(est.value - 100_000) / 100_000)
        assert np.mean(errors) < 0.04

    def test_identical_registers_estimate_one(self):
        a, b = HllSketch(master_seed=7), HllSketch(master_seed=7)
        items = np.arange(1000, dtype=np.uint64)
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).value == 1.0

    def test_one_empty_estimates_zero(self):
        a, b = HllSketch(master_seed=8), HllSketch(master_seed=8)
        b.insert_many(np.arange(5000, dtype=np.uint64))
        assert a.estimate_jaccard(b).value == 0.0

    def test_both_empty_is_an_error(self):
        with pytest.raises(UndefinedSimilarityError):
            HllSketch().estimate_jaccard(HllSketch())

    def test_jaccard_accuracy_on_half_overlap(self):
        estimates = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            common = rng.integers(0, 1 << 61, size=25_000, dtype=np.uint64)
            only_a = rng.integers(1 << 61, 1 << 62, size=25_000, dtype=np.uint64)
            only_b = rng.integers(1 << 62, 1 << 63, size=25_000, dtype=np.uint64)
            a, b = HllSketch(master_seed=seed), HllSketch(master_seed=seed)
            a.insert_many(np.concatenate([common, only_a]))
            b.insert_many(np.concatenate([common, only_b]))
            estimates.append(a.estimate_jaccard(b).value)
        # True J is 1/3 up to duplicate-draw noise.
        assert abs(np.mean(estimates) - 1 / 3) < 0.1

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            HllSketch(master_seed=1).estimate_jaccard(HllSketch(master_seed=2))


class TestMaxLogHash:
    def test_first_insert_initializes(self):
        s = MaxLogHashSketch(k=16, master_seed=1)
        s.insert(99)
        assert (s.maxlogs >= 0).all()
        assert s.unique_flags.all()

    def test_reinserting_same_item_clears_flags(self):
        s = MaxLogHashSketch(k=16, master_seed=1)
        s.insert(99)
        s.insert(99)
        assert not s.unique_flags.any()
        assert (s.maxlogs >= 0).all()

    def test_registers_never_decrease(self):
        rng = np.random.default_rng(9)
        s = MaxLogHashSketch(k=32, master_seed=2)
        prev = s.maxlogs.copy()
        for item in rng.integers(0, 1 << 40, size=200, dtype=np.uint64):
            s.insert(int(item))
            assert (s.maxlogs >= prev).all()
            prev = s.maxlogs.copy()

    def test_insert_many_matches_insert(self):
        rng = np.random.default_rng(10)
        items = rng.integers(0, 1 << 40, size=400, dtype=np.uint64)
        # Duplicates matter for the uniqueness flags.
        items = np.concatenate([items, items[:50]])
        a, b = MaxLogHashSketch(k=64, master_seed=3), MaxLogHashSketch(k=64, master_seed=3)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        # Both paths must equal the scalar update rule, one item at a time.
        maxlogs, flags = [-1] * a.k, [True] * a.k
        for x in items:
            for row in range(a.k):
                rank = a.hash.unit_rank(int(x), row)
                if rank > maxlogs[row]:
                    maxlogs[row], flags[row] = rank, True
                elif rank == maxlogs[row]:
                    flags[row] = False
        for s in (a, b):
            assert s.maxlogs.tolist() == maxlogs
            assert s.unique_flags.tolist() == flags

    def test_identical_streams_estimate_one(self):
        a, b = MaxLogHashSketch(k=32, master_seed=4), MaxLogHashSketch(k=32, master_seed=4)
        items = np.arange(100, dtype=np.uint64)
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).value == 1.0

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            MaxLogHashSketch(k=8, master_seed=1).estimate_jaccard(
                MaxLogHashSketch(k=8, master_seed=2)
            )

    def test_mean_estimate_tracks_truth(self):
        # Sets with J = 0.6: 60 common, 20 unique per side.
        common = np.arange(1000, 1060, dtype=np.uint64)
        only_a = np.arange(2000, 2020, dtype=np.uint64)
        only_b = np.arange(3000, 3020, dtype=np.uint64)
        estimates = []
        for seed in range(20):
            a, b = MaxLogHashSketch(master_seed=seed), MaxLogHashSketch(master_seed=seed)
            a.insert_many(np.concatenate([common, only_a]))
            b.insert_many(np.concatenate([common, only_b]))
            estimates.append(a.estimate_jaccard(b).value)
        assert abs(np.mean(estimates) - 0.6) < 0.06


class TestDotHash:
    def test_empty_side_estimates_zero(self):
        a, b = DotHashSketch(d=256, master_seed=1), DotHashSketch(d=256, master_seed=1)
        a.insert_many(np.arange(10, dtype=np.uint64))
        assert a.estimate_jaccard(b).value == 0.0

    def test_sign_vector_matches_family(self):
        s = DotHashSketch(d=64, master_seed=2)
        s.insert(12345)
        for row in range(64):
            expected = s.hash.sign_hash(12345, row) / np.sqrt(64)
            assert s.vec[row] == pytest.approx(expected)

    @pytest.mark.parametrize("d,n", [(64, 40), (5, 300)])
    def test_vector_matches_scalar_loop_bitwise(self, d, n):
        # Reference: each coordinate adds the items' scaled signs one at
        # a time, in arrival order.
        items = np.random.default_rng(d).integers(0, 1 << 63, size=n, dtype=np.uint64)
        ref = DotHashSketch(d=d, master_seed=d)
        scale = 1.0 / np.sqrt(d)
        expected = []
        for row in range(d):
            value = 0.0
            for item in items.tolist():
                value += ref.hash.sign_hash(item, row) * scale
            expected.append(value)
        for cuts in ([], [1, n // 2, n - 3]):
            s = DotHashSketch(d=d, master_seed=d)
            for part in np.split(items, cuts):
                s.insert_many(part)
            assert s.vec.tobytes() == np.array(expected).tobytes()

    def test_self_inner_product_near_cardinality(self):
        rng = np.random.default_rng(11)
        items = rng.integers(0, 1 << 40, size=24, dtype=np.uint64)
        s = DotHashSketch(d=4096, master_seed=3)
        s.insert_many(items)
        assert abs(s.estimate_intersection(s) - 24) < 5

    def test_identical_small_sets_estimate_near_one(self):
        rng = np.random.default_rng(12)
        items = rng.integers(0, 1 << 40, size=32, dtype=np.uint64)
        estimates = []
        for seed in range(50):
            a, b = DotHashSketch(d=4096, master_seed=seed), DotHashSketch(d=4096, master_seed=seed)
            a.insert_many(items)
            b.insert_many(items)
            estimates.append(a.estimate_jaccard(b).value)
        assert abs(np.mean(estimates) - 1.0) < 0.05

    def test_intersection_unbiased_over_seeds(self):
        common = np.arange(500, 516, dtype=np.uint64)
        only_a = np.arange(700, 716, dtype=np.uint64)
        only_b = np.arange(900, 916, dtype=np.uint64)
        inters = []
        for seed in range(100):
            a, b = DotHashSketch(d=1024, master_seed=seed), DotHashSketch(d=1024, master_seed=seed)
            a.insert_many(np.concatenate([common, only_a]))
            b.insert_many(np.concatenate([common, only_b]))
            inters.append(a.estimate_intersection(b))
        assert abs(np.mean(inters) - 16) < 1.5

    def test_degenerate_union_rejected(self):
        s = DotHashSketch(d=1, master_seed=0)
        same_sign = [i for i in range(100) if s.hash.sign_hash(i, 0) == 1][:3]
        a, b = DotHashSketch(d=1, master_seed=0), DotHashSketch(d=1, master_seed=0)
        a.insert_many(np.array(same_sign, dtype=np.uint64))
        b.insert_many(np.array(same_sign, dtype=np.uint64))
        with pytest.raises(DegenerateEstimateError):
            a.estimate_jaccard(b)

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            DotHashSketch(d=8, master_seed=1).estimate_jaccard(
                DotHashSketch(d=8, master_seed=2)
            )
        with pytest.raises(IncompatibleSketchError):
            DotHashSketch(d=8).estimate_jaccard(DotHashSketch(d=16))


class TestFromBudget:
    @pytest.mark.parametrize("budget", [1, 7, 8, 1024, 10240])
    def test_sizes_follow_the_budget_rule(self, budget):
        # One 8-byte register per hash row; HLL takes the largest power
        # of two of registers the budget names, within [2**4, 2**26].
        registers = max(1, budget // 8)
        m_bits = max(4, min(26, budget.bit_length() - 1))
        sketches = [cls.from_budget(budget, 1, 5) for cls in (MinHashSketch, MaxLogHashSketch, DotHashSketch, HllSketch)]
        minhash, maxloghash, dothash, hll = sketches
        assert (minhash.k, maxloghash.k, dothash.d, hll.m_bits) == (registers, registers, registers, m_bits)
        assert all(s.master_seed == 5 for s in sketches)

    @pytest.mark.parametrize("cls", [MinHashSketch, MaxLogHashSketch, DotHashSketch, HllSketch])
    @pytest.mark.parametrize("budget, rows", [(0, 1), (-8, 1), (1024, 0)])
    def test_impossible_budgets_are_refused(self, cls, budget, rows):
        # As the counter sketches refuse them through derive_width.
        message = rf"memory_bytes and rows must be positive, got \({budget}, {rows}\)"
        with pytest.raises(ValueError, match=message):
            cls.from_budget(budget, rows, 5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MinHashSketch(k=0),
            lambda: MaxLogHashSketch(k=0),
            lambda: DotHashSketch(d=0),
            lambda: HllSketch(m_bits=0),
            lambda: HllSketch(m_bits=64),
        ],
        ids=["minhash k=0", "maxloghash k=0", "dothash d=0", "hll m_bits=0", "hll m_bits=64"],
    )
    def test_sizes_out_of_range_are_refused(self, make):
        with pytest.raises(ValueError):
            make()
