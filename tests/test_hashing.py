import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
import reference as ref

from sketchsim.hashing import MASK64, HashFamily, HashKind, bucket_of, mix64, mix64_array

item_ids = st.integers(min_value=0, max_value=MASK64)


def random_items(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64)


class TestMix64:
    def test_known_fixed_point_at_zero(self):
        assert mix64(0) == 0

    def test_deterministic(self):
        assert mix64(123456789) == mix64(123456789)

    @given(item_ids)
    def test_stays_in_64_bits(self, x):
        assert 0 <= mix64(x) <= MASK64

    @given(st.integers(min_value=-(1 << 70), max_value=1 << 70))
    def test_masks_wide_input(self, x):
        assert mix64(x) == mix64(x & MASK64)

    def test_array_matches_scalar(self):
        items = random_items(4096, seed=1)
        mixed = mix64_array(items)
        for i in range(0, 4096, 257):
            assert int(mixed[i]) == mix64(int(items[i]))

    def test_avalanche_single_bit_flip(self):
        # Flipping one input bit should flip close to half the output bits.
        rng = np.random.default_rng(2)
        flips = []
        for x in rng.integers(0, 1 << 63, size=200):
            for bit in (0, 17, 40, 63):
                d = mix64(int(x)) ^ mix64(int(x) ^ (1 << bit))
                flips.append(bin(d).count("1"))
        assert 28 < np.mean(flips) < 36


class TestSeedDerivation:
    def test_seeds_pairwise_distinct(self):
        fam = HashFamily(master_seed=42, rows=16)
        seeds = [fam.row_seed(kind, row) for row in range(16) for kind in HashKind]
        assert len(set(seeds)) == len(seeds)

    def test_seed_depends_on_master(self):
        a = HashFamily(master_seed=1, rows=2)
        b = HashFamily(master_seed=2, rows=2)
        assert a.row_seed(HashKind.INDEX, 0) != b.row_seed(HashKind.INDEX, 0)

    def test_same_master_same_family(self):
        a = HashFamily(master_seed=99, rows=4)
        b = HashFamily(master_seed=99, rows=4)
        assert a.index_hash(12345, 3, 1000) == b.index_hash(12345, 3, 1000)

    def test_row_bounds_enforced(self):
        fam = HashFamily(master_seed=0, rows=2)
        with pytest.raises(ValueError):
            fam.index_hash(1, 2, 10)
        with pytest.raises(ValueError):
            fam.sign_hash(1, -1)

    def test_zero_width_refused(self):
        fam = HashFamily(master_seed=0, rows=1)
        with pytest.raises(ValueError):
            fam.index_hash(1, 0, 0)
        with pytest.raises(ValueError):
            fam.index_hash_many(np.array([1], dtype=np.uint64), 0, 0)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            HashFamily(master_seed=0, rows=0)

    @pytest.mark.parametrize("master", [0, 42, (1 << 64) - 3, -1])
    @pytest.mark.parametrize("rows", [1, 5, 2560])
    def test_seed_table_matches_the_scalar_formula(self, master, rows):
        golden = 0x9E3779B97F4A7C15
        fam = HashFamily(master_seed=master, rows=rows)
        for row in sorted({0, 1, rows // 2, rows - 1} & set(range(rows))):
            for kind in HashKind:
                tag = (master + (1 + 4 * row + kind) * golden) & MASK64
                assert fam.row_seed(kind, row) == mix64(tag)

    def test_row_hashes_match_the_scalar_hash(self):
        fam = HashFamily(master_seed=13, rows=37)
        for item in (0, 1, 12345, MASK64):
            for kind in HashKind:
                expected = [ref.mixed(fam, item, kind, row) for row in range(37)]
                assert fam.row_hashes(item, kind).tolist() == expected


class TestIndexHash:
    def test_deterministic(self):
        fam = HashFamily(master_seed=7, rows=2)
        assert fam.index_hash(555, 1, 256) == fam.index_hash(555, 1, 256)

    def test_width_one_always_zero(self):
        fam = HashFamily(master_seed=7, rows=1)
        for item in (0, 1, 2**40, MASK64):
            assert fam.index_hash(item, 0, 1) == 0

    @given(item_ids, st.integers(min_value=1, max_value=10_000))
    def test_in_range(self, item, width):
        fam = HashFamily(master_seed=3, rows=1)
        assert 0 <= fam.index_hash(item, 0, width) < width

    def test_chi_square_uniformity(self):
        fam = HashFamily(master_seed=2024, rows=1)
        buckets = fam.index_hash_many(random_items(100_000, seed=5), 0, 256)
        counts = np.bincount(buckets, minlength=256)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_cross_row_independence(self):
        fam = HashFamily(master_seed=11, rows=2)
        items = random_items(100_000, seed=6)
        a = fam.index_hash_many(items, 0, 1 << 16).astype(np.float64)
        b = fam.index_hash_many(items, 1, 1 << 16).astype(np.float64)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_index_and_sign_uncorrelated_same_row(self):
        fam = HashFamily(master_seed=13, rows=1)
        items = random_items(100_000, seed=7)
        idx = fam.index_hash_many(items, 0, 1 << 16).astype(np.float64)
        sgn = fam.sign_hash_many(items, 0).astype(np.float64)
        assert abs(np.corrcoef(idx, sgn)[0, 1]) < 0.02

    def test_vector_matches_scalar(self):
        fam = HashFamily(master_seed=21, rows=3)
        items = random_items(999, seed=8)
        vec = fam.index_hash_many(items, 2, 1000)
        for i in range(0, 999, 83):
            assert int(vec[i]) == ref.index_hash(fam, int(items[i]), 2, 1000)


class TestBucketOf:
    @pytest.mark.parametrize(
        "width",
        [1, 2, 3, 5, 7, 8, 9, 1023, 1024, 1025, 1280, 8191, 8192, 8193]
        + [(1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1],
    )
    def test_matches_modulo(self, width):
        h = np.random.default_rng(width % 997).integers(0, 1 << 64, size=4096, dtype=np.uint64)
        h[:4] = [0, 1, MASK64 - 1, MASK64]
        want = h % np.uint64(width)
        got = bucket_of(h.copy(), width)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)
        assert [int(x) % width for x in h[:4]] == got[:4].tolist()


class TestSignHash:
    def test_deterministic_and_codomain(self):
        fam = HashFamily(master_seed=1, rows=1)
        for item in range(200):
            s = fam.sign_hash(item, 0)
            assert s in (1, -1)
            assert s == fam.sign_hash(item, 0)

    def test_balance(self):
        fam = HashFamily(master_seed=17, rows=1)
        signs = fam.sign_hash_many(random_items(100_000, seed=9), 0)
        frac_plus = np.mean(signs == 1)
        assert abs(frac_plus - 0.5) < 0.01

    def test_vector_matches_scalar(self):
        fam = HashFamily(master_seed=23, rows=2)
        items = random_items(512, seed=10)
        vec = fam.sign_hash_many(items, 1)
        for i in range(0, 512, 41):
            assert int(vec[i]) == ref.sign_hash(fam, int(items[i]), 1)


class TestUnitHash:
    def test_deterministic(self):
        fam = HashFamily(master_seed=5, rows=1)
        assert fam.unit_hash(77, 0) == fam.unit_hash(77, 0)

    def test_strictly_inside_open_interval(self):
        fam = HashFamily(master_seed=31, rows=1)
        u = fam.unit_hash_many(random_items(1_000_000, seed=11), 0)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_ks_uniformity(self):
        fam = HashFamily(master_seed=37, rows=1)
        u = fam.unit_hash_many(random_items(100_000, seed=12), 0)
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_log_is_finite(self):
        fam = HashFamily(master_seed=41, rows=1)
        u = fam.unit_hash_many(random_items(10_000, seed=13), 0)
        assert np.isfinite(np.log2(u)).all()

    def test_vector_matches_scalar(self):
        fam = HashFamily(master_seed=43, rows=2)
        items = random_items(256, seed=14)
        vec = fam.unit_hash_many(items, 0)
        for i in range(0, 256, 17):
            assert float(vec[i]) == ref.unit_hash(fam, int(items[i]), 0)


class TestUnitRank:
    @given(item_ids)
    def test_defining_inequality(self, item):
        # rank == floor(-log2(u)) means 2^-(rank+1) < u <= 2^-rank.
        fam = HashFamily(master_seed=47, rows=1)
        u = fam.unit_hash(item, 0)
        rank = fam.unit_rank(item, 0)
        assert 0 <= rank <= 53
        assert 2.0 ** -(rank + 1) < u <= 2.0**-rank

    def test_matches_float_formula_on_random_items(self):
        fam = HashFamily(master_seed=53, rows=1)
        items = random_items(2000, seed=15)
        expected = [math.floor(-math.log2(u)) for u in fam.unit_hash_many(items, 0).tolist()]
        assert fam.unit_rank_many(items, 0).tolist() == expected

    def test_vector_matches_scalar(self):
        fam = HashFamily(master_seed=59, rows=1)
        items = random_items(4096, seed=16)
        vec = fam.unit_rank_many(items, 0)
        for i in range(0, 4096, 255):
            assert int(vec[i]) == ref.unit_rank(fam, int(items[i]), 0)

    def test_rank_distribution_roughly_geometric(self):
        fam = HashFamily(master_seed=61, rows=1)
        ranks = fam.unit_rank_many(random_items(200_000, seed=17), 0)
        # P(rank = r) = 2^-(r+1); check the first few buckets loosely.
        for r in range(6):
            frac = np.mean(ranks == r)
            assert abs(frac - 2.0 ** -(r + 1)) < 0.01


class TestBitHash:
    def test_deterministic(self):
        fam = HashFamily(master_seed=67, rows=1)
        assert fam.bit_hash(888, 16) == fam.bit_hash(888, 16)

    def test_single_bit_codomain(self):
        fam = HashFamily(master_seed=71, rows=1)
        values = {fam.bit_hash(i, 1) for i in range(100)}
        assert values == {0, 1}

    @given(item_ids, st.integers(min_value=1, max_value=64))
    def test_fits_requested_width(self, item, bits):
        fam = HashFamily(master_seed=73, rows=1)
        assert 0 <= fam.bit_hash(item, bits) < (1 << bits)

    def test_rejects_bad_widths(self):
        fam = HashFamily(master_seed=73, rows=1)
        with pytest.raises(ValueError):
            fam.bit_hash(1, 0)
        with pytest.raises(ValueError):
            fam.bit_hash(1, 65)
        for bits in (0, 65):
            with pytest.raises(ValueError):
                fam.bit_hash_many(np.array([1], dtype=np.uint64), bits)

    def test_truncation_is_prefix_consistent(self):
        fam = HashFamily(master_seed=79, rows=1)
        for item in range(50):
            full = fam.bit_hash(item, 64)
            for bits in (1, 8, 32, 53):
                assert fam.bit_hash(item, bits) == full >> (64 - bits)

    def test_leading_zero_runs_follow_geometric_law(self):
        # The run-10 bucket expects ~2^-11 of the mass, so the sample count
        # must be large for a 5% relative check to have headroom.
        fam = HashFamily(master_seed=84, rows=1)
        h = fam.bit_hash_many(random_items(4_000_000, seed=18), 64)
        # Leading-zero count of a 64-bit value: 64 - bit_length.
        m, e = np.frexp(h.astype(np.float64))
        bit_len = np.where(h == 0, 0, e)
        runs = 64 - bit_len
        n = len(h)
        for r in range(11):
            observed = np.count_nonzero(runs == r) / n
            expected = 2.0 ** -(r + 1)
            assert abs(observed - expected) / expected < 0.05

    def test_vector_matches_scalar(self):
        fam = HashFamily(master_seed=89, rows=1)
        items = random_items(512, seed=19)
        for bits in (1, 11, 64):
            vec = fam.bit_hash_many(items, bits)
            for i in range(0, 512, 63):
                assert int(vec[i]) == ref.bit_hash(fam, int(items[i]), bits)
