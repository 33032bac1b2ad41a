import numpy as np
import pytest
from conftest import multiset_of, random_stream_pair

from sketchsim.core import (
    BudgetTooSmallError,
    IncompatibleSketchError,
    RowSaturatedError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.salsa import INSERT_CHUNK, SalsaRow, SalsaSimilaritySketch, salsa_width
from sketchsim.sketches import WeightedSimilaritySketch


def sketch(rows=1, width=8, seed=0):
    params = SketchParams(
        rows=rows, width=width, master_seed=seed, memory_bytes=max(1, rows * width * 18 // 8)
    )
    return SalsaSimilaritySketch(params)


def check_buddy_tiling(row: SalsaRow):
    covered = 0
    for start, blen in row.extents():
        assert blen & (blen - 1) == 0
        assert start % blen == 0
        assert start == covered
        covered += blen
    assert covered == row.width


def replay(s, items):
    """Reference insert: copies of the sketch's rows, fed one arrival at a
    time through the scalar ``SalsaRow.add``."""
    items = np.asarray(items, dtype=np.uint64)
    rows = [row.copy() for row in s.rows]
    for i, row in enumerate(rows):
        positions = s.hash.index_hash_many(items, i, s.params.width).tolist()
        signs = s.hash.sign_hash_many(items, i).tolist()
        for pos, sign in zip(positions, signs):
            row.add(pos, 1, sign)
    return rows


def assert_rows_equal(rows, expected):
    for row, ref in zip(rows, expected, strict=True):
        starts = [start for start, _ in ref.extents()]
        assert row.level_of.tolist() == ref.level_of.tolist()
        assert row.cm[starts].tolist() == ref.cm[starts].tolist()
        assert row.c[starts].tolist() == ref.c[starts].tolist()


class TestWidthDerivation:
    def test_ten_kilobytes_single_row(self):
        # 81920 bits at 18 bits/slot is 4551 slots, floored to 4096.
        assert salsa_width(10240, 1) == 4096

    def test_power_of_two_always(self):
        for mem in (100, 1000, 5000, 123456):
            for rows in (1, 2, 3):
                w = salsa_width(mem, rows)
                assert w >= 1 and w & (w - 1) == 0

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmallError):
            salsa_width(1, 1)

    def test_minimal_budget(self):
        assert salsa_width(3, 1) == 1


class TestRowMerging:
    def test_cm_overflow_merges_with_buddy(self):
        row = SalsaRow(4)
        for i in range(255):
            row.add(0, 1, 1 if i % 2 == 0 else -1)
        row.add(1, 1, 1)  # buddy position, its own 1-byte counter
        assert row.extent_of(0) == (0, 1)
        row.add(0, 1, 1)  # cm would hit 256: merge [0] with [1]
        assert row.extent_of(0) == (0, 2)
        assert row.extent_of(1) == (0, 2)
        assert int(row.cm[0]) == 255 + 1 + 1
        check_buddy_tiling(row)

    def test_c_underflow_merges(self):
        row = SalsaRow(4)
        for _ in range(127):
            row.add(2, 1, -1)
        assert row.extent_of(2) == (2, 1)
        row.add(2, 1, -1)  # c would hit -128, outside the symmetric range
        assert row.extent_of(2) == (2, 2)
        assert int(row.c[2]) == -128
        assert int(row.cm[2]) == 128
        check_buddy_tiling(row)

    def test_recursive_coalesce_of_fragmented_buddy(self):
        row = SalsaRow(8)
        row.coalesce(0, 1)  # [0,1] is one 2-byte counter
        row.add(0, 1, 1)
        row.add(2, 1, 1)  # [2] and [3] stay separate 1-byte counters
        row.add(3, 1, -1)
        row.cm[0] = 65535  # white-box: saturate the 2-byte counter
        row.add(1, 1, 1)  # grow: buddy [2,3] must first coalesce
        assert row.extent_of(0) == (0, 4)
        assert int(row.cm[0]) == 65535 + 1 + 1 + 1
        assert int(row.c[0]) == 1 + 1 - 1 + 1
        check_buddy_tiling(row)

    def test_saturated_row_errors(self):
        row = SalsaRow(1)
        for i in range(255):
            row.add(0, 1, 1 if i % 2 == 0 else -1)
        with pytest.raises(RowSaturatedError):
            row.add(0, 1, 1)

    def test_conservation_under_random_stress(self):
        rng = np.random.default_rng(0)
        row = SalsaRow(16)
        total_cm, total_c = 0, 0
        for _ in range(5000):
            pos = int(rng.integers(0, 16))
            sign = int(rng.choice([-1, 1]))
            row.add(pos, 1, sign)
            total_cm += 1
            total_c += sign
        assert row.total_cm() == total_cm
        assert row.total_c() == total_c
        check_buddy_tiling(row)

    def test_levels_grow_under_skew(self):
        row = SalsaRow(8)
        for i in range(3000):
            row.add(0, 1, 1 if i % 2 == 0 else -1)
        start, blen = row.extent_of(0)
        assert blen >= 2
        assert int(row.cm[start]) == 3000


class TestAlign:
    def test_unmerged_rows_align_is_noop(self):
        a, b = SalsaRow(8), SalsaRow(8)
        a.add(0, 1, 1)
        b.add(5, 1, -1)
        before_a, before_b = a.dump(), b.dump()
        a.align(b)
        assert a.dump() == before_a
        assert b.dump() == before_b

    def test_finer_side_merges_to_match(self):
        a, b = SalsaRow(8), SalsaRow(8)
        a.coalesce(0, 1)
        a.add(0, 1, 1)
        b.add(0, 1, 1)
        b.add(1, 1, 1)
        a.align(b)
        assert a.extent_of(0) == (0, 2)
        assert b.extent_of(0) == (0, 2)
        assert int(b.cm[0]) == 2  # the two 1-byte values were added
        check_buddy_tiling(a)
        check_buddy_tiling(b)

    def test_align_idempotent(self):
        rng = np.random.default_rng(1)
        a, b = SalsaRow(16), SalsaRow(16)
        for _ in range(4000):
            a.add(int(rng.integers(0, 16)), 1, int(rng.choice([-1, 1])))
        for _ in range(300):
            b.add(int(rng.integers(0, 16)), 1, int(rng.choice([-1, 1])))
        a.align(b)
        dump_a, dump_b = a.dump(), b.dump()
        a.align(b)
        assert a.dump() == dump_a
        assert b.dump() == dump_b

    def test_align_preserves_totals(self):
        rng = np.random.default_rng(2)
        a, b = SalsaRow(16), SalsaRow(16)
        for _ in range(3000):
            a.add(int(rng.integers(0, 4)), 1, int(rng.choice([-1, 1])))
        for _ in range(3000):
            b.add(int(rng.integers(8, 16)), 1, int(rng.choice([-1, 1])))
        cm_a, c_a, cm_b, c_b = a.total_cm(), a.total_c(), b.total_cm(), b.total_c()
        a.align(b)
        assert (a.total_cm(), a.total_c()) == (cm_a, c_a)
        assert (b.total_cm(), b.total_c()) == (cm_b, c_b)
        # Layouts now identical.
        assert [e for e in a.extents()] == [e for e in b.extents()]


class TestSketch:
    def test_fresh_insert_sets_one_byte_counter(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(1234)
        for i in range(2):
            pos = s.hash.index_hash(1234, i, 8)
            start, blen = s.rows[i].extent_of(pos)
            assert blen == 1
            assert int(s.rows[i].cm[start]) == 1
            assert int(s.rows[i].c[start]) == s.hash.sign_hash(1234, i)

    def test_insert_many_matches_repeated_insert(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 40, size=4000, dtype=np.uint64)
        a, b = sketch(rows=2, width=4, seed=4), sketch(rows=2, width=4, seed=4)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        assert a.dump() == b.dump()

    def test_conservation_with_forced_merges(self):
        rng = np.random.default_rng(5)
        items = rng.integers(0, 1000, size=50_000, dtype=np.uint64)
        s = sketch(rows=2, width=8, seed=6)
        s.insert_many(items)
        for i, row in enumerate(s.rows):
            assert row.total_cm() == 50_000
            signs = s.hash.sign_hash_many(items, i)
            assert row.total_c() == int(signs.sum())
            check_buddy_tiling(row)

    def test_differential_against_weighted_sketch(self):
        # No counter ever leaves 1-byte range, so the layouts never merge
        # and the estimate must match the fixed-grid weighted sketch.
        rng = np.random.default_rng(7)
        for trial in range(10):
            sa, sb = random_stream_pair(rng, 200, 150, universe=64)
            width, rows, seed = 64, 2, trial
            pa = SketchParams(rows=rows, width=width, master_seed=seed, memory_bytes=width * rows * 18 // 8)
            pw = SketchParams(rows=rows, width=width, master_seed=seed, memory_bytes=width * rows * 8)
            s_a, s_b = SalsaSimilaritySketch(pa), SalsaSimilaritySketch(pa)
            w_a, w_b = WeightedSimilaritySketch(pw), WeightedSimilaritySketch(pw)
            s_a.insert_many(sa)
            s_b.insert_many(sb)
            w_a.insert_many(sa)
            w_b.insert_many(sb)
            for s in (s_a, s_b):
                for row in s.rows:
                    assert (row.level_of == 0).all()
            assert s_a.estimate_jaccard(s_b).raw == pytest.approx(
                w_a.estimate_jaccard(w_b).raw, abs=1e-12
            )

    def test_identical_streams_identical_history(self):
        rng = np.random.default_rng(8)
        items = rng.integers(0, 30, size=2000, dtype=np.uint64)

        def no_cancelled_slot(seed):
            s = sketch(rows=1, width=16, seed=seed)
            s.insert_many(items)
            return all(c != 0 for _, _, cm, c in s.dump()[0] if cm > 0)

        seed = next(s for s in range(100) if no_cancelled_slot(s))
        a, b = sketch(rows=1, width=16, seed=seed), sketch(rows=1, width=16, seed=seed)
        a.insert_many(items)
        b.insert_many(items)
        assert a.estimate_jaccard(b).raw == 1.0

    def test_disjoint_streams(self):
        a, b = sketch(width=16, seed=9), sketch(width=16, seed=9)
        a.insert_many([1, 2, 3])
        b.insert_many([4, 5, 6])
        est = a.estimate_jaccard(b)
        assert 0.0 <= est.raw < 0.5

    def test_estimate_does_not_mutate_operands(self):
        rng = np.random.default_rng(10)
        a, b = sketch(width=4, seed=11), sketch(width=4, seed=11)
        a.insert_many(rng.integers(0, 100, size=3000, dtype=np.uint64))
        b.insert_many(rng.integers(0, 100, size=100, dtype=np.uint64))
        dump_a, dump_b = a.dump(), b.dump()
        a.estimate_jaccard(b)
        assert a.dump() == dump_a
        assert b.dump() == dump_b

    def test_align_with_mutates_in_place(self):
        rng = np.random.default_rng(12)
        a, b = sketch(width=4, seed=13), sketch(width=4, seed=13)
        a.insert_many(rng.integers(0, 100, size=3000, dtype=np.uint64))
        b.insert(42)
        a.align_with(b)
        for row_a, row_b in zip(a.rows, b.rows):
            assert [e for e in row_a.extents()] == [e for e in row_b.extents()]

    def test_both_empty_is_an_error(self):
        with pytest.raises(UndefinedSimilarityError):
            sketch(seed=1).estimate_jaccard(sketch(seed=1))

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            sketch(seed=1).estimate_jaccard(sketch(seed=2))

    def test_saturation_surfaces_from_insert(self):
        s = sketch(rows=1, width=1, seed=14)
        with pytest.raises(RowSaturatedError):
            for _ in range(200):
                s.insert(7)

    def test_saturating_batch_changes_nothing(self):
        # Width 1, two rows: row 0 saturates at the 128th copy, after it
        # has absorbed 127 of them and before row 1 sees any.
        s = SalsaSimilaritySketch.from_budget(8, 2, 0)
        s.insert_many([1, 2, 3])
        before = s.dump()
        with pytest.raises(RowSaturatedError):
            s.insert_many(np.full(200, 7, dtype=np.uint64))
        assert s.dump() == before
        assert [row.total_cm() for row in s.rows] == [3, 3]
        assert s.total_inserted == 3

    def test_non_power_of_two_width_rejected(self):
        params = SketchParams(rows=1, width=6, master_seed=0, memory_bytes=32)
        with pytest.raises(ValueError):
            SalsaSimilaritySketch(params)

    def test_estimate_tracks_oracle_loosely(self):
        rng = np.random.default_rng(15)
        sa, sb = random_stream_pair(rng, 3000, 2500, universe=500)
        a, b = sketch(rows=2, width=256, seed=16), sketch(rows=2, width=256, seed=16)
        a.insert_many(sa)
        b.insert_many(sb)
        j = multiset_of(sa).jaccard(multiset_of(sb))
        est = a.estimate_jaccard(b)
        assert abs(est.value - j) < 0.25


class TestInsertMatchesScalarReplay:
    @pytest.mark.parametrize("width,universe", [(2, 5), (8, 40), (64, 300), (256, 3000)])
    def test_batches_longer_than_a_chunk(self, width, universe):
        # Zipf-skewed items over few slots: counters leave one byte in the
        # middle of chunks, through cm and through |c|.
        rng = np.random.default_rng(width)
        s = sketch(rows=2, width=width, seed=width)
        for n in (INSERT_CHUNK - 1, 3 * INSERT_CHUNK + 17, 1, 5 * INSERT_CHUNK):
            items = (rng.zipf(1.3, size=n) % universe).astype(np.uint64)
            expected = replay(s, items)
            before = s.total_inserted
            s.insert_many(items)
            assert_rows_equal(s.rows, expected)
            assert s.total_inserted == before + n
        assert max(int(row.level_of.max()) for row in s.rows) >= 1

    def test_reaches_level_two(self):
        s = SalsaSimilaritySketch.from_budget(16, 1, 3)
        items = np.full(200_000, 7, dtype=np.uint64)
        expected = replay(s, items)
        s.insert_many(items)
        assert_rows_equal(s.rows, expected)
        assert int(s.rows[0].level_of.max()) == 2
        assert s.rows[0].total_cm() == s.total_inserted == 200_000

    def test_saturating_batch_raises_like_the_replay(self):
        # Two slots: the row saturates once |c| of the one whole-row
        # counter passes 32767, several chunks into the batch.
        s = sketch(rows=2, width=2, seed=5)
        rng = np.random.default_rng(6)
        s.insert_many(rng.integers(0, 4, size=3 * INSERT_CHUNK, dtype=np.uint64))
        before, total = s.dump(), s.total_inserted
        items = np.full(40_000, 9, dtype=np.uint64)
        with pytest.raises(RowSaturatedError):
            replay(s, items)
        with pytest.raises(RowSaturatedError):
            s.insert_many(items)
        assert s.dump() == before
        assert s.total_inserted == total
