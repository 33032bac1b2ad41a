import itertools

import numpy as np
import pytest
from conftest import multiset_of, random_stream_pair, traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference as ref

from sketchsim.core import (
    BudgetTooSmallError,
    IncompatibleSketchError,
    RowSaturatedError,
    SketchParams,
    UndefinedSimilarityError,
)
from sketchsim.datagen import ZipfSpec, zipf_stream
from sketchsim.hashing import HASH_CHUNK
from sketchsim.salsa import SalsaRow, SalsaSimilaritySketch, salsa_width
from sketchsim.sketches import WeightedSimilaritySketch, weighted_row_similarity


def sketch(rows=1, width=8, seed=0):
    return SalsaSimilaritySketch(SketchParams(rows=rows, width=width, master_seed=seed))


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
    time through ``reference.salsa_add``."""
    items = np.asarray(items, dtype=np.uint64)
    rows = [row.copy() for row in s.rows]
    for i, row in enumerate(rows):
        positions = s.hash.index_hash_many(items, i, s.params.width).tolist()
        signs = s.hash.sign_hash_many(items, i).tolist()
        for pos, sign in zip(positions, signs):
            ref.salsa_add(row, pos, 1, sign)
    return rows


def assert_rows_equal(rows, expected):
    for row, want in zip(rows, expected, strict=True):
        assert row.level_of.tolist() == want.level_of.tolist()
        assert row.cm.tolist() == want.cm.tolist()
        assert row.c.tolist() == want.c.tolist()


def counters(row):
    """(start, byte_len, cm, c) per logical counter, in ring order."""
    return [(start, blen, int(row.cm[start]), int(row.c[start])) for start, blen in row.extents()]


def extent(level, pos):
    """(start, byte_len) of the counter holding byte ``pos`` under the
    level map ``level``."""
    g = int(level[pos])
    return pos & -(1 << g), 1 << g


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

    @pytest.mark.parametrize("memory_bytes,rows", [(0, 1), (10, 0)])
    def test_nonpositive_sizes_refused(self, memory_bytes, rows):
        with pytest.raises(ValueError):
            salsa_width(memory_bytes, rows)

    def test_minimal_budget(self):
        assert salsa_width(3, 1) == 1


class TestRowMerging:
    def test_cm_overflow_merges_with_buddy(self):
        row = SalsaRow(4)
        for i in range(255):
            ref.salsa_add(row, 0, 1, 1 if i % 2 == 0 else -1)
        ref.salsa_add(row, 1, 1, 1)  # buddy position, its own 1-byte counter
        assert extent(row.level_of, 0) == (0, 1)
        ref.salsa_add(row, 0, 1, 1)  # cm would hit 256: merge [0] with [1]
        assert extent(row.level_of, 0) == (0, 2)
        assert extent(row.level_of, 1) == (0, 2)
        assert int(row.cm[0]) == 255 + 1 + 1
        check_buddy_tiling(row)

    def test_c_underflow_merges(self):
        row = SalsaRow(4)
        for _ in range(127):
            ref.salsa_add(row, 2, 1, -1)
        assert extent(row.level_of, 2) == (2, 1)
        ref.salsa_add(row, 2, 1, -1)  # c would hit -128, outside the symmetric range
        assert extent(row.level_of, 2) == (2, 2)
        assert int(row.c[2]) == -128
        assert int(row.cm[2]) == 128
        check_buddy_tiling(row)

    def test_recursive_coalesce_of_fragmented_buddy(self):
        row = SalsaRow(8)
        row.coalesce(0, 1)  # [0,1] is one 2-byte counter
        ref.salsa_add(row, 0, 1, 1)
        ref.salsa_add(row, 2, 1, 1)  # [2] and [3] stay separate 1-byte counters
        ref.salsa_add(row, 3, 1, -1)
        row.cm[0] = 65535  # white-box: saturate the 2-byte counter
        ref.salsa_add(row, 1, 1, 1)  # grow: buddy [2,3] must first coalesce
        assert extent(row.level_of, 0) == (0, 4)
        assert int(row.cm[0]) == 65535 + 1 + 1 + 1
        assert int(row.c[0]) == 1 + 1 - 1 + 1
        check_buddy_tiling(row)

    def test_coalesce_block_of_three_levels(self):
        row = filled_row(16, [(2, 1), (4, 2), (8, 3)], 3)
        parts = counters(row)[:4]  # [0], [1], [2, 4), [4, 8)
        assert [blen for _, blen, _, _ in parts] == [1, 1, 2, 4]
        row.coalesce(0, 3)
        assert counters(row)[0] == (0, 8, sum(p[2] for p in parts), sum(p[3] for p in parts))
        assert extent(row.level_of, 7) == (0, 8)
        check_buddy_tiling(row)
        with pytest.raises(ValueError):
            row.coalesce(4, 2)

    def test_coalesce_many_blocks_at_once(self):
        row = filled_row(16, [(2, 1), (12, 2)], 4)
        expected = row.copy()
        for start in (0, 4, 12):
            expected.coalesce(start, 2)
        row.coalesce(np.array([0, 4, 12]), 2)
        assert_rows_equal([row], [expected])
        with pytest.raises(ValueError):
            row.coalesce(np.array([8, 12]), 1)

    @pytest.mark.parametrize(
        "start,g",
        [
            (1, 1),  # not a multiple of 2**g
            (8, 0),  # past the row's end
            (6, 2),  # runs past the row's end
            (0, 4),  # wider than the row
            (-2, 1),  # before the row's start
            (np.array([0, 3]), 1),  # one bad start among good ones
        ],
    )
    def test_coalesce_refuses_a_block_the_row_lacks(self, start, g):
        row = SalsaRow(8)
        row.cm[:] = 1  # white-box: a value at every byte
        before = row.copy()
        with pytest.raises(ValueError, match=f"level-{g} block starts at"):
            row.coalesce(start, g)
        assert_rows_equal([row], [before])

    def test_saturated_row_errors(self):
        row = SalsaRow(1)
        for i in range(255):
            ref.salsa_add(row, 0, 1, 1 if i % 2 == 0 else -1)
        with pytest.raises(RowSaturatedError):
            ref.salsa_add(row, 0, 1, 1)

    def test_conservation_under_random_stress(self):
        rng = np.random.default_rng(0)
        row = SalsaRow(16)
        total_cm, total_c = 0, 0
        for _ in range(5000):
            pos = int(rng.integers(0, 16))
            sign = int(rng.choice([-1, 1]))
            ref.salsa_add(row, pos, 1, sign)
            total_cm += 1
            total_c += sign
        assert row.total_cm() == total_cm
        assert row.total_c() == total_c
        check_buddy_tiling(row)

    @settings(max_examples=100, deadline=None)
    @given(
        width_log=st.integers(0, 6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "add_many", "coalesce"]),
                st.integers(0, 2**32 - 1),
            ),
            max_size=12,
        ),
    )
    def test_bytes_off_extent_starts_stay_zero(self, width_log, ops):
        # A block's value is the plain sum of its bytes only while every
        # byte that starts no extent holds 0 in both fields.
        width = 1 << width_log
        row = SalsaRow(width)
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            try:
                if op == "add":
                    pos, d_cm, d_c = rng.integers(width), rng.integers(1, 300), rng.integers(-200, 200)
                    ref.salsa_add(row, int(pos), int(d_cm), int(d_c))
                elif op == "add_many":
                    n = int(rng.integers(1, 3000))
                    pos = ((rng.zipf(1.3, size=n) - 1) % width).astype(np.int64)
                    row.add_many(pos, rng.integers(0, 2, size=n))
                else:
                    g = int(rng.integers(width_log + 1))
                    start = int(rng.integers(width)) & -(1 << g)
                    if row.level_of[start] <= g:
                        row.coalesce(start, g)
            except RowSaturatedError:
                pass
            off = np.ones(width, dtype=bool)
            off[[start for start, _ in row.extents()]] = False
            assert not row.cm[off].any() and not row.c[off].any()
            check_buddy_tiling(row)

    def test_levels_grow_under_skew(self):
        row = SalsaRow(8)
        for i in range(3000):
            ref.salsa_add(row, 0, 1, 1 if i % 2 == 0 else -1)
        start, blen = extent(row.level_of, 0)
        assert blen >= 2
        assert int(row.cm[start]) == 3000


def filled_row(width, blocks, seed):
    """A row with a random in-range value at every byte, then each
    (start, level) of ``blocks`` coalesced in turn."""
    rng = np.random.default_rng(seed)
    row = SalsaRow(width)
    for pos in range(width):
        ref.salsa_add(row, pos, int(rng.integers(0, 100)), int(rng.integers(-60, 60)))
    for start, g in blocks:
        row.coalesce(start, g)
    return row


def reference_align(a, b):
    """Both rows' counters, as ``counters`` lists them, in their common
    layout: walk both rows' extents pairwise; at each common start the
    longer extent absorbs the other row's extents inside it."""
    out = ([], [])
    ext = (counters(a), counters(b))
    at, pos = [0, 0], 0
    while pos < a.width:
        blen = max(ext[0][at[0]][1], ext[1][at[1]][1])
        for side in (0, 1):
            cm = c = 0
            while at[side] < len(ext[side]) and ext[side][at[side]][0] < pos + blen:
                cm, c = cm + ext[side][at[side]][2], c + ext[side][at[side]][3]
                at[side] += 1
            out[side].append((pos, blen, cm, c))
        pos += blen
    return out


def coarsened_counters(a, b):
    """``reference_align(a, b)`` from ``coarsened`` over the starts of the
    positionwise maximum of the two level maps."""
    level = np.maximum(a.level_of, b.level_of)
    starts = [pos for pos in range(a.width) if extent(level, pos)[0] == pos]
    lens = [extent(level, pos)[1] for pos in starts]
    return tuple(
        list(zip(starts, lens, *(f.tolist() for f in row.coarsened(np.array(starts)))))
        for row in (a, b)
    )


class TestAlign:
    @pytest.mark.parametrize(
        "blocks_a,blocks_b",
        [
            # b is fragmented inside a's 8-byte extent.
            ([(0, 3)], [(2, 1), (4, 2)]),
            # a is coarser over [0, 4); b over [4, 6) and over [8, 16),
            # which holds a's [12, 14).
            ([(0, 2), (12, 1)], [(8, 3), (4, 1)]),
            ([(0, 1), (8, 2)], [(0, 1), (8, 2)]),
        ],
    )
    def test_matches_pairwise_extent_walk(self, blocks_a, blocks_b):
        a, b = filled_row(16, blocks_a, 1), filled_row(16, blocks_b, 2)
        before = [a.copy(), b.copy()]
        assert coarsened_counters(a, b) == reference_align(a, b)
        assert_rows_equal([a, b], before)

    def test_unmerged_rows_align_is_noop(self):
        a, b = SalsaRow(8), SalsaRow(8)
        ref.salsa_add(a, 0, 1, 1)
        ref.salsa_add(b, 5, 1, -1)
        assert coarsened_counters(a, b) == reference_align(a, b) == (counters(a), counters(b))

    def test_finer_side_merges_to_match(self):
        a, b = SalsaRow(8), SalsaRow(8)
        a.coalesce(0, 1)
        ref.salsa_add(a, 0, 1, 1)
        ref.salsa_add(b, 0, 1, 1)
        ref.salsa_add(b, 1, 1, 1)
        coarse_a, coarse_b = coarsened_counters(a, b)
        assert (coarse_a, coarse_b) == reference_align(a, b)
        assert coarse_a[0][:2] == coarse_b[0][:2] == (0, 2)
        assert coarse_b[0][2] == 2  # the two 1-byte values were added

    def test_align_preserves_totals(self):
        rng = np.random.default_rng(2)
        a, b = SalsaRow(16), SalsaRow(16)
        for _ in range(3000):
            ref.salsa_add(a, int(rng.integers(0, 4)), 1, int(rng.choice([-1, 1])))
        for _ in range(3000):
            ref.salsa_add(b, int(rng.integers(8, 16)), 1, int(rng.choice([-1, 1])))
        coarse = coarsened_counters(a, b)
        assert coarse == reference_align(a, b)
        for row, counts in zip((a, b), coarse):
            assert sum(x[2] for x in counts) == row.total_cm()
            assert sum(x[3] for x in counts) == row.total_c()


class TestSketch:
    def test_fresh_insert_sets_one_byte_counter(self):
        s = sketch(rows=2, width=8, seed=1)
        s.insert(1234)
        for i in range(2):
            pos = ref.index_hash(s.hash, 1234, i, 8)
            start, blen = extent(s.rows[i].level_of, pos)
            assert blen == 1
            assert int(s.rows[i].cm[start]) == 1
            assert int(s.rows[i].c[start]) == ref.sign_hash(s.hash, 1234, i)

    def test_insert_many_matches_repeated_insert(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 40, size=4000, dtype=np.uint64)
        a, b = sketch(rows=2, width=4, seed=4), sketch(rows=2, width=4, seed=4)
        a.insert_many(items)
        for x in items:
            b.insert(int(x))
        assert_rows_equal(a.rows, b.rows)

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
            p = SketchParams(rows=rows, width=width, master_seed=seed)
            s_a, s_b = SalsaSimilaritySketch(p), SalsaSimilaritySketch(p)
            w_a, w_b = WeightedSimilaritySketch(p), WeightedSimilaritySketch(p)
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
            row = s.rows[0]
            return bool((row.c[row.cm > 0] != 0).all())

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
        before = [a.rows[0].copy(), b.rows[0].copy()]
        a.estimate_jaccard(b)
        assert_rows_equal([a.rows[0], b.rows[0]], before)

    def test_estimate_equals_estimate_over_aligned_copies(self):
        rng = np.random.default_rng(17)
        for seed in range(4):
            a, b = sketch(rows=3, width=16, seed=seed), sketch(rows=3, width=16, seed=seed)
            a.insert_many((rng.zipf(1.3, size=20_000) % 200).astype(np.uint64))
            b.insert_many((rng.zipf(1.3, size=3_000) % 200).astype(np.uint64))
            acc = 0.0
            for row_a, row_b in zip(a.rows, b.rows):
                ref_a, ref_b = (np.array(side).T for side in reference_align(row_a, row_b))
                acc += weighted_row_similarity(ref_a[2], ref_b[2], ref_a[3], ref_b[3])
            assert a.estimate_jaccard(b).raw == acc / 3
            assert any(ra.level_of.tolist() != rb.level_of.tolist() for ra, rb in zip(a.rows, b.rows))

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
        before = [row.copy() for row in s.rows]
        with pytest.raises(RowSaturatedError):
            s.insert_many(np.full(200, 7, dtype=np.uint64))
        assert_rows_equal(s.rows, before)
        assert [row.total_cm() for row in s.rows] == [3, 3]
        assert s.total_inserted == 3

    def test_non_power_of_two_width_rejected(self):
        params = SketchParams(rows=1, width=6, master_seed=0)
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
        for n in (1023, 3089, 1, 5120):
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
        s.insert_many(rng.integers(0, 4, size=3072, dtype=np.uint64))
        before, total = [row.copy() for row in s.rows], s.total_inserted
        items = np.full(40_000, 9, dtype=np.uint64)
        with pytest.raises(RowSaturatedError):
            replay(s, items)
        with pytest.raises(RowSaturatedError):
            s.insert_many(items)
        assert_rows_equal(s.rows, before)
        assert s.total_inserted == total


def replay_row(row, positions, bits):
    """Copy of ``row`` fed each arrival through ``reference.salsa_add``; the
    saturation error, if any, is returned beside it."""
    replayed = row.copy()
    try:
        for pos, bit in zip(positions.tolist(), bits.tolist()):
            ref.salsa_add(replayed, pos, 1, 2 * bit - 1)
    except RowSaturatedError as err:
        return replayed, str(err)
    return replayed, None


def add_many_caught(row, positions, bits):
    try:
        row.add_many(positions, bits)
    except RowSaturatedError as err:
        return str(err)
    return None


def counting(monkeypatch, name):
    """Count the arrivals passed to ``SalsaRow.<name>`` in its first
    argument, over all calls, and per row under ``per_row``, keyed by
    the row's ``id``."""
    seen = {"arrivals": 0, "per_row": {}}
    original = getattr(SalsaRow, name)

    def spy(self, arrivals, *args):
        seen["arrivals"] += len(arrivals)
        seen["per_row"][id(self)] = seen["per_row"].get(id(self), 0) + len(arrivals)
        return original(self, arrivals, *args)

    monkeypatch.setattr(SalsaRow, name, spy)
    return seen


def arrivals(*runs):
    """Positions and sign bits of interleaved runs of ``(pos, bit, n)``."""
    pos = np.concatenate([np.full(n, p, dtype=np.int64) for p, _, n in runs])
    bits = np.concatenate([np.full(n, b, dtype=np.int64) for _, b, n in runs])
    order = np.random.default_rng(len(pos)).permutation(len(pos))
    return pos[order], bits[order]


def check_chunks_against_replay(width_log, n, skew, p_plus, cuts, seed, swing=False):
    """Feed a fresh row of ``2**width_log`` bytes ``n`` arrivals, cut into
    chunks at the fractions ``cuts``, and check each chunk against
    ``replay_row``: Zipf-skewed positions when ``skew`` is set, and a +1
    sign with probability ``p_plus``, or, with ``swing``, +1 for the first
    ``p_plus`` share of the arrivals and -1 for the rest. A swing takes a
    byte's c up and back, so its running maximum can pass the cap while
    its final value fits."""
    rng = np.random.default_rng(seed)
    width = 1 << width_log
    if skew:
        pos = (rng.zipf(skew, size=n) - 1) % width
    else:
        pos = rng.integers(0, width, size=n)
    pos = pos.astype(np.int64)
    bits = ((np.arange(n) / n if swing else rng.random(n)) < p_plus).astype(np.int64)
    row = SalsaRow(width)
    for lo, hi in itertools.pairwise([0, *sorted(int(c * n) for c in cuts), n]):
        before = row.copy()
        expected, expected_err = replay_row(row, pos[lo:hi], bits[lo:hi])
        err = add_many_caught(row, pos[lo:hi], bits[lo:hi])
        assert err == expected_err
        # A saturating chunk raises the replay's error and applies nothing.
        assert_rows_equal([row], [before if err else expected])
        if err:
            break


class TestRiskSplit:
    """``SalsaRow.add_many`` against one ``reference.salsa_add`` per arrival."""

    def test_growths_in_disjoint_blocks_share_a_step(self):
        row = SalsaRow(16)
        pos, bits = arrivals((2, 1, 300), (9, 0, 300), (3, 1, 5), (12, 0, 40))
        expected, _ = replay_row(row, pos, bits)
        row.add_many(pos, bits)
        assert_rows_equal([row], [expected])
        assert extent(row.level_of, 2) == (2, 2) and extent(row.level_of, 9) == (8, 2)
        assert extent(row.level_of, 12) == (12, 1)

    def test_cascade_from_level_zero_to_two_within_a_chunk(self):
        # One hash chunk of +1 arrivals, nearly all at byte 5: its counter
        # passes c's level-0 cap early, and the 2-byte counter [4, 6)
        # passes c's level-1 cap near the end. Byte 6 may grow too, so
        # the growth pass walks it beside byte 5.
        row = SalsaRow(16)
        for pos in (4, 6):
            for _ in range(100):
                ref.salsa_add(row, pos, 1, 1)
        pos, bits = arrivals((5, 1, HASH_CHUNK - 88), (4, 1, 20), (6, 1, 30), (11, 0, 38))
        expected, _ = replay_row(row, pos, bits)
        row.add_many(pos, bits)
        assert_rows_equal([row], [expected])
        assert extent(row.level_of, 5) == (4, 4)
        assert int(row.c[4]) == 200 + HASH_CHUNK - 88 + 20 + 30

    def test_risk_region_covering_the_whole_row(self):
        # The block [0, 2) passes c's level-1 cap, so the row grows to one
        # counter, which takes the light bytes 2 and 3 with the rest.
        row = SalsaRow(4)
        pos, bits = arrivals((0, 1, 20_000), (1, 1, 15_000), (2, 0, 50), (3, 1, 7))
        expected, _ = replay_row(row, pos, bits)
        row.add_many(pos, bits)
        assert_rows_equal([row], [expected])
        assert extent(row.level_of, 3) == (0, 4)

    def test_saturating_chunk_leaves_the_row_unchanged(self):
        # Byte 0 grows the whole two-byte row early, and the replay
        # saturates with that growth applied; the chunk applies nothing.
        row = SalsaRow(2)
        pos = np.repeat(np.array([0, 1], dtype=np.int64), [40_000, 200])
        bits = np.ones(len(pos), dtype=np.int64)
        replayed, expected_err = replay_row(row, pos, bits)
        assert expected_err is not None and extent(replayed.level_of, 1) == (0, 2)
        err = add_many_caught(row, pos, bits)
        assert err == expected_err
        assert_rows_equal([row], [SalsaRow(2)])

    def test_running_value_past_the_cap_grows_though_the_final_fits(self, monkeypatch):
        # c runs to +128 and back to +1 in 255 arrivals: cm and c end
        # within one byte, so only the in-order walk finds the growth.
        row = SalsaRow(4)
        pos = np.zeros(255, dtype=np.int64)
        bits = np.repeat(np.array([1, 0], dtype=np.int64), [128, 127])
        expected, _ = replay_row(row, pos, bits)
        walked = counting(monkeypatch, "_overflows")
        row.add_many(pos, bits)
        assert_rows_equal([row], [expected])
        assert extent(row.level_of, 0) == (0, 2) and int(row.c[0]) == 1
        assert walked["arrivals"] == 255

    @pytest.mark.parametrize("light_first", [True, False])
    def test_parent_growth_set_by_its_light_half(self, light_first):
        # Byte 0 surely forms [0, 2). That block's c ends at 32,300, within
        # its cap, and peaks at 32,800 only if byte 1's 100 +1 arrivals,
        # too few to put byte 1 at risk, come before byte 0 turns back.
        hot = np.zeros(33_200, dtype=np.int64)
        hot_bits = np.repeat(np.array([1, 0], dtype=np.int64), [32_700, 500])
        light, light_bits = np.ones(100, dtype=np.int64), np.ones(100, dtype=np.int64)
        if light_first:
            pos, bits = np.concatenate((light, hot)), np.concatenate((light_bits, hot_bits))
        else:
            pos, bits = np.concatenate((hot, light)), np.concatenate((hot_bits, light_bits))
        row = SalsaRow(4)
        expected, _ = replay_row(row, pos, bits)
        row.add_many(pos, bits)
        assert_rows_equal([row], [expected])
        assert extent(row.level_of, 0) == ((0, 4) if light_first else (0, 2))

    @settings(max_examples=150, deadline=None)
    # One byte saturates at the 256th arrival, within the second batch.
    @example(width_log=0, n=400, skew=0.0, p_plus=0.5, cuts=[0.3], seed=1, swing=False)
    # A swing grows a byte whose c ends within its cap, found only by
    # the in-order walk.
    @example(width_log=6, n=400, skew=1.5, p_plus=0.9, cuts=[], seed=2, swing=True)
    @given(
        width_log=st.integers(0, 10),
        n=st.integers(1, 4000),
        skew=st.sampled_from([0.0, 1.1, 1.5, 3.0]),
        p_plus=st.sampled_from([0.0, 0.02, 0.5, 0.9, 1.0]),
        cuts=st.lists(st.floats(0, 1), max_size=4),
        seed=st.integers(0, 2**32 - 1),
        swing=st.booleans(),
    )
    def test_matches_scalar_replay(self, width_log, n, skew, p_plus, cuts, seed, swing):
        check_chunks_against_replay(width_log, n, skew, p_plus, cuts, seed, swing)

    # A row counts its extents densely below 2**14 bytes, where its two
    # bins per byte are fewer than a hash chunk's items, and by a sort
    # from there.
    @settings(max_examples=15, deadline=None)
    # Swings grow bytes whose c ends within its cap, found only by the
    # in-order walk: one chunk counted densely, then one counted by a sort.
    @example(width_log=13, n=16_400, skew=1.1, p_plus=0.75, cuts=[], seed=2, swing=True)
    @example(width_log=14, n=4000, skew=1.5, p_plus=0.9, cuts=[], seed=1, swing=True)
    @given(
        width_log=st.sampled_from([13, 14, 15]),
        n=st.integers(1, 20_000),
        skew=st.sampled_from([1.1, 1.5, 3.0]),
        p_plus=st.sampled_from([0.0, 0.5, 0.75, 0.9, 1.0]),
        cuts=st.lists(st.floats(0, 1), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        swing=st.booleans(),
    )
    def test_matches_scalar_replay_on_wide_rows(
        self, width_log, n, skew, p_plus, cuts, seed, swing
    ):
        check_chunks_against_replay(width_log, n, skew, p_plus, cuts, seed, swing)

    def test_wide_row(self):
        # A 2 MB budget: half a million bytes, a few of them hot.
        s = SalsaSimilaritySketch.from_budget(2 << 20, 1, 21)
        rng = np.random.default_rng(22)
        items = (rng.zipf(1.2, size=60_000) % 40_000).astype(np.uint64)
        expected = replay(s, items)
        s.insert_many(items)
        assert_rows_equal(s.rows, expected)
        assert s.params.width == 1 << 19
        assert int(s.rows[0].level_of.max()) >= 1

    def test_most_arrivals_skip_the_in_order_path(self, monkeypatch):
        # The growth pass is exact whichever extents it walks, so only a
        # count shows whether the safe extents take theirs in one step.
        stream = zipf_stream(ZipfSpec(n_items=100_000, n_distinct=50_000, alpha=1.0, seed=1))
        s = SalsaSimilaritySketch.from_budget(10 * 1024, 1, 1)
        walked = counting(monkeypatch, "_overflows")
        s.insert_many(stream)
        assert s.rows[0].total_cm() == len(stream)
        assert walked["arrivals"] <= 0.25 * len(stream)

    @pytest.mark.parametrize("memory_bytes", [1024, 10 * 1024])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_few_arrivals_take_the_in_order_path(self, monkeypatch, memory_bytes, rows):
        # The stream of the test above: final values decide the growth of
        # nearly every block, so few arrivals are walked in order.
        stream = zipf_stream(ZipfSpec(n_items=100_000, n_distinct=50_000, alpha=1.0, seed=1))
        s = SalsaSimilaritySketch.from_budget(memory_bytes, rows, 1)
        walked = counting(monkeypatch, "_overflows")
        s.insert_many(stream)
        assert [row.total_cm() for row in s.rows] == [len(stream)] * rows
        assert max(walked["per_row"].get(id(row), 0) for row in s.rows) <= 0.05 * len(stream)

    def test_batch_that_cannot_saturate_is_not_staged(self):
        # A 2 MB row holds about 9 MB of fields; a copy of them would show.
        s = SalsaSimilaritySketch.from_budget(2 << 20, 1, 0)
        row = s.rows[0]
        peak, _ = traced_peak(s.insert_many, np.arange(1000, dtype=np.uint64))
        assert peak < 1 << 20
        assert s.rows[0] is row and row.total_cm() == 1000
