"""The chunked hashing pass against per-row references.

``HashFamily.chunk_hashes`` walks a batch in chunks of ``HASH_CHUNK``
items. The grid sketches, MinHash and MaxLogHash consume it directly;
here each of them must equal a reference built from the per-row
``*_many`` methods, on batch lengths on both sides of chunk boundaries.
The pass yields SIGN and UNIT hashes open, and MaxLogHash reads them
open, so crafted unit hashes pin its reading on both sides of 2**31 and
where the closing step swaps two hashes.
The ``*_many`` methods themselves are checked against the scalar hashes
at the same lengths.
"""

import numpy as np
import pytest
from conftest import item_with_hash, unmix64

from sketchsim.baselines import MaxLogHashSketch, MinHashSketch
from sketchsim.core import SketchParams
from sketchsim.hashing import (
    HASH_CHUNK,
    MASK64,
    OPEN_KINDS,
    HashFamily,
    HashKind,
    close_hash,
    mix64,
)
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

LENGTHS = (HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1, 3 * HASH_CHUNK + 5)

def items_of(n, seed, universe=1 << 63):
    return np.random.default_rng(seed).integers(0, universe, size=n, dtype=np.uint64)


def test_unmix64_inverts_mix64():
    for x in (0, 1, 12345, MASK64, 1 << 63):
        assert unmix64(mix64(x)) == x
        assert mix64(unmix64(x)) == x


class TestVectorHashesAcrossChunks:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_many_methods_match_scalar_at_chunk_edges(self, n):
        fam = HashFamily(master_seed=21, rows=3)
        items = items_of(n, seed=n)
        # The first and last item of every chunk.
        sample = {0, n - 1, *range(HASH_CHUNK - 1, n, HASH_CHUNK)}
        sample |= set(range(HASH_CHUNK, n, HASH_CHUNK))
        idx = fam.index_hash_many(items, 2, 1000)
        sign = fam.sign_hash_many(items, 1)
        unit = fam.unit_hash_many(items, 0)
        rank = fam.unit_rank_many(items, 2)
        bits = fam.bit_hash_many(items, 40)
        for i in sample:
            x = int(items[i])
            assert idx[i] == fam.index_hash(x, 2, 1000)
            assert sign[i] == fam.sign_hash(x, 1)
            assert unit[i] == fam.unit_hash(x, 0)
            assert rank[i] == fam.unit_rank(x, 2)
            assert bits[i] == fam.bit_hash(x, 40)

    def test_chunk_hashes_yields_every_row_of_every_chunk(self):
        fam = HashFamily(master_seed=4, rows=2)
        items = items_of(HASH_CHUNK + 3, seed=1)
        steps = fam.chunk_hashes(items, (HashKind.INDEX, HashKind.SIGN))
        seen = [(row, len(h), len(s)) for row, (h, s) in steps]
        full = HASH_CHUNK
        assert seen == [(0, full, full), (1, full, full), (0, 3, 3), (1, 3, 3)]

    @pytest.mark.parametrize("kind", list(HashKind))
    def test_open_kinds_keep_bits_63_to_31_and_close_to_the_full_hash(self, kind):
        fam = HashFamily(master_seed=8, rows=2)
        items = items_of(HASH_CHUNK + 3, seed=2)
        full = fam._mixed_many(items, kind, 1)
        for i in (0, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 2):
            assert full[i] == fam._mixed(int(items[i]), kind, 1)
        steps = fam.chunk_hashes(items, (kind,), rows=(1,))
        got = np.concatenate([h.copy() for _, (h,) in steps])
        assert (got >> np.uint64(31) == full >> np.uint64(31)).all()
        if kind in OPEN_KINDS:
            assert (got != full).any()
            close_hash(got, np.empty_like(got))
        assert (got == full).all()

    def test_chunk_hashes_rejects_a_bad_row(self):
        fam = HashFamily(master_seed=4, rows=2)
        with pytest.raises(ValueError):
            list(fam.chunk_hashes(items_of(5, seed=1), (HashKind.UNIT,), rows=(2,)))


def grid_reference(sketch, items):
    """Per-field counters from the per-row index and sign hashes."""
    rows, width = sketch.params.rows, sketch.params.width
    arrivals = np.zeros((rows, width), dtype=np.int64)
    signs = np.zeros((rows, width), dtype=np.int64)
    for row in range(rows):
        idx = sketch.hash.index_hash_many(items, row, width)
        np.add.at(arrivals[row], idx, 1)
        np.add.at(signs[row], idx, sketch.hash.sign_hash_many(items, row))
    return {name: signs if is_signed else arrivals for name, is_signed in sketch.FIELDS.items()}


class TestGridAcrossChunks:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize(
        "cls", [CmSimilaritySketch, CountSimilaritySketch, WeightedSimilaritySketch]
    )
    def test_counters_match_per_row_reference(self, cls, rows, n):
        items = items_of(n, seed=rows * n, universe=5000)
        s = cls(SketchParams(rows=rows, width=97, master_seed=n))
        s.insert_many(items)
        for name, expected in grid_reference(s, items).items():
            assert (getattr(s, name) == expected).all(), name

    def test_wide_grid_matches_per_row_reference(self):
        # More slots than a chunk has items: the scattered-add branch.
        items = items_of(HASH_CHUNK + 1, seed=3, universe=1 << 20)
        width = 2 * HASH_CHUNK + 7
        p = SketchParams(rows=2, width=width, master_seed=5)
        s = WeightedSimilaritySketch(p)
        s.insert_many(items)
        for name, expected in grid_reference(s, items).items():
            assert (getattr(s, name) == expected).all(), name


class TestMinHashAcrossChunks:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_mins_match_per_row_reference(self, n):
        items = items_of(n, seed=n)
        s = MinHashSketch(k=8, master_seed=n)
        s.insert_many(items[: n // 2])
        s.insert_many(items[n // 2 :])
        expected = [s.hash.unit_hash_many(items, row).min() for row in range(s.k)]
        assert s.mins.tolist() == expected


def maxlog_reference(fam, k, batches):
    """MaxLogHash state from applying the update rule to whole batches."""
    maxlogs, flags = [-1] * k, [True] * k
    for batch in batches:
        for row in range(k):
            ranks = fam.unit_rank_many(batch, row)
            top = int(ranks.max())
            if top > maxlogs[row]:
                maxlogs[row], flags[row] = top, int(np.count_nonzero(ranks == top)) == 1
            elif top == maxlogs[row]:
                flags[row] = False
    return maxlogs, flags


class TestMaxLogHashAcrossChunks:
    def check(self, s, batches):
        for batch in batches:
            s.insert_many(batch)
        maxlogs, flags = maxlog_reference(s.hash, s.k, batches)
        assert s.maxlogs.tolist() == maxlogs
        assert s.unique_flags.tolist() == flags

    @pytest.mark.parametrize("n", LENGTHS)
    def test_state_matches_per_row_reference(self, n):
        items = items_of(n, seed=n, universe=n // 3)
        s = MaxLogHashSketch(k=8, master_seed=n)
        self.check(s, [items, items[: n // 5]])

    def crafted(self, seed, row_hashes):
        """Random items over two chunks, with crafted items placed at the
        given positions; each crafted item has the given row-0 unit hash."""
        s = MaxLogHashSketch(k=4, master_seed=seed)
        items = items_of(HASH_CHUNK + 10, seed=seed)
        for pos, h in row_hashes:
            items[pos] = item_with_hash(s.hash, HashKind.UNIT, 0, h)
        return s, items

    @pytest.mark.parametrize("second", [(1 << 12) | 7, (1 << 12) | 9])
    def test_top_rank_tie_across_a_chunk_boundary(self, second):
        # Rank 51 sits far above any random item's; it is attained once on
        # each side of the boundary, by the same item or by another one.
        first = (1 << 12) | 7
        s, items = self.crafted(seed=11, row_hashes=[(HASH_CHUNK - 1, first), (HASH_CHUNK, second)])
        self.check(s, [items])
        assert s.maxlogs[0] == 51
        assert not s.unique_flags[0]

    @pytest.mark.parametrize("count", [1, 2])
    def test_rank_53_edge(self, count):
        # r = h >> 12 == 0 gives rank 53, and only r == 0 ties it.
        positions = [5, HASH_CHUNK + 2][:count]
        s, items = self.crafted(seed=12, row_hashes=[(p, 1 + p % 4000) for p in positions])
        self.check(s, [items])
        assert s.maxlogs[0] == 53
        assert s.unique_flags[0] == (count == 1)

    @pytest.mark.parametrize("order", [(2**31, 2**31 - 1), (2**31 - 1, 2**31)])
    def test_least_hash_on_both_sides_of_2_31(self, order):
        # The pass yields unit hashes open. A least hash of 2**31 is read
        # by its bits 63..31, which the closing step keeps; 2**31 - 1 by
        # all its bits, which it does not change below 2**33. Rank 33
        # belongs to 2**31 - 1, rank 32 to 2**31.
        positions = (HASH_CHUNK - 3, HASH_CHUNK + 4)
        s, items = self.crafted(seed=14, row_hashes=list(zip(positions, order)))
        self.check(s, [items])
        assert s.maxlogs[0] == 33
        assert s.unique_flags[0]

    @pytest.mark.parametrize("pos", [7, HASH_CHUNK + 7])
    def test_tie_whose_order_the_closing_step_swaps(self, pos):
        # Both hashes sit in the 2**31-block starting at 2**33, and open
        # they swap order: 2**33 opens to 2**33 + 1, and 2**33 + 1 to
        # 2**33. Both have rank 30, so the top rank is tied.
        c = 1 << 33
        assert c ^ (c >> 33) == c + 1
        s, items = self.crafted(seed=15, row_hashes=[(3, c + 1), (pos, c)])
        self.check(s, [items])
        assert s.maxlogs[0] == 30
        assert not s.unique_flags[0]

    @pytest.mark.parametrize("n", [1, HASH_CHUNK + 1])
    def test_rank_0_edge(self, n):
        # Every row-0 hash has its top bit set, so every item has rank 0
        # and every item ties the top rank.
        fam = MaxLogHashSketch(k=4, master_seed=13).hash
        highs = (1 << 63) | items_of(n, seed=n, universe=1 << 62)
        items = [item_with_hash(fam, HashKind.UNIT, 0, int(h)) for h in highs]
        items = np.array(items, dtype=np.uint64)
        s = MaxLogHashSketch(k=4, master_seed=13)
        self.check(s, [items])
        assert s.maxlogs[0] == 0
        assert s.unique_flags[0] == (n == 1)
