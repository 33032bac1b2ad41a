"""Contracts shared by the sketches.

Weighted's two fields are CM's and Count's fields under one hash family,
each grid holds exactly the bytes of its budget in 32-bit fields, an
insert or merge that would pass a field's range changes nothing, no
sketch's state, whether a counter grid or a set baseline, depends
on how a stream is cut into batches, sketches of different types refuse
to compare, two empty sketches have no similarity, and one empty side
estimates 0. Every sketch refuses item ids that are not integers, whether
they come as an array, a list or a scalar, and Python ints outside
[0, 2**64) as a list element or a scalar. So do the array entry points
outside the sketches (the adapters, the oracle, the split and the hash
family) and the per-item paths: the oracle's, ``OccurrenceItem``,
``expand_cm``, a one-item hash view, and the tests' exact expansion. An
integer array of any shape is taken as its flat batch. Every budget, the
rows and width of ``SketchParams``, each set baseline's size and every
master seed are refused by name when they are a bool or not an integer;
a negative seed hashes as its value modulo 2**64.
"""

import itertools
import pickle

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
import reference as ref

from sketchsim.baselines import (
    DotHashSketch,
    HllSketch,
    MaxLogHashSketch,
    MinHashSketch,
    OccurrenceItem,
    expand_cm,
    expand_cm_ids,
    expand_exact_ids,
    occurrence_numbers,
)
from sketchsim.core import (
    CounterOverflowError,
    IncompatibleSketchError,
    SketchParams,
    UndefinedSimilarityError,
    derive_width,
)
from sketchsim.datagen import random_split
from sketchsim.hashing import HASH_CHUNK, HashFamily, HashKind
from sketchsim.oracle import ExactMultiset, multiset_jaccard
from sketchsim.salsa import SalsaSimilaritySketch, salsa_width
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

GRID_CLASSES = (CmSimilaritySketch, CountSimilaritySketch, WeightedSimilaritySketch)


def params(rows, width, seed):
    return SketchParams(rows=rows, width=width, master_seed=seed)


def grid_state(s):
    fields = ("counters", "cm_counters", "c_counters")
    return {f: getattr(s, f).tolist() for f in fields if hasattr(s, f)}


def salsa_state(s):
    return [(r.level_of.tolist(), r.cm.tolist(), r.c.tolist()) for r in s.rows]


SET_SKETCHES = (
    lambda seed: MinHashSketch(k=16, master_seed=seed),
    lambda seed: MaxLogHashSketch(k=16, master_seed=seed),
    lambda seed: HllSketch(m_bits=4, master_seed=seed),
)


def set_state(s):
    if isinstance(s, MinHashSketch):
        return s.mins.tolist(), s.total_inserted
    if isinstance(s, MaxLogHashSketch):
        return s.maxlogs.tolist(), s.unique_flags.tolist(), s.total_inserted
    return s.registers.tolist()


class TestWeightedIsCmPlusCount:
    def test_fields_equal_cm_and_count_counters(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            rows = int(rng.integers(1, 5))
            width = int(rng.integers(1, 64))
            p = params(rows, width, seed=trial)
            stream = rng.integers(0, 1 << 63, size=int(rng.integers(0, 3000)), dtype=np.uint64)
            cm, count, weighted = (cls(p) for cls in GRID_CLASSES)
            for s in (cm, count, weighted):
                s.insert_many(stream)
            assert (weighted.cm_counters == cm.counters).all()
            assert (weighted.c_counters == count.counters).all()
            assert weighted.total_inserted == cm.total_inserted == count.total_inserted


@st.composite
def chunked_streams(draw, universe=40):
    # Small universes make all-duplicate pools; repeated cuts make empty parts.
    stream = draw(st.lists(st.integers(0, universe), max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return np.array(stream, dtype=np.uint64), [np.array(c, dtype=np.uint64) for c in chunks]


class TestBatchSplitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(chunked_streams(), st.integers(0, 1 << 32))
    def test_grid_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        for cls in GRID_CLASSES:
            whole, parts = cls(params(3, 8, seed)), cls(params(3, 8, seed))
            whole.insert_many(stream)
            for chunk in chunks:
                parts.insert_many(chunk)
            assert grid_state(parts) == grid_state(whole)
            assert parts.total_inserted == whole.total_inserted == len(stream)

    @settings(max_examples=60, deadline=None)
    @given(chunked_streams(universe=3), st.integers(0, 1 << 32))
    def test_salsa_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        # Two slots and four distinct items: long streams push a slot past
        # one byte, so buddy merges happen mid-stream.
        p = SketchParams(rows=2, width=2, master_seed=seed)
        whole, parts = SalsaSimilaritySketch(p), SalsaSimilaritySketch(p)
        whole.insert_many(stream)
        for chunk in chunks:
            parts.insert_many(chunk)
        assert salsa_state(parts) == salsa_state(whole)
        assert parts.total_inserted == whole.total_inserted == len(stream)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(chunked_streams(), chunked_streams(universe=0), chunked_streams(universe=2)),
        st.integers(0, 1 << 32),
    )
    def test_set_baseline_state_is_independent_of_chunking(self, data, seed):
        stream, chunks = data
        for make in SET_SKETCHES:
            whole, parts = make(seed), make(seed)
            whole.insert_many(stream)
            for chunk in chunks:
                parts.insert_many(chunk)
            assert set_state(parts) == set_state(whole)


# One small sketch of each of the eight types, all under the same seed.
ALL_SKETCHES = {
    "cm": lambda: CmSimilaritySketch(params(1, 16, 1)),
    "count": lambda: CountSimilaritySketch(params(1, 16, 1)),
    "weighted": lambda: WeightedSimilaritySketch(params(1, 16, 1)),
    "salsa": lambda: SalsaSimilaritySketch(params(1, 16, 1)),
    "minhash": lambda: MinHashSketch(k=8, master_seed=1),
    "hll": lambda: HllSketch(m_bits=4, master_seed=1),
    "maxloghash": lambda: MaxLogHashSketch(k=8, master_seed=1),
    "dothash": lambda: DotHashSketch(d=8, master_seed=1),
}


class TestDifferentTypesRefuse:
    @pytest.mark.parametrize("first,second", list(itertools.permutations(ALL_SKETCHES, 2)))
    def test_every_ordered_pair_raises(self, first, second):
        a, b = ALL_SKETCHES[first](), ALL_SKETCHES[second]()
        items = np.arange(1, 40, dtype=np.uint64)
        a.insert_many(items)
        b.insert_many(items)
        with pytest.raises(IncompatibleSketchError, match="cannot compare"):
            a.estimate_jaccard(b)


class TestEmptyPairs:
    @pytest.mark.parametrize("name", list(ALL_SKETCHES))
    def test_two_empty_sketches_are_undefined(self, name):
        a, b = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        with pytest.raises(UndefinedSimilarityError):
            a.estimate_jaccard(b)

    @pytest.mark.parametrize("name", list(ALL_SKETCHES))
    def test_one_empty_side_estimates_zero(self, name):
        full, empty = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        full.insert_many(np.arange(1, 40, dtype=np.uint64))
        assert full.estimate_jaccard(empty).value == 0.0
        assert empty.estimate_jaccard(full).value == 0.0


CM_MAX, C_MAX = (1 << 32) - 1, (1 << 31) - 1
# (class, field, sign of the arrivals): every field at its cap, and the
# signed fields on both sides.
FIELD_CAPS = [
    (CmSimilaritySketch, "counters", 1),
    (CountSimilaritySketch, "counters", 1),
    (CountSimilaritySketch, "counters", -1),
    (WeightedSimilaritySketch, "cm_counters", 1),
    (WeightedSimilaritySketch, "c_counters", 1),
    (WeightedSimilaritySketch, "c_counters", -1),
]


def fields_of(s):
    return {name: getattr(s, name).copy() for name in s.FIELDS}


def item_with_sign(s, sign, avoid_slot=None):
    """The first item whose row-0 sign hash is ``sign``, outside ``avoid_slot``."""
    width = s.params.width
    for x in itertools.count(1):
        slot = ref.index_hash(s.hash, x, 0, width)
        if ref.sign_hash(s.hash, x, 0) == sign and slot != avoid_slot:
            return x


def cap_of(cls, field, sign):
    return sign * C_MAX if cls.FIELDS[field] else CM_MAX


class TestGridHoldsItsBudget:
    @pytest.mark.parametrize("cls", GRID_CLASSES)
    @pytest.mark.parametrize(
        "memory_bytes,rows", [(64, 1), (10_000, 1), (10_000, 4), (99_999, 3), (2_000_000, 4)]
    )
    def test_fields_hold_exactly_the_budget(self, cls, memory_bytes, rows):
        s = cls.from_budget(memory_bytes, rows, master_seed=1)
        charged = rows * s.params.width * cls.SLOT_BYTES
        assert charged <= memory_bytes
        s.insert_many(np.arange(1, 5_000, dtype=np.uint64))
        for sketch in (s, s.merge(s)):
            assert sum(getattr(sketch, f).nbytes for f in cls.FIELDS) == charged

    @pytest.mark.parametrize(
        "cls,width",
        [
            (CmSimilaritySketch, 1 << 20),
            (CountSimilaritySketch, 1 << 20),
            (WeightedSimilaritySketch, 1 << 19),
        ],
    )
    def test_insert_allocates_only_its_count_buffer(self, cls, width):
        s = cls(params(1, width, seed=1))
        items = np.random.default_rng(0).integers(0, 1 << 63, size=200_000, dtype=np.uint64)
        bins = 2 * width if any(cls.FIELDS.values()) else width
        peak, _ = traced_peak(s.insert_many, items)
        # The int64 count buffer, plus the hashing pass's chunk buffers.
        assert peak < bins * 8 + (2 << 20), f"peak {peak} bytes for a {bins * 8}-byte buffer"


class TestSetBaselinesHoldNoBatchArray:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: MinHashSketch(k=4, master_seed=1),
            lambda: MaxLogHashSketch(k=4, master_seed=1),
            lambda: HllSketch(master_seed=1),
        ],
        ids=["minhash", "maxloghash", "hll"],
    )
    def test_insert_peak_stays_below_4_mib(self, make):
        # 2M ids are 16 MiB; the hashing pass works on fixed chunks, so
        # the peak is a few chunk buffers however long the batch is.
        s = make()
        items = np.random.default_rng(0).integers(0, 1 << 63, size=2_000_000, dtype=np.uint64)
        peak, _ = traced_peak(s.insert_many, items)
        assert peak < 4 << 20, f"peak {peak} bytes for a {items.nbytes}-byte batch"

    def test_hll_ranks_each_chunk_in_reused_buffers(self):
        # The pass's three chunk buffers and three more for the ranks,
        # each allocated once per insert: well under 1.5 MiB.
        s = HllSketch(master_seed=1)
        items = np.random.default_rng(0).integers(0, 1 << 63, size=2_000_000, dtype=np.uint64)
        peak, _ = traced_peak(s.insert_many, items)
        assert peak < 1.5 * (1 << 20), f"peak {peak} bytes for a {items.nbytes}-byte batch"


class TestGridRange:
    @pytest.mark.parametrize("cls,field,sign", FIELD_CAPS)
    @pytest.mark.parametrize("width", [4, HASH_CHUNK])
    def test_exactly_the_cap_is_applied_and_one_more_is_not(self, cls, field, sign, width):
        s = cls(params(1, width, seed=3))
        x = item_with_sign(s, sign)
        j = ref.index_hash(s.hash, x, 0, width)
        cap = cap_of(cls, field, sign)
        getattr(s, field)[0, j] = cap - 2 * sign
        s.insert_many([x, x])
        assert int(getattr(s, field)[0, j]) == cap
        before = fields_of(s)
        with pytest.raises(CounterOverflowError):
            s.insert(x)
        for name, values in before.items():
            assert getattr(s, name).tobytes() == values.tobytes()
        assert s.total_inserted == 2

    @pytest.mark.parametrize("cls,field,sign", FIELD_CAPS)
    def test_large_values_in_different_slots_do_not_raise(self, cls, field, sign):
        # The field's largest value and the batch's largest delta sum past
        # the cap, but they sit in different slots, so no total does.
        s = cls(params(1, 8, seed=4))
        x = item_with_sign(s, sign)
        j = ref.index_hash(s.hash, x, 0, 8)
        y = item_with_sign(s, sign, avoid_slot=j)
        k = ref.index_hash(s.hash, y, 0, 8)
        cap = cap_of(cls, field, sign)
        getattr(s, field)[0, j] = cap - 5 * sign
        s.insert_many(np.full(10, y, dtype=np.uint64))
        assert int(getattr(s, field)[0, j]) == cap - 5 * sign
        assert int(getattr(s, field)[0, k]) == 10 * sign
        assert s.total_inserted == 10

    @pytest.mark.parametrize("cls,field,sign", FIELD_CAPS)
    def test_merge_past_the_cap_raises_instead_of_wrapping(self, cls, field, sign):
        a, b = cls(params(2, 4, seed=5)), cls(params(2, 4, seed=5))
        cap = cap_of(cls, field, sign)
        # Twice the cap wraps in 32 bits to a value inside the range.
        getattr(a, field)[1, 2] = cap
        getattr(b, field)[1, 2] = cap
        with pytest.raises(CounterOverflowError):
            a.merge(b)
        getattr(b, field)[1, 2] = 0
        assert int(getattr(a.merge(b), field)[1, 2]) == cap


BAD_ITEMS = {"float": np.array([1.5, 2.9]), "bool": np.array([True, False])}

# The array entry points outside the sketches, each fed two batches.
ENTRY_POINTS = {
    "expand_exact_ids": lambda a, b: [expand_exact_ids(x) for x in (a, b)],
    "expand_cm_ids": lambda a, b: [expand_cm_ids(x, params(2, 8, 1)) for x in (a, b)],
    "multiset_jaccard": multiset_jaccard,
    "from_array": lambda a, b: ExactMultiset.from_array(a).jaccard(ExactMultiset.from_array(b)),
    "random_split": lambda a, b: [random_split(x, 0.5, 1) for x in (a, b)],
    "index_hash_many": lambda a, b: [HashFamily(1, 1).index_hash_many(x, 0, 1 << 20) for x in (a, b)],
    "chunk_hashes": lambda a, b: [
        [h.copy() for _, hashes in HashFamily(1, 2).chunk_hashes(x, (HashKind.INDEX,)) for h in hashes]
        for x in (a, b)
    ],
    "occurrence_numbers": lambda a, b: [occurrence_numbers(x) for x in (a, b)],
}


def items_of(x):
    """A per-item path's input: an iterable of items, or a lone item as one."""
    return x if np.iterable(x) else [x]


# The per-item paths, each fed two batches. Most keep ids as Python
# ints, so an int64 view is not the same input to them.
PER_ITEM = {
    "from_items": lambda a, b: ExactMultiset.from_items(items_of(a)).jaccard(
        ExactMultiset.from_items(items_of(b))
    ),
    "ExactMultiset": lambda a, b: ExactMultiset({x: 1 for x in items_of(a)}).jaccard(
        ExactMultiset({x: 1 for x in items_of(b)})
    ),
    "multiplicity": lambda a, b: [
        ExactMultiset.from_items([1, 2]).multiplicity(x) for x in [*items_of(a), *items_of(b)]
    ],
    "OccurrenceItem": lambda a, b: [OccurrenceItem(x, 1).item_id() for x in [*items_of(a), *items_of(b)]],
    "OccurrenceItem occurrence": lambda a, b: [
        OccurrenceItem(7, x).item_id() for x in [*items_of(a), *items_of(b)]
    ],
    "index_hash": lambda a, b: [
        HashFamily(1, 1).index_hash(x, 0, 1 << 20) for x in [*items_of(a), *items_of(b)]
    ],
    "expand_exact": lambda a, b: [
        [o.item_id() for o in ref.expand_exact(items_of(x))] for x in (a, b)
    ],
    "expand_cm": lambda a, b: [
        [o.item_id() for o in expand_cm(items_of(x), params(2, 8, 1))] for x in (a, b)
    ],
}
POINTS = {**ENTRY_POINTS, **PER_ITEM}


class TestItemIds:
    @pytest.mark.parametrize("name", [*ALL_SKETCHES, *POINTS])
    @pytest.mark.parametrize("kind", list(BAD_ITEMS))
    @pytest.mark.parametrize("order", ["bad first", "bad second"])
    def test_non_integer_arrays_are_refused(self, name, kind, order):
        # Refused whether the batch meets an empty sketch or a filled one,
        # and the sketch is left exactly as a twin that never saw it. An
        # entry point refuses it as its first batch or its second.
        good = np.array([1, 2], dtype=np.uint64)
        if name in POINTS:
            bad = BAD_ITEMS[kind]
            with pytest.raises(TypeError, match=str(bad.dtype)):
                POINTS[name](*((bad, good) if order == "bad first" else (good, bad)))
            return
        s, twin = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        if order == "bad second":
            s.insert_many(good)
            twin.insert_many(good)
        with pytest.raises(TypeError, match=str(BAD_ITEMS[kind].dtype)):
            s.insert_many(BAD_ITEMS[kind])
        assert pickle.dumps(s) == pickle.dumps(twin)

    @pytest.mark.parametrize("name", [*ALL_SKETCHES, *POINTS])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, np.float64(1.5), np.True_])
    @pytest.mark.parametrize("form", ["scalar", "list element"])
    def test_non_integer_scalars_and_list_elements_are_refused(self, name, bad, form):
        # A cast to uint64 would truncate them: 1.5 would count as 1.
        if name in POINTS:
            with pytest.raises(TypeError, match="integers"):
                POINTS[name]([1, 2], bad if form == "scalar" else [3, bad, 4])
            return
        s, twin = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        s.insert_many([1, 2])
        twin.insert_many([1, 2])
        with pytest.raises(TypeError, match="integers"):
            if form == "scalar":
                s.insert(bad)
            else:
                s.insert_many([3, bad, 4])
        assert pickle.dumps(s) == pickle.dumps(twin)

    @pytest.mark.parametrize("name", [*ALL_SKETCHES, *POINTS])
    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    @pytest.mark.parametrize("form", ["scalar", "list element"])
    def test_integers_outside_64_bits_are_refused(self, name, bad, form):
        # A cast to uint64 would wrap them: -1 would count as 2**64 - 1.
        if name in POINTS:
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                POINTS[name]([1, 2], bad if form == "scalar" else [3, bad, 4])
            return
        s, twin = ALL_SKETCHES[name](), ALL_SKETCHES[name]()
        s.insert_many([1, 2])
        twin.insert_many([1, 2])
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            if form == "scalar":
                s.insert(bad)
            else:
                s.insert_many([3, bad, 4])
        assert pickle.dumps(s) == pickle.dumps(twin)

    @pytest.mark.parametrize("name", list(ALL_SKETCHES))
    def test_integer_scalars_still_work(self, name):
        ids = [1, (1 << 63) + 7, (1 << 64) - 1]
        reference = ALL_SKETCHES[name]()
        reference.insert_many(np.array(ids, dtype=np.uint64))
        for scalars in (ids, [np.uint64(x) for x in ids]):
            s = ALL_SKETCHES[name]()
            for x in scalars:
                s.insert(x)
            assert pickle.dumps(s) == pickle.dumps(reference)

    @pytest.mark.parametrize("name", [*ALL_SKETCHES, *ENTRY_POINTS])
    def test_integer_lists_views_and_empty_batches_still_work(self, name):
        ids = np.array([1, 2, (1 << 63) + 7, (1 << 64) - 1], dtype=np.uint64)
        if name in ENTRY_POINTS:
            reference = pickle.dumps(ENTRY_POINTS[name](ids, ids))
            for batch in (ids.tolist(), ids.view(np.int64), ids.reshape(2, 2), [], np.array([])):
                got = ENTRY_POINTS[name](batch, ids)
                if len(batch):
                    assert pickle.dumps(got) == reference
            return
        reference = ALL_SKETCHES[name]()
        reference.insert_many(ids)
        for batch in (ids.tolist(), ids.view(np.int64), ids.reshape(2, 2), [], np.array([])):
            s = ALL_SKETCHES[name]()
            s.insert_many(batch)
            if len(batch):
                assert pickle.dumps(s) == pickle.dumps(reference)
            else:
                assert s.is_empty()


BUDGET_CLASSES = [type(make()) for make in ALL_SKETCHES.values()]
# Every rule that sizes from (memory_bytes, rows).
BUDGET_RULES = {
    **{cls.__name__: lambda m, r, cls=cls: cls.from_budget(m, r, 0) for cls in BUDGET_CLASSES},
    "derive_width": lambda m, r: derive_width(m, r, 4),
    "salsa_width": salsa_width,
}


# Every constructor that takes a master seed, by name.
SEEDED = {
    **{
        cls.__name__: lambda seed, cls=cls: cls(8, seed)
        for cls in (MinHashSketch, MaxLogHashSketch, DotHashSketch)
    },
    "HllSketch": lambda seed: HllSketch(4, seed),
    **{
        f"{cls.__name__}.from_budget": lambda seed, cls=cls: cls.from_budget(1024, 1, seed)
        for cls in BUDGET_CLASSES
    },
    "SketchParams": lambda seed: params(1, 8, seed),
    "HashFamily": lambda seed: HashFamily(seed, 1),
}


def refusal(name, value):
    """The id rule's wording, for the argument ``name``."""
    return rf"^{name} must be an integer, got {type(value).__name__} {value!r}$"


class TestBudgetArguments:
    # Every budget passes one check, core.check_budget. A float would size
    # a sketch by a fractional width, or fail on int-only calls, and a bool
    # would count as 0 or 1.
    @pytest.mark.parametrize("rule", list(BUDGET_RULES))
    @pytest.mark.parametrize(
        "name,bad", [("memory_bytes", 1024.5), ("rows", 1.0), ("memory_bytes", True), ("rows", True)]
    )
    def test_non_integers_are_refused_by_name(self, rule, name, bad):
        budget = {"memory_bytes": 1024, "rows": 1, name: bad}
        with pytest.raises(TypeError, match=refusal(name, bad)):
            BUDGET_RULES[rule](budget["memory_bytes"], budget["rows"])

    @pytest.mark.parametrize("name", ["rows", "width"])
    @pytest.mark.parametrize("bad", [2.0, True])
    def test_params_refuse_non_integers(self, name, bad):
        kwargs = {**dict(rows=2, width=4, master_seed=0), name: bad}
        with pytest.raises(TypeError, match=refusal(name, bad)):
            SketchParams(**kwargs)

    @pytest.mark.parametrize(
        "cls,name",
        [(MinHashSketch, "k"), (MaxLogHashSketch, "k"), (DotHashSketch, "d"), (HllSketch, "m_bits")],
    )
    @pytest.mark.parametrize("bad", [4.0, True])
    def test_set_sizes_refuse_non_integers(self, cls, name, bad):
        with pytest.raises(TypeError, match=refusal(name, bad)):
            cls(**{name: bad})

    @pytest.mark.parametrize("maker", list(SEEDED))
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_seeds_refuse_non_integers(self, maker, bad):
        # Refused when built, not at the first insert's hashing.
        with pytest.raises(TypeError, match=refusal("master_seed", bad)):
            SEEDED[maker](bad)

    @pytest.mark.parametrize("cls", BUDGET_CLASSES, ids=lambda cls: cls.__name__)
    def test_seeds_are_python_ints_that_hash_modulo_2_64(self, cls):
        negative, wrapped, numpy_seed = (
            cls.from_budget(1024, 1, seed) for seed in (-3, (1 << 64) - 3, np.int64(-3))
        )
        assert negative.master_seed == -3 and type(numpy_seed.master_seed) is int
        assert pickle.dumps(numpy_seed) == pickle.dumps(negative)
        # The hash family is where the seed enters the hashes.
        assert np.array_equal(negative.hash._seeds, wrapped.hash._seeds)

    @pytest.mark.parametrize("cls", BUDGET_CLASSES, ids=lambda cls: cls.__name__)
    def test_numpy_integers_size_as_python_ints(self, cls):
        # operator.index takes a numpy integer as its Python int.
        s = cls.from_budget(np.int64(1024), np.int32(2), 3)
        assert pickle.dumps(s) == pickle.dumps(cls.from_budget(1024, 2, 3))
