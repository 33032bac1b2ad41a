"""The failure branch of every check in ``sketchsim.invariants``.

A check that could no longer fail would pass unnoticed. So each test
breaks what one check measures, by patching a name the check looks up
in its own module, and asserts that the check returns ``(False,
detail)`` with the detail that says what went wrong. Where a check is
slow at full size, the patch also gives it tiny inputs, so each test
runs in well under a second.
"""

import numpy as np
import pytest

from sketchsim import invariants
from sketchsim.baselines import HllSketch, MinHashSketch
from sketchsim.hashing import HashFamily
from sketchsim.oracle import ExactMultiset
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import CountSimilaritySketch


def _tiny_pair(n_items, n_distinct, alpha, seed):
    """Two short streams in place of a Zipf pair; their similarity is 1/3."""
    return np.array([1, 1, 2, 3], np.uint64), np.array([1, 2, 2, 4], np.uint64)


def test_width_derivation(monkeypatch):
    monkeypatch.setattr(invariants, "derive_width", lambda budget, rows, slot: 7)
    assert invariants.width_derivation() == (
        False,
        "derive_width(10240, 1, 4) = 7, expected 2560",
    )


class _EmptyUnion(ExactMultiset):
    def union(self, other):
        return ExactMultiset()


class _HalfJaccard(ExactMultiset):
    def jaccard(self, other):
        return 0.5


@pytest.mark.parametrize("broken", [_EmptyUnion, _HalfJaccard], ids=["sizes", "jaccard"])
def test_multiset_identity(monkeypatch, broken):
    monkeypatch.setattr(invariants, "ExactMultiset", broken)
    assert invariants.multiset_identity() == (False, "1000 failures in 1000 pairs")


class _DisjointSubsets(ExactMultiset):
    """Each ε-subset is one item that no other multiset's subset holds."""

    def epsilon_subset(self, eps):
        return ExactMultiset.from_items([id(self)])


def test_epsilon_drift_bound(monkeypatch):
    monkeypatch.setattr(invariants, "_zipf_pair", _tiny_pair)
    monkeypatch.setattr(invariants, "ExactMultiset", _DisjointSubsets)
    # Every drift is the full 1/3, and the tightest bound is 2 · 0.01.
    assert invariants.epsilon_drift_bound() == (
        False,
        "300 violations in 300 cases, worst drift/bound=16.667",
    )


class _JaccardAboveOne(ExactMultiset):
    def jaccard(self, other):
        return 2.0


def test_cm_over_estimation(monkeypatch):
    monkeypatch.setattr(invariants, "_zipf_pair", _tiny_pair)
    monkeypatch.setattr(invariants, "ExactMultiset", _JaccardAboveOne)
    ok, detail = invariants.cm_over_estimation()
    assert not ok
    assert detail.startswith("200 violations in 200 trials, "), detail


class _MergeKeepsLeft(CountSimilaritySketch):
    def merge(self, other):
        return self


def test_merge_linearity(monkeypatch):
    monkeypatch.setattr(invariants, "CountSimilaritySketch", _MergeKeepsLeft)
    assert invariants.merge_linearity() == (False, "50 mismatches across 150 merge trials")


class _KeepsOneArrival(SalsaSimilaritySketch):
    def insert_many(self, items):
        super().insert_many(items[:1])


class _NarrowBudget(SalsaSimilaritySketch):
    @classmethod
    def from_budget(cls, memory_bytes, rows, master_seed):
        return super().from_budget(128, rows, master_seed)


def test_salsa_conservation(monkeypatch):
    # One arrival neither merges a counter nor adds up to the stream.
    monkeypatch.setattr(invariants, "SalsaSimilaritySketch", _KeepsOneArrival)
    ok, detail = invariants.salsa_conservation_and_twin()
    assert not ok
    assert detail.startswith("counter mass conserved under forced merges=False, "), detail


def test_salsa_twin(monkeypatch):
    # At 128 bytes the twins' counters merge too.
    monkeypatch.setattr(invariants, "SalsaSimilaritySketch", _NarrowBudget)
    ok, detail = invariants.salsa_conservation_and_twin()
    assert not ok
    assert detail.startswith("counter mass conserved under forced merges=True, "), detail
    assert detail.endswith(", but a twin's counters merged"), detail


def test_adapter_bridge(monkeypatch):
    # Without occurrence numbers a multiset collapses to its support.
    monkeypatch.setattr(invariants, "expand_exact_ids", np.unique)
    assert invariants.adapter_bridge() == (False, "100 mismatches in 200 expanded streams")


class _SeesFirstThousand(HllSketch):
    def insert_many(self, items):
        super().insert_many(items[:1000])


def test_hll_union_law(monkeypatch):
    # Each sketch sees only its first 1,000 ids: the count is far off,
    # and the two halves' union misses what the whole stream's sketch saw.
    monkeypatch.setattr(invariants, "HllSketch", _SeesFirstThousand)
    ok, detail = invariants.hll_union_law()
    assert not ok
    assert detail.endswith(" (limit 0.05), register-max union exact=False"), detail


class _HalfMinHash(MinHashSketch):
    def _jaccard(self, other):
        return 0.5


def test_minhash_identity(monkeypatch):
    monkeypatch.setattr(invariants, "MinHashSketch", _HalfMinHash)
    assert invariants.minhash_identity() == (False, "identical sets do not estimate 1")


class _ZeroUnitHash(HashFamily):
    def unit_hash_many(self, items, row):
        return np.zeros(len(items))


class _RankOffByOne(HashFamily):
    def unit_rank_many(self, items, row):
        return super().unit_rank_many(items, row) + 1


@pytest.mark.parametrize(
    "broken,detail",
    [
        (_ZeroUnitHash, "unit hash left the open interval"),
        (_RankOffByOne, "rank does not bracket the unit hash"),
    ],
    ids=["interval", "rank"],
)
def test_unit_hash_range(monkeypatch, broken, detail):
    monkeypatch.setattr(invariants, "HashFamily", broken)
    assert invariants.unit_hash_range() == (False, detail)
