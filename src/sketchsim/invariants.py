"""The exact invariants, checked by ``sketchsim selftest`` and the acceptance suite.

Each check takes no argument, runs at one fixed size from fixed seeds,
and returns ``(ok, detail)``: whether the invariant held, and one line
that says what was measured. :data:`CHECKS` names them in selftest
order. The acceptance tests report and assert the same results, so a
check's sizes, seeds and tolerances are part of the test suite.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

from sketchsim.baselines import HllSketch, MinHashSketch, expand_exact_ids
from sketchsim.core import SketchParams, derive_width
from sketchsim.datagen import ZipfSpec, random_split, zipf_stream
from sketchsim.hashing import HashFamily
from sketchsim.oracle import ExactMultiset
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

CheckResult = Tuple[bool, str]


def _zipf_pair(n_items, n_distinct, alpha, seed):
    stream = zipf_stream(ZipfSpec(n_items, n_distinct, alpha, seed))
    return random_split(stream, 0.5, seed + 1_000_003)


def width_derivation() -> CheckResult:
    """``derive_width`` on three budgets with known widths."""
    cases = [((10240, 1, 4), 2560), ((10240, 2, 8), 640), ((65536, 4, 4), 4096)]
    for (budget, rows, slot), expected in cases:
        got = derive_width(budget, rows, slot)
        if got != expected:
            return False, f"derive_width{(budget, rows, slot)} = {got}, expected {expected}"
    return True, f"{len(cases)} budgets give their widths"


def multiset_identity() -> CheckResult:
    """|A ∩ B| + |A ∪ B| = |A| + |B|, J(A, A) = 1 and J(A, B) = J(B, A)."""
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(1000):
        a = ExactMultiset.from_array(rng.integers(0, 60, size=400, dtype=np.uint64))
        b = ExactMultiset.from_array(rng.integers(0, 60, size=300, dtype=np.uint64))
        if len(a.intersect(b)) + len(a.union(b)) != len(a) + len(b):
            failures += 1
        elif a.jaccard(a) != 1.0 or a.jaccard(b) != b.jaccard(a):
            failures += 1
    return failures == 0, f"{failures} failures in 1000 pairs"


def epsilon_drift_bound() -> CheckResult:
    """The similarity of the ε-heavy subsets drifts less than 2ε."""
    rng = np.random.default_rng(13)
    alphas = (0.3, 0.6, 1.0)
    worst_margin = -1.0
    violations = 0
    for trial in range(100):
        left, right = _zipf_pair(
            int(rng.integers(5_000, 30_000)),
            int(rng.integers(300, 3_000)),
            alphas[trial % 3],
            10_000 + trial,
        )
        a, b = ExactMultiset.from_array(left), ExactMultiset.from_array(right)
        j_full = a.jaccard(b)
        for eps in (0.01, 0.05, 0.1):
            drift = abs(j_full - a.epsilon_subset(eps).jaccard(b.epsilon_subset(eps)))
            if drift >= 2 * eps:
                violations += 1
            worst_margin = max(worst_margin, drift / (2 * eps))
    return (
        violations == 0,
        f"{violations} violations in 300 cases, worst drift/bound={worst_margin:.3f}",
    )


def cm_over_estimation() -> CheckResult:
    """CM never estimates below the truth, over 200 random cells in under 60 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    alphas = (0.3, 0.6, 1.0)
    rows_choices = (1, 2, 4)
    violations = 0
    for trial in range(200):
        alpha = alphas[trial % 3]
        rows = rows_choices[(trial // 3) % 3]
        n_items = int(rng.integers(10_000, 50_001))
        n_distinct = int(rng.integers(500, 5_001))
        width = int(rng.integers(8, 2049))
        left, right = _zipf_pair(n_items, n_distinct, alpha, trial)
        j_true = ExactMultiset.from_array(left).jaccard(ExactMultiset.from_array(right))
        seed = int(rng.integers(1 << 30))
        a = CmSimilaritySketch.from_budget(width * rows * 4, rows, seed)
        b = CmSimilaritySketch.from_budget(width * rows * 4, rows, seed)
        a.insert_many(left)
        b.insert_many(right)
        if a.estimate_jaccard(b).raw < j_true:
            violations += 1
    elapsed = time.perf_counter() - start
    return (
        violations == 0 and elapsed < 60,
        f"{violations} violations in 200 trials, {elapsed:.1f}s",
    )


def merge_linearity() -> CheckResult:
    """A grid merge equals the sketch of the concatenated stream."""
    rng = np.random.default_rng(17)
    mismatches = 0
    for cls in (CmSimilaritySketch, CountSimilaritySketch, WeightedSimilaritySketch):
        for trial in range(50):
            s1 = rng.integers(0, 2_000, size=4_000, dtype=np.uint64)
            s2 = rng.integers(0, 2_000, size=3_000, dtype=np.uint64)
            seed = int(rng.integers(1 << 30))
            part_a = cls.from_budget(4096, 2, seed)
            part_b = cls.from_budget(4096, 2, seed)
            whole = cls.from_budget(4096, 2, seed)
            part_a.insert_many(s1)
            part_b.insert_many(s2)
            whole.insert_many(np.concatenate([s1, s2]))
            merged = part_a.merge(part_b)
            for field in cls.FIELDS:
                if not (getattr(merged, field) == getattr(whole, field)).all():
                    mismatches += 1
                    break
    return mismatches == 0, f"{mismatches} mismatches across 150 merge trials"


def salsa_conservation_and_twin() -> CheckResult:
    """SALSA conserves arrivals through merges; unmerged, it estimates as its Weighted twin."""
    conserved = True
    for seed in range(3):
        narrow = SalsaSimilaritySketch.from_budget(128, 2, seed)
        stream = np.random.default_rng(seed).integers(
            0, 5_000, size=100_000, dtype=np.uint64
        )
        narrow.insert_many(stream)
        merged_levels = max(int(row.level_of.max()) for row in narrow.rows)
        if merged_levels == 0:
            conserved = False
        for row in narrow.rows:
            if row.total_cm() != len(stream):
                conserved = False

    twins_unmerged = True
    worst_gap = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        small = np.repeat(
            rng.integers(0, 1 << 50, size=4_000, dtype=np.uint64),
            rng.integers(1, 4, size=4_000),
        )
        other = np.repeat(
            rng.integers(0, 1 << 50, size=4_000, dtype=np.uint64),
            rng.integers(1, 4, size=4_000),
        )
        salsa_a = SalsaSimilaritySketch.from_budget(18_432, 2, seed)
        salsa_b = SalsaSimilaritySketch.from_budget(18_432, 2, seed)
        width = salsa_a.params.width
        dense_params = SketchParams(rows=2, width=width, master_seed=seed)
        dense_a = WeightedSimilaritySketch(dense_params)
        dense_b = WeightedSimilaritySketch(dense_params)
        salsa_a.insert_many(small)
        dense_a.insert_many(small)
        salsa_b.insert_many(other)
        dense_b.insert_many(other)
        if any(int(r.level_of.max()) != 0 for r in salsa_a.rows + salsa_b.rows):
            twins_unmerged = False
        gap = abs(
            salsa_a.estimate_jaccard(salsa_b).raw - dense_a.estimate_jaccard(dense_b).raw
        )
        worst_gap = max(worst_gap, gap)
    detail = (
        f"counter mass conserved under forced merges={conserved}, "
        f"max no-overflow gap vs dense twin={worst_gap:.2e}"
    )
    if not twins_unmerged:
        detail += ", but a twin's counters merged"
    return conserved and twins_unmerged and worst_gap <= 1e-12, detail


def adapter_bridge() -> CheckResult:
    """Occurrence expansion keeps the multiset similarity as a set similarity."""
    rng = np.random.default_rng(23)
    failures = 0
    for _ in range(100):
        left = rng.integers(0, 80, size=int(rng.integers(100, 2_000)), dtype=np.uint64)
        right = rng.integers(0, 80, size=int(rng.integers(100, 2_000)), dtype=np.uint64)
        j_multi = ExactMultiset.from_array(left).jaccard(ExactMultiset.from_array(right))
        j_set = ExactMultiset.from_array(expand_exact_ids(left)).jaccard(
            ExactMultiset.from_array(expand_exact_ids(right))
        )
        if j_set != j_multi:
            failures += 1
    return failures == 0, f"{failures} mismatches in 200 expanded streams"


def hll_union_law() -> CheckResult:
    """HLL counts 100k items within 5% on average, and its register-max union is exact."""
    errors = []
    union_law_holds = True
    for seed in range(20):
        base = np.arange(100_000, dtype=np.uint64) + np.uint64(seed) * np.uint64(1 << 40)
        sketch = HllSketch(m_bits=11, master_seed=seed)
        sketch.insert_many(base)
        est = sketch.cardinality()
        errors.append(abs(est.value - 100_000) / 100_000)

        half_a, half_b = base[:60_000], base[40_000:]
        a = HllSketch(m_bits=11, master_seed=seed)
        b = HllSketch(m_bits=11, master_seed=seed)
        a.insert_many(half_a)
        b.insert_many(half_b)
        if not (a.union(b).registers == sketch.registers).all():
            union_law_holds = False
    mean_error = float(np.mean(errors))
    return (
        mean_error <= 0.05 and union_law_holds,
        f"mean |RE| over 20 seeds = {mean_error:.4f} (limit 0.05), "
        f"register-max union exact={union_law_holds}",
    )


def minhash_identity() -> CheckResult:
    """MinHash estimates two identical sets at exactly 1."""
    items = np.arange(100, dtype=np.uint64)
    a, b = MinHashSketch(k=128, master_seed=2), MinHashSketch(k=128, master_seed=2)
    a.insert_many(items)
    b.insert_many(items)
    if a.estimate_jaccard(b).value != 1.0:
        return False, "identical sets do not estimate 1"
    return True, "identical sets estimate 1"


def unit_hash_range() -> CheckResult:
    """Each unit hash u lies in (0, 1), and its rank r gives 2^-(r+1) < u <= 2^-r."""
    fam = HashFamily(master_seed=3, rows=1)
    items = np.arange(200_000, dtype=np.uint64)
    u = fam.unit_hash_many(items, 0)
    if not ((u > 0.0) & (u < 1.0)).all():
        return False, "unit hash left the open interval"
    ranks = fam.unit_rank_many(items, 0)
    low, high = 2.0 ** -(ranks + 1), 2.0 ** -ranks
    if not ((u > low) & (u <= high)).all():
        return False, "rank does not bracket the unit hash"
    return True, "200000 unit hashes in (0, 1), each bracketed by its rank"


# Each check's name is its function's name, hyphenated.
CHECKS: Dict[str, Callable[[], CheckResult]] = {
    check.__name__.replace("_", "-"): check
    for check in (
        width_derivation,
        multiset_identity,
        epsilon_drift_bound,
        cm_over_estimation,
        merge_linearity,
        salsa_conservation_and_twin,
        adapter_bridge,
        hll_union_law,
        minhash_identity,
        unit_hash_range,
    )
}
