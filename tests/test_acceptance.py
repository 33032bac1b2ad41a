"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the same condition, so the suite is equally usable as a
report and as a gate. Tolerances are pinned in the assertions.

Tests 01, 03, 04, 05, 06, 08 and 10 report checks of
:mod:`sketchsim.invariants`, which ``sketchsim selftest`` runs too, at
the same sizes; their seeds and tolerances live there.
"""

import time

import numpy as np
import scipy.stats
from conftest import find_seed

from sketchsim import invariants
from sketchsim.baselines import MaxLogHashSketch, MinHashSketch
from sketchsim.core import Algo
from sketchsim.datagen import ZipfSpec, zipf_stream
from sketchsim.harness import ExperimentConfig, run_experiment, summarize
from sketchsim.hashing import HashFamily
from sketchsim.oracle import ExactMultiset
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_01_cm_estimate_never_below_truth():
    _report("01 cm-over-estimation", *invariants.cm_over_estimation())


def test_02_collision_free_estimates_are_exact():
    rng = np.random.default_rng(7)
    worst_cm = worst_weighted = 0.0
    count_always_differs = True
    for trial in range(20):
        n = int(rng.integers(16, 65))
        support = rng.integers(0, 1 << 60, size=n, dtype=np.uint64)
        while len(np.unique(support)) < n:
            support = rng.integers(0, 1 << 60, size=n, dtype=np.uint64)
        width = 4 * n
        stream_a = np.repeat(support, rng.integers(1, 8, size=n))
        stream_b = np.repeat(support, rng.integers(1, 8, size=n))
        j_true = ExactMultiset.from_array(stream_a).jaccard(
            ExactMultiset.from_array(stream_b)
        )

        def injective(seed):
            fam = HashFamily(seed, 1)
            idx = fam.index_hash_many(support, 0, width)
            return len(np.unique(idx)) == n

        seed = find_seed(injective, start=trial * 50_000)
        pairs = {}
        for cls, slot in (
            (CmSimilaritySketch, 4),
            (WeightedSimilaritySketch, 8),
            (CountSimilaritySketch, 4),
        ):
            a = cls.from_budget(width * slot, 1, seed)
            b = cls.from_budget(width * slot, 1, seed)
            a.insert_many(stream_a)
            b.insert_many(stream_b)
            pairs[cls] = a.estimate_jaccard(b).raw
        worst_cm = max(worst_cm, abs(pairs[CmSimilaritySketch] - j_true))
        worst_weighted = max(worst_weighted, abs(pairs[WeightedSimilaritySketch] - j_true))
        if abs(pairs[CountSimilaritySketch] - j_true) <= 1e-12:
            count_always_differs = False
    ok = worst_cm <= 1e-12 and worst_weighted <= 1e-12 and count_always_differs
    _report(
        "02 no-collision-exactness",
        ok,
        f"max |cm-truth|={worst_cm:.2e}, max |weighted-truth|={worst_weighted:.2e}, "
        f"count estimator differs={count_always_differs}",
    )


def test_03_multiset_algebra_identity():
    _report("03 multiset-identity", *invariants.multiset_identity())


def test_04_heavy_subset_drift_bound():
    _report("04 epsilon-subset-drift", *invariants.epsilon_drift_bound())


def test_05_merge_matches_whole_stream_sketch():
    _report("05 merge-linearity", *invariants.merge_linearity())


def test_06_salsa_conservation_and_dense_twin():
    _report("06 salsa-conservation-and-twin", *invariants.salsa_conservation_and_twin())


def test_07_minhash_unbiased_at_half():
    common = np.arange(100, 130, dtype=np.uint64)
    set_a = np.concatenate([common, np.arange(1, 16, dtype=np.uint64)])
    set_b = np.concatenate([common, np.arange(16, 31, dtype=np.uint64)])
    j_true = ExactMultiset.from_array(set_a).jaccard(ExactMultiset.from_array(set_b))
    assert j_true == 0.5
    estimates = np.empty(1000)
    for seed in range(1000):
        a, b = MinHashSketch(k=128, master_seed=seed), MinHashSketch(k=128, master_seed=seed)
        a.insert_many(set_a)
        b.insert_many(set_b)
        estimates[seed] = a.estimate_jaccard(b).value
    mean = float(estimates.mean())
    _report(
        "07 minhash-unbiasedness",
        0.48 <= mean <= 0.52,
        f"mean over 1000 seeds = {mean:.4f}, target [0.48, 0.52]",
    )


def test_08_hll_cardinality_and_union_law():
    _report("08 hll-accuracy-and-union", *invariants.hll_union_law())


def test_09_maxloghash_tracks_truth():
    cases = {0.3: (60, 70), 0.6: (60, 20), 0.9: (90, 5)}
    details = []
    ok = True
    for j_target, (n_common, n_unique) in cases.items():
        common = np.arange(n_common, dtype=np.uint64)
        only_a = np.arange(1000, 1000 + n_unique, dtype=np.uint64)
        only_b = np.arange(2000, 2000 + n_unique, dtype=np.uint64)
        estimates = []
        for seed in range(50):
            a = MaxLogHashSketch(k=128, master_seed=seed)
            b = MaxLogHashSketch(k=128, master_seed=seed)
            a.insert_many(np.concatenate([common, only_a]))
            b.insert_many(np.concatenate([common, only_b]))
            estimates.append(a.estimate_jaccard(b).value)
        mean = float(np.mean(estimates))
        details.append(f"J={j_target}: mean={mean:.3f}")
        if abs(mean - j_target) > 0.05:
            ok = False
    _report("09 maxloghash-accuracy", ok, "; ".join(details) + " (tolerance 0.05)")


def test_10_occurrence_expansion_preserves_similarity():
    _report("10 adapter-bridge-identity", *invariants.adapter_bridge())


def test_11_memory_sweep_trends():
    memories = (10_240, 40_960, 204_800, 2_097_152)
    cfg = ExperimentConfig(
        algos=(Algo.CM, Algo.COUNT, Algo.WEIGHTED),
        memory_bytes=memories,
        rows=(1,),
        seeds=tuple(range(10)),
        n_items=400_000,
        n_distinct=15_000,
        alpha=0.6,
    )
    summary = summarize(run_experiment(cfg))
    cells = {(row["algo"], row["memory_bytes"]): row for row in summary}

    count_small = min(cells[("count", m)]["abs_re_mean"] for m in memories[:3])
    count_large = cells[("count", memories[-1])]["abs_re_mean"]
    count_ok = count_small < count_large

    mono_ok = True
    for algo in ("cm", "weighted"):
        seq = [cells[(algo, m)] for m in memories]
        for i in range(len(memories) - 1):
            tolerance = max(seq[i]["re_std"], seq[i + 1]["re_std"])
            if seq[i + 1]["abs_re_mean"] > seq[i]["abs_re_mean"] + tolerance:
                mono_ok = False

    dominance_ok = True
    for m in (memories[0], memories[-1]):
        bound = (
            min(cells[("cm", m)]["abs_re_mean"], cells[("count", m)]["abs_re_mean"])
            + 0.05
        )
        if cells[("weighted", m)]["abs_re_mean"] > bound:
            dominance_ok = False

    ok = count_ok and mono_ok and dominance_ok
    _report(
        "11 memory-sweep-trends",
        ok,
        f"count best-small={count_small:.3f} < count@2MB={count_large:.3f}: {count_ok}; "
        f"cm/weighted non-increasing within 1 std: {mono_ok}; "
        f"weighted within 0.05 of best at ends: {dominance_ok}",
    )


def test_12_insert_throughput_headroom():
    start = time.perf_counter()
    stream = zipf_stream(ZipfSpec(10_000_000, 200_000, 0.6, 99))
    fast = WeightedSimilaritySketch.from_budget(10_240, 1, 0)
    t0 = time.perf_counter()
    fast.insert_many(stream)
    fast_elapsed = time.perf_counter() - t0

    slow = MinHashSketch(k=128, master_seed=0)
    t0 = time.perf_counter()
    slow.insert_many(stream)
    slow_elapsed = time.perf_counter() - t0

    ratio = (10.0 / fast_elapsed) / (10.0 / slow_elapsed)
    total = time.perf_counter() - start
    ok = ratio >= 20 and total < 120
    _report(
        "12 insert-throughput",
        ok,
        f"weighted {10.0 / fast_elapsed:.1f} MIPS vs minhash "
        f"{10.0 / slow_elapsed:.2f} MIPS, ratio {ratio:.1f}x (need 20x), "
        f"{total:.0f}s total",
    )


def test_13_hash_statistical_quality():
    fam = HashFamily(master_seed=0, rows=1)
    items = np.arange(100_000, dtype=np.uint64)

    width = 256
    counts = np.bincount(fam.index_hash_many(items, 0, width), minlength=width)
    chi_p = scipy.stats.chisquare(counts).pvalue

    signs = fam.sign_hash_many(items, 0)
    sign_p = scipy.stats.binomtest(
        int(np.count_nonzero(signs == 1)), len(signs), 0.5
    ).pvalue

    ks_p = scipy.stats.kstest(fam.unit_hash_many(items, 0), "uniform").pvalue

    ok = chi_p > 0.01 and sign_p > 0.01 and ks_p > 0.01
    _report(
        "13 hash-quality",
        ok,
        f"chi2 p={chi_p:.3f}, sign-balance p={sign_p:.3f}, KS p={ks_p:.3f} "
        f"(all must exceed 0.01)",
    )
