"""Command line entry points.

Subcommands: gen-zipf writes synthetic stream files, estimate runs one
sweep cell, sweep runs a config file, selftest exercises the exact
invariants without any test framework. A sketch error, a bad value or
a file that cannot be read ends the command with one
``sketchsim: <message>`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from sketchsim.core import Algo, SketchError, SketchParams, derive_width
from sketchsim.baselines import HllSketch, MinHashSketch, expand_exact_ids
from sketchsim.datagen import ZipfSpec, random_split, split_seed, zipf_stream
from sketchsim.harness import (
    ADAPTERS,
    CSV_HEADER,
    STREAM_FORMATS,
    ExperimentConfig,
    parse_config,
    run_experiment,
    summarize,
)
from sketchsim.hashing import HashFamily
from sketchsim.oracle import ExactMultiset
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)


def _write_binary(path: str, stream: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(stream.astype("<u8").tobytes())


def _cmd_gen_zipf(args: argparse.Namespace) -> int:
    spec = ZipfSpec(args.n_items, args.n_distinct, args.alpha, args.seed)
    stream = zipf_stream(spec)
    if args.split_p is not None:
        if not (args.out_a and args.out_b):
            raise ValueError("gen-zipf: --split-p requires --out-a and --out-b")
        left, right = random_split(stream, args.split_p, split_seed(args.seed))
        _write_binary(args.out_a, left)
        _write_binary(args.out_b, right)
        print(f"wrote {len(left)} items to {args.out_a}, {len(right)} to {args.out_b}")
    else:
        if not args.out:
            raise ValueError("gen-zipf: --out required without --split-p")
        _write_binary(args.out, stream)
        print(f"wrote {len(stream)} items to {args.out}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        algos=(Algo(args.algo),),
        memory_bytes=(args.memory_bytes,),
        rows=(args.rows,),
        seeds=(args.seed,),
        n_items=args.n_items,
        n_distinct=args.n_distinct,
        alpha=args.alpha,
        split_p=args.split_p,
        stream_a=args.stream_a,
        stream_b=args.stream_b,
        stream_format=args.format,
        adapter=args.adapter,
    )
    results = run_experiment(cfg)
    print(CSV_HEADER)
    for r in results:
        print(r.to_csv_row())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if args.csv:
        cfg = dataclasses.replace(cfg, out_csv=args.csv)
    if args.jsonl:
        cfg = dataclasses.replace(cfg, out_jsonl=args.jsonl)
    results = run_experiment(cfg)
    for row in summarize(results):
        print(
            "algo={algo} adapter={adapter} mem={memory_bytes} rows={rows} "
            "n={n} re_mean={re_mean:+.4f} re_std={re_std:.4f} "
            "abs_re={abs_re_mean:.4f} mips={insert_mips_mean:.2f}".format(**row)
        )
    if cfg.out_csv:
        print(f"rows written to {cfg.out_csv}")
    return 0


# -- Selftest -----------------------------------------------------------


def _check_width_derivation() -> Optional[str]:
    cases = [((10240, 1, 4), 2560), ((10240, 2, 8), 640), ((65536, 4, 4), 4096)]
    for (budget, rows, slot), expected in cases:
        got = derive_width(budget, rows, slot)
        if got != expected:
            return f"derive_width{(budget, rows, slot)} = {got}, expected {expected}"
    return None


def _check_multiset_identity() -> Optional[str]:
    rng = np.random.default_rng(101)
    for _ in range(200):
        a = ExactMultiset.from_array(rng.integers(0, 40, size=300, dtype=np.uint64))
        b = ExactMultiset.from_array(rng.integers(0, 40, size=250, dtype=np.uint64))
        inter, union = a.intersect(b), a.union(b)
        if len(inter) + len(union) != len(a) + len(b):
            return "min+max multiplicity identity violated"
        if a.jaccard(a) != 1.0:
            return "self similarity is not 1"
        if a.jaccard(b) != b.jaccard(a):
            return "similarity is not symmetric"
    return None


def _check_epsilon_drift() -> Optional[str]:
    rng = np.random.default_rng(102)
    for eps in (0.01, 0.05, 0.1):
        for _ in range(20):
            spec = ZipfSpec(20_000, 2_000, 0.8, int(rng.integers(1 << 30)))
            left, right = random_split(zipf_stream(spec), 0.5, int(rng.integers(1 << 30)))
            a, b = ExactMultiset.from_array(left), ExactMultiset.from_array(right)
            drift = abs(a.jaccard(b) - a.epsilon_subset(eps).jaccard(b.epsilon_subset(eps)))
            if drift >= 2 * eps:
                return f"heavy-subset drift {drift:.4f} >= {2 * eps}"
    return None


def _check_cm_overestimates() -> Optional[str]:
    rng = np.random.default_rng(103)
    for trial in range(20):
        spec = ZipfSpec(10_000, 1_000, 0.6, trial)
        left, right = random_split(zipf_stream(spec), 0.5, trial + 1000)
        truth = ExactMultiset.from_array(left).jaccard(ExactMultiset.from_array(right))
        a = CmSimilaritySketch.from_budget(4096, 2, int(rng.integers(1 << 30)))
        b = CmSimilaritySketch.from_budget(4096, 2, a.params.master_seed)
        a.insert_many(left)
        b.insert_many(right)
        if a.estimate_jaccard(b).raw < truth:
            return f"trial {trial}: estimate below truth"
    return None


def _check_merge_linearity() -> Optional[str]:
    rng = np.random.default_rng(104)
    for cls in (CmSimilaritySketch, CountSimilaritySketch, WeightedSimilaritySketch):
        for trial in range(5):
            s1 = rng.integers(0, 500, size=3000, dtype=np.uint64)
            s2 = rng.integers(0, 500, size=2000, dtype=np.uint64)
            part_a = cls.from_budget(2048, 2, trial)
            part_b = cls.from_budget(2048, 2, trial)
            part_a.insert_many(s1)
            part_b.insert_many(s2)
            whole = cls.from_budget(2048, 2, trial)
            whole.insert_many(np.concatenate([s1, s2]))
            merged = part_a.merge(part_b)
            for field in cls.FIELDS:
                if not (getattr(merged, field) == getattr(whole, field)).all():
                    return f"{cls.__name__} merge differs from whole-stream sketch"
    return None


def _check_salsa() -> Optional[str]:
    stream = np.random.default_rng(105).integers(0, 200, size=30_000, dtype=np.uint64)
    narrow = SalsaSimilaritySketch.from_budget(64, 1, 7)
    narrow.insert_many(stream)
    if narrow.rows[0].total_cm() != len(stream):
        return "counter mass not conserved under merges"
    small = np.random.default_rng(106).integers(0, 3000, size=4000, dtype=np.uint64)
    other = np.random.default_rng(107).integers(0, 3000, size=4000, dtype=np.uint64)
    salsa_a = SalsaSimilaritySketch.from_budget(65536, 2, 9)
    salsa_b = SalsaSimilaritySketch.from_budget(65536, 2, 9)
    width = salsa_a.params.width
    dense_params = SketchParams(rows=2, width=width, master_seed=9, memory_bytes=width * 2 * 8)
    dense_a, dense_b = WeightedSimilaritySketch(dense_params), WeightedSimilaritySketch(dense_params)
    salsa_a.insert_many(small)
    salsa_b.insert_many(other)
    dense_a.insert_many(small)
    dense_b.insert_many(other)
    gap = abs(salsa_a.estimate_jaccard(salsa_b).raw - dense_a.estimate_jaccard(dense_b).raw)
    if gap > 1e-12:
        return f"no-overflow estimate differs from dense twin by {gap}"
    return None


def _check_adapter_bridge() -> Optional[str]:
    rng = np.random.default_rng(108)
    for _ in range(20):
        left = rng.integers(0, 60, size=800, dtype=np.uint64)
        right = rng.integers(0, 60, size=700, dtype=np.uint64)
        j_multi = ExactMultiset.from_array(left).jaccard(ExactMultiset.from_array(right))
        j_set = ExactMultiset.from_array(expand_exact_ids(left)).jaccard(
            ExactMultiset.from_array(expand_exact_ids(right))
        )
        if j_set != j_multi:
            return "occurrence expansion changed the similarity"
    return None


def _check_hll_union() -> Optional[str]:
    rng = np.random.default_rng(109)
    sa = rng.integers(0, 1 << 50, size=20_000, dtype=np.uint64)
    sb = rng.integers(0, 1 << 50, size=15_000, dtype=np.uint64)
    a, b = HllSketch(master_seed=1), HllSketch(master_seed=1)
    a.insert_many(sa)
    b.insert_many(sb)
    direct = HllSketch(master_seed=1)
    direct.insert_many(np.concatenate([sa, sb]))
    if not (a.union(b).registers == direct.registers).all():
        return "register-max union differs from union-stream sketch"
    return None


def _check_minhash_identity() -> Optional[str]:
    items = np.arange(100, dtype=np.uint64)
    a, b = MinHashSketch(k=128, master_seed=2), MinHashSketch(k=128, master_seed=2)
    a.insert_many(items)
    b.insert_many(items)
    if a.estimate_jaccard(b).value != 1.0:
        return "identical sets do not estimate 1"
    return None


def _check_unit_hash_range() -> Optional[str]:
    fam = HashFamily(master_seed=3, rows=1)
    items = np.arange(200_000, dtype=np.uint64)
    u = fam.unit_hash_many(items, 0)
    if not ((u > 0.0) & (u < 1.0)).all():
        return "unit hash left the open interval"
    ranks = fam.unit_rank_many(items, 0)
    low, high = 2.0 ** -(ranks + 1), 2.0 ** -ranks
    if not ((u > low) & (u <= high)).all():
        return "rank does not bracket the unit hash"
    return None


_SELFTESTS = [
    ("width-derivation", _check_width_derivation),
    ("multiset-identity", _check_multiset_identity),
    ("epsilon-drift-bound", _check_epsilon_drift),
    ("cm-over-estimation", _check_cm_overestimates),
    ("merge-linearity", _check_merge_linearity),
    ("salsa-conservation-and-twin", _check_salsa),
    ("adapter-bridge", _check_adapter_bridge),
    ("hll-union-law", _check_hll_union),
    ("minhash-identity", _check_minhash_identity),
    ("unit-hash-range", _check_unit_hash_range),
]


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _SELFTESTS:
        detail = check()
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failures += 1
    print(f"{len(_SELFTESTS) - failures}/{len(_SELFTESTS)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchsim", description="Streaming multiset similarity sketches."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-zipf", help="write a synthetic Zipf stream file")
    gen.add_argument("--n-items", type=int, required=True)
    gen.add_argument("--n-distinct", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path for the whole stream (binary)")
    gen.add_argument("--split-p", type=float, help="split into a pair instead")
    gen.add_argument("--out-a", help="first split output path")
    gen.add_argument("--out-b", help="second split output path")
    gen.set_defaults(func=_cmd_gen_zipf)

    est = sub.add_parser("estimate", help="run one similarity estimate")
    est.add_argument("--algo", choices=[a.value for a in Algo], required=True)
    est.add_argument("--memory-bytes", type=int, default=10240)
    est.add_argument("--rows", type=int, default=1)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--adapter", choices=ADAPTERS, default="exact")
    est.add_argument("--stream-a", help="first stream file")
    est.add_argument("--stream-b", help="second stream file")
    est.add_argument("--format", choices=STREAM_FORMATS, default="binary")
    est.add_argument("--n-items", type=int, default=100_000)
    est.add_argument("--n-distinct", type=int, default=20_000)
    est.add_argument("--alpha", type=float, default=0.6)
    est.add_argument("--split-p", type=float, default=0.5)
    est.set_defaults(func=_cmd_estimate)

    swp = sub.add_parser("sweep", help="run a sweep config file")
    swp.add_argument("--config", required=True)
    swp.add_argument("--csv", help="override the config's CSV output path")
    swp.add_argument("--jsonl", help="override the config's JSONL output path")
    swp.set_defaults(func=_cmd_sweep)

    self_p = sub.add_parser("selftest", help="run the deterministic invariant checks")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SketchError, ValueError, OSError) as exc:
        print(f"sketchsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
