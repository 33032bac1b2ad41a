"""Command line entry points.

Subcommands: gen-zipf writes synthetic stream files, estimate runs one
sweep cell, sweep runs a config file, selftest runs the checks of
:mod:`sketchsim.invariants` without any test framework. A sketch error,
a bad value or a file that cannot be read ends the command with one
``sketchsim: <message>`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from sketchsim.core import Algo, SketchError
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
from sketchsim.invariants import CHECKS


def _write_binary(path: str, stream: np.ndarray) -> None:
    with open(path, "wb") as fh:
        stream.astype("<u8", copy=False).tofile(fh)


def _cmd_gen_zipf(args: argparse.Namespace) -> int:
    spec = ZipfSpec(args.n_items, args.n_distinct, args.alpha, args.seed)
    split = args.split_p is not None
    if split and (args.out or not (args.out_a and args.out_b)):
        raise ValueError("gen-zipf: --split-p requires --out-a and --out-b and no --out")
    if not split and (args.out_a or args.out_b or not args.out):
        raise ValueError("gen-zipf: --out required without --split-p; --out-a/--out-b need it")
    stream = zipf_stream(spec)
    if split:
        left, right = random_split(stream, args.split_p, split_seed(args.seed))
        _write_binary(args.out_a, left)
        _write_binary(args.out_b, right)
        print(f"wrote {len(left)} items to {args.out_a}, {len(right)} to {args.out_b}")
    else:
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


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0
    for name, check in CHECKS.items():
        ok, detail = check()
        if ok:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failures += 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
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

    default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    est = sub.add_parser("estimate", help="run one similarity estimate")
    est.add_argument("--algo", choices=[a.value for a in Algo], required=True)
    est.add_argument("--memory-bytes", type=int, default=10240)
    est.add_argument("--rows", type=int, default=1)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--adapter", choices=ADAPTERS, default=default["adapter"])
    est.add_argument("--stream-a", help="first stream file")
    est.add_argument("--stream-b", help="second stream file")
    est.add_argument("--format", choices=STREAM_FORMATS, default=default["stream_format"])
    est.add_argument("--n-items", type=int, default=default["n_items"])
    est.add_argument("--n-distinct", type=int, default=default["n_distinct"])
    est.add_argument("--alpha", type=float, default=default["alpha"])
    est.add_argument("--split-p", type=float, default=default["split_p"])
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
