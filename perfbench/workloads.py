"""The benchmark's workloads: how each one turns a seed into a sweep config.

Every workload is one ``ExperimentConfig`` per seed. ``build`` makes the
workload's inputs (for ``trace_ipcsv``, a CSV file pair written with the
benchmark's own numpy code) and returns the config the harness receives.
``scale`` divides every input size; the timed runs use 1 and the warm-up
and self-tests use larger divisors so they touch the same code paths on
small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sketchsim.core import Algo
from sketchsim.harness import ExperimentConfig

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path, int], ExperimentConfig]


def _grid_zipf(seed: int, workdir: Path, scale: int) -> ExperimentConfig:
    return ExperimentConfig(
        algos=(Algo.CM, Algo.COUNT, Algo.WEIGHTED),
        memory_bytes=(10 * KB, 2 * MB),
        rows=(1, 4),
        seeds=(seed,),
        n_items=2_000_000 // scale,
        n_distinct=200_000 // scale,
        alpha=0.6,
        split_p=0.5,
    )


def _sets_zipf(seed: int, workdir: Path, scale: int) -> ExperimentConfig:
    # 1 KB gives k = 128 for MinHash and MaxLogHash and m_bits = 10 for HLL.
    return ExperimentConfig(
        algos=(Algo.MINHASH, Algo.HLL, Algo.MAXLOGHASH),
        memory_bytes=(1 * KB,),
        rows=(1,),
        seeds=(seed,),
        n_items=1_000_000 // scale,
        n_distinct=100_000 // scale,
        alpha=0.6,
        adapter="exact",
    )


def _address(values: np.ndarray) -> list[str]:
    octets = [(values >> np.uint64(shift)) & np.uint64(0xFF) for shift in (24, 16, 8, 0)]
    return [f"{a}.{b}.{c}.{d}" for a, b, c, d in zip(*(o.tolist() for o in octets))]


def write_ipcsv_pair(
    seed: int, a_path: Path, b_path: Path, n_lines: int, n_pairs: int, alpha: float = 1.0
) -> None:
    """Write two ``src,dst`` files whose lines are Zipf draws over one pair set."""
    rng = np.random.default_rng([seed, 0x1BC5])
    src = _address(rng.integers(1 << 24, 1 << 32, size=n_pairs, dtype=np.uint64))
    dst = _address(rng.integers(1 << 24, 1 << 32, size=n_pairs, dtype=np.uint64))
    pairs = np.array([f"{s},{d}" for s, d in zip(src, dst)], dtype=object)
    cdf = np.cumsum(np.arange(1, n_pairs + 1, dtype=np.float64) ** -alpha)
    cdf /= cdf[-1]
    for path in (a_path, b_path):
        ranks = np.searchsorted(cdf, rng.random(n_lines), side="right")
        path.write_text("\n".join(pairs[ranks]) + "\n", encoding="utf-8")


def _trace_ipcsv(seed: int, workdir: Path, scale: int) -> ExperimentConfig:
    a_path, b_path = workdir / "a.csv", workdir / "b.csv"
    write_ipcsv_pair(seed, a_path, b_path, 100_000 // scale, 50_000 // scale)
    # The harness crosses every algo with every budget and row count, so
    # HLL runs four cells; all four share one expand_cm pass per side.
    return ExperimentConfig(
        algos=(Algo.SALSA, Algo.WEIGHTED, Algo.HLL),
        memory_bytes=(1 * KB, 10 * KB),
        rows=(1, 2),
        seeds=(seed,),
        stream_a=str(a_path),
        stream_b=str(b_path),
        stream_format="ipcsv",
        adapter="cm",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_zipf",
            "hashing and counter accumulation dominate; rows=4 multiplies them, 2 MB grids expose the estimators",
            _grid_zipf,
        ),
        Workload(
            "sets_zipf",
            "k=128 MinHash and MaxLogHash hash passes and exact expansion dominate; grids, SALSA and ingest idle",
            _sets_zipf,
        ),
        Workload(
            "trace_ipcsv",
            "per-arrival Python paths dominate: ipcsv line parsing, SALSA buddy merges and the expand_cm loop",
            _trace_ipcsv,
        ),
    )
}
