"""Stream ingestion, evaluation metrics, and experiment sweeps.

The harness turns a configuration into rows of (truth, estimate, error,
throughput) measurements. Sketch estimates are deterministic per seed;
only the timing columns vary between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import time
from dataclasses import dataclass, fields
from typing import IO, List, Sequence, Tuple

import numpy as np

from sketchsim.baselines import (
    DotHashSketch,
    HllSketch,
    MaxLogHashSketch,
    MinHashSketch,
    expand_cm,  # unused here; perfbench/spans.py patches harness.expand_cm by name
    expand_cm_ids,
    expand_exact_ids,
)
from sketchsim.core import Algo, SketchError, SketchParams
from sketchsim.datagen import ZipfSpec, random_split, split_seed, zipf_stream
from sketchsim.oracle import multiset_jaccard
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)


class StreamFormatError(SketchError):
    """A stream file does not parse under the declared format."""


class ZeroTruthError(SketchError):
    """Relative error is undefined when the true similarity is zero."""


CSV_HEADER = (
    "algo,adapter,memory_bytes,rows,seed,alpha,"
    "j_true,j_est_raw,j_est,re,insert_mips,estimate_ms"
)

STREAM_FORMATS = ("text", "binary", "ipcsv")
ADAPTERS = ("exact", "cm")

_SKETCH_CLASSES = {
    Algo.CM: CmSimilaritySketch,
    Algo.COUNT: CountSimilaritySketch,
    Algo.WEIGHTED: WeightedSimilaritySketch,
    Algo.SALSA: SalsaSimilaritySketch,
    Algo.MINHASH: MinHashSketch,
    Algo.HLL: HllSketch,
    Algo.MAXLOGHASH: MaxLogHashSketch,
    Algo.DOTHASH: DotHashSketch,
}
# The set baselines, each with the config field that, when nonzero,
# overrides the size its class derives from the budget.
_SET_SIZE_FIELDS = {
    Algo.MINHASH: "minhash_k",
    Algo.HLL: "hll_m_bits",
    Algo.MAXLOGHASH: "maxloghash_k",
    Algo.DOTHASH: "dothash_d",
}


# -- Ingestion ----------------------------------------------------------


def token_id(token: str) -> int:
    """Stable 64-bit id for a text token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def read_stream(path: str, format: str = "text") -> np.ndarray:
    """Load a stream file as an array of 64-bit item ids.

    Formats: ``text`` is one UTF-8 token per line, each hashed to an id;
    ``binary`` is consecutive little-endian unsigned 64-bit integers,
    checked against the file size and then read into the result array;
    ``ipcsv`` is one ``src,dst`` pair per line, the two fields hashed
    together to a single id.
    """
    if format not in STREAM_FORMATS:
        raise ValueError(f"unknown stream format {format!r}")
    if format == "binary":
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            # A pipe has no size to check ahead, so it is read whole.
            data = None if stat.S_ISREG(st.st_mode) else fh.read()
            size = st.st_size if data is None else len(data)
            if size % 8:
                offset = size - size % 8
                raise StreamFormatError(
                    f"{path}: trailing {size % 8} bytes at offset {offset}"
                )
            if data is not None:
                return np.frombuffer(data, dtype="<u8").astype(np.uint64)
            # Read straight into the result; the cast copies only on a
            # big-endian host.
            items = np.fromfile(fh, dtype="<u8", count=size // 8)
        return items.astype(np.uint64, copy=False)

    ids: List[int] = []
    # Undecodable bytes become lone surrogates, which token_id cannot
    # encode; that is where a line is found not to be UTF-8.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                raise StreamFormatError(f"{path}: line {lineno}: empty token")
            if format == "ipcsv":
                parts = token.split(",")
                if len(parts) != 2:
                    raise StreamFormatError(
                        f"{path}: line {lineno}: expected 'src,dst', got {token!r}"
                    )
                token = parts[0].strip() + "," + parts[1].strip()
            try:
                ids.append(token_id(token))
            except UnicodeEncodeError:
                raise StreamFormatError(f"{path}: line {lineno}: not valid UTF-8") from None
    return np.array(ids, dtype=np.uint64)


# -- Metrics ------------------------------------------------------------


def compute_re(j_est: float, j_true: float) -> float:
    """Signed relative error (estimate - truth) / truth."""
    if j_true == 0:
        raise ZeroTruthError("relative error is undefined at zero true similarity")
    return (j_est - j_true) / j_true


def compute_mips(items: int, elapsed_seconds: float) -> float:
    """Million items per second."""
    if elapsed_seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return items / elapsed_seconds / 1e6


# -- Configuration ------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: the cross product of algos, memory budgets, rows, seeds.

    The dataset is either a synthetic Zipf pair (drawn and split fresh per
    seed) or a fixed file pair via stream_a/stream_b. Set-based baselines
    consume the adapter-expanded stream; grid sketches consume it raw.
    Baseline sizes derive from the memory budget unless the explicit
    override fields are nonzero.
    """

    algos: Tuple[Algo, ...]
    memory_bytes: Tuple[int, ...]
    rows: Tuple[int, ...]
    seeds: Tuple[int, ...]
    n_items: int = 100_000
    n_distinct: int = 20_000
    alpha: float = 0.6
    split_p: float = 0.5
    stream_a: str | None = None
    stream_b: str | None = None
    stream_format: str = "binary"
    adapter: str = "exact"
    adapter_memory_bytes: int = 1 << 16
    adapter_rows: int = 2
    minhash_k: int = 0
    maxloghash_k: int = 0
    dothash_d: int = 0
    hll_m_bits: int = 0
    out_csv: str | None = None
    out_jsonl: str | None = None

    def __post_init__(self) -> None:
        if not self.algos:
            raise ValueError("at least one algorithm required")
        for group, name in (
            (self.memory_bytes, "memory_bytes"),
            (self.rows, "rows"),
            (self.seeds, "seeds"),
        ):
            if not group:
                raise ValueError(f"at least one {name} value required")
        if self.adapter not in ADAPTERS:
            raise ValueError(f"unknown adapter {self.adapter!r}")
        if self.stream_format not in STREAM_FORMATS:
            raise ValueError(f"unknown stream format {self.stream_format!r}")
        if (self.stream_a is None) != (self.stream_b is None):
            raise ValueError("stream_a and stream_b must be given together")
        if self.stream_a is None and not 0.0 < self.split_p < 1.0:
            raise ValueError("split_p must lie strictly between 0 and 1")

    @property
    def from_files(self) -> bool:
        return self.stream_a is not None


@dataclass(frozen=True)
class RunResult:
    """One measured cell of a sweep."""

    algo: str
    adapter: str
    memory_bytes: int
    rows: int
    seed: int
    alpha: float
    j_true: float
    j_est_raw: float
    j_est: float
    re: float
    insert_mips: float
    estimate_ms: float

    def to_csv_row(self) -> str:
        alpha = "" if math.isnan(self.alpha) else f"{self.alpha:.12g}"
        return ",".join(
            [
                self.algo,
                self.adapter,
                str(self.memory_bytes),
                str(self.rows),
                str(self.seed),
                alpha,
                f"{self.j_true:.12g}",
                f"{self.j_est_raw:.12g}",
                f"{self.j_est:.12g}",
                f"{self.re:.12g}",
                f"{self.insert_mips:.12g}",
                f"{self.estimate_ms:.12g}",
            ]
        )

    def to_json(self) -> str:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        if math.isnan(self.alpha):
            record["alpha"] = None
        return json.dumps(record)


# -- Sweep execution ----------------------------------------------------


def _build_sketch(algo: Algo, memory_bytes: int, rows: int, seed: int, cfg: ExperimentConfig):
    cls = _SKETCH_CLASSES[algo]
    size = getattr(cfg, _SET_SIZE_FIELDS[algo]) if algo in _SET_SIZE_FIELDS else 0
    if size:
        return cls(size, master_seed=seed)
    return cls.from_budget(memory_bytes, rows, seed)


def _expand(stream: np.ndarray, cfg: ExperimentConfig, seed: int) -> np.ndarray:
    if cfg.adapter == "exact":
        return expand_exact_ids(stream)
    params = SketchParams.derive(
        cfg.adapter_memory_bytes, cfg.adapter_rows, 4, master_seed=seed
    )
    return expand_cm_ids(stream, params)


def _estimate(algo: Algo, a, b, set_union_hint: int):
    if algo is Algo.MAXLOGHASH:
        return a.estimate_jaccard(b, union_card_hint=max(2, set_union_hint))
    return a.estimate_jaccard(b)


def _run_cell(
    algo: Algo,
    memory_bytes: int,
    rows: int,
    seed: int,
    alpha: float,
    cfg: ExperimentConfig,
    raw_pair: Tuple[np.ndarray, np.ndarray],
    set_pair: Tuple[np.ndarray, np.ndarray] | None,
    j_true: float,
) -> RunResult:
    if algo in _SET_SIZE_FIELDS:
        assert set_pair is not None
        in_a, in_b = set_pair
        adapter = cfg.adapter
    else:
        in_a, in_b = raw_pair
        adapter = "raw"
    sketch_a = _build_sketch(algo, memory_bytes, rows, seed, cfg)
    sketch_b = _build_sketch(algo, memory_bytes, rows, seed, cfg)
    t0 = time.perf_counter()
    sketch_a.insert_many(in_a)
    sketch_b.insert_many(in_b)
    t1 = time.perf_counter()
    est = _estimate(algo, sketch_a, sketch_b, len(in_a) + len(in_b))
    t2 = time.perf_counter()
    return RunResult(
        algo=algo.value,
        adapter=adapter,
        memory_bytes=memory_bytes,
        rows=rows,
        seed=seed,
        alpha=alpha,
        j_true=j_true,
        j_est_raw=est.raw,
        j_est=est.value,
        re=compute_re(est.raw, j_true),
        insert_mips=compute_mips(len(in_a) + len(in_b), t1 - t0),
        estimate_ms=(t2 - t1) * 1000.0,
    )


def _dataset_for_seed(
    cfg: ExperimentConfig, seed: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    if cfg.from_files:
        return (
            read_stream(cfg.stream_a, cfg.stream_format),
            read_stream(cfg.stream_b, cfg.stream_format),
            float("nan"),
        )
    spec = ZipfSpec(cfg.n_items, cfg.n_distinct, cfg.alpha, seed)
    stream = zipf_stream(spec)
    a, b = random_split(stream, cfg.split_p, split_seed(seed))
    return a, b, cfg.alpha


def run_experiment(cfg: ExperimentConfig) -> List[RunResult]:
    """Run every cell of the sweep, flushing output rows as they land.

    Cells sharing a seed share one dataset pair and one oracle truth.
    Cells run sequentially so throughput numbers never reflect
    contention.
    """
    results: List[RunResult] = []
    csv_fh: IO[str] | None = open(cfg.out_csv, "w") if cfg.out_csv else None
    jsonl_fh: IO[str] | None = open(cfg.out_jsonl, "w") if cfg.out_jsonl else None
    if csv_fh:
        csv_fh.write(CSV_HEADER + "\n")
        csv_fh.flush()
    needs_sets = any(a in _SET_SIZE_FIELDS for a in cfg.algos)
    file_pair = _dataset_for_seed(cfg, cfg.seeds[0]) if cfg.from_files else None
    file_truth = None
    if file_pair is not None:
        file_truth = multiset_jaccard(file_pair[0], file_pair[1])
    try:
        for seed in cfg.seeds:
            if file_pair is not None:
                raw_a, raw_b, alpha = file_pair
                j_true = file_truth
            else:
                raw_a, raw_b, alpha = _dataset_for_seed(cfg, seed)
                j_true = multiset_jaccard(raw_a, raw_b)
            set_pair = None
            if needs_sets:
                set_pair = (_expand(raw_a, cfg, seed), _expand(raw_b, cfg, seed))
            for algo in cfg.algos:
                for memory in cfg.memory_bytes:
                    for rows in cfg.rows:
                        result = _run_cell(
                            algo,
                            memory,
                            rows,
                            seed,
                            alpha,
                            cfg,
                            (raw_a, raw_b),
                            set_pair,
                            j_true,
                        )
                        results.append(result)
                        if csv_fh:
                            csv_fh.write(result.to_csv_row() + "\n")
                            csv_fh.flush()
                        if jsonl_fh:
                            jsonl_fh.write(result.to_json() + "\n")
                            jsonl_fh.flush()
    finally:
        if csv_fh:
            csv_fh.close()
        if jsonl_fh:
            jsonl_fh.close()
    return results


def summarize(results: Sequence[RunResult]) -> List[dict]:
    """Aggregate results over seeds, one summary per sweep cell group."""
    groups: dict = {}
    for r in results:
        groups.setdefault((r.algo, r.adapter, r.memory_bytes, r.rows), []).append(r)
    out = []
    for (algo, adapter, memory, rows), cell in sorted(groups.items()):
        res = np.array([r.re for r in cell])
        out.append(
            {
                "algo": algo,
                "adapter": adapter,
                "memory_bytes": memory,
                "rows": rows,
                "n": len(cell),
                "re_mean": float(res.mean()),
                "re_std": float(res.std(ddof=1)) if len(cell) > 1 else 0.0,
                "abs_re_mean": float(np.abs(res).mean()),
                "insert_mips_mean": float(np.mean([r.insert_mips for r in cell])),
            }
        )
    return out


# -- Config files -------------------------------------------------------

_INT_LIST_KEYS = {"memory_bytes", "rows", "seeds"}
_INT_KEYS = {
    "n_items",
    "n_distinct",
    "adapter_memory_bytes",
    "adapter_rows",
    "minhash_k",
    "maxloghash_k",
    "dothash_d",
    "hll_m_bits",
}
_FLOAT_KEYS = {"alpha", "split_p"}
_STR_KEYS = {
    "adapter",
    "stream_a",
    "stream_b",
    "stream_format",
    "out_csv",
    "out_jsonl",
}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value sweep description.

    Lists are comma separated; blank lines and ``#`` comments are
    skipped. Keys mirror ExperimentConfig fields; ``algos`` takes
    algorithm names.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            try:
                if key == "algos":
                    values[key] = tuple(Algo(tok.strip()) for tok in raw.split(","))
                elif key in _INT_LIST_KEYS:
                    values[key] = tuple(int(tok) for tok in raw.split(","))
                elif key in _INT_KEYS:
                    values[key] = int(raw)
                elif key in _FLOAT_KEYS:
                    values[key] = float(raw)
                elif key in _STR_KEYS:
                    values[key] = raw
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    missing = {"algos", "memory_bytes", "rows", "seeds"} - set(values)
    if missing:
        raise ValueError(f"{path}: missing required keys: {sorted(missing)}")
    return ExperimentConfig(**values)
