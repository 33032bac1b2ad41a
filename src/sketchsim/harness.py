"""Stream ingestion, evaluation metrics, and experiment sweeps.

The harness turns a configuration into rows of (truth, estimate, error,
throughput) measurements. Sketch estimates are deterministic per seed;
only the timing columns vary between runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import stat
import time
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from sketchsim.baselines import (
    DotHashSketch,
    HllSketch,
    MaxLogHashSketch,
    MinHashSketch,
    expand_cm,  # noqa: F401 (perfbench/spans.py patches harness.expand_cm by name)
    expand_cm_ids,
    expand_exact_ids,
)
from sketchsim.core import Algo, SketchError, SketchParams, derive_width
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


STREAM_FORMATS = ("text", "binary", "ipcsv")
ADAPTERS = ("exact", "cm")

# The set baselines, which see the adapter-expanded streams.
_SET_SKETCHES = (MinHashSketch, HllSketch, MaxLogHashSketch, DotHashSketch)
_SET_ALGOS = {cls.ALGO for cls in _SET_SKETCHES}
_SKETCH_CLASSES = {
    cls.ALGO: cls
    for cls in (
        CmSimilaritySketch,
        CountSimilaritySketch,
        WeightedSimilaritySketch,
        SalsaSimilaritySketch,
        *_SET_SKETCHES,
    )
}
# The fixed count-min table of the cm adapter, outside every sketch's budget.
ADAPTER_MEMORY_BYTES = 1 << 16
ADAPTER_ROWS = 2


# -- Ingestion ----------------------------------------------------------


# Lines per read block of a text or ipcsv stream. A read's memo of distinct
# lines is cleared at a block boundary once it holds more than four blocks.
READ_BLOCK = 1 << 13


# An empty 8-byte blake2b state: a copy is cheaper to start than a new hash.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def token_digest(token: str) -> bytes:
    """The 8-byte blake2b digest of a text token; its little-endian value is the id."""
    h = _BLAKE2B_8.copy()
    h.update(token.encode("utf-8"))
    return h.digest()


def token_id(token: str) -> int:
    """Stable 64-bit id for a text token."""
    return int.from_bytes(token_digest(token), "little")


def read_stream(path: str, format: str = "text") -> np.ndarray:
    r"""Load a stream file as an array of 64-bit item ids.

    Formats: ``text`` is one UTF-8 token per line, each hashed to an id;
    ``binary`` is consecutive little-endian unsigned 64-bit integers,
    checked against the file size and then read into the result array;
    ``ipcsv`` is one ``src,dst`` pair per line, the two fields hashed
    together to a single id.

    Lines are read with universal newlines, so ``\r\n`` and a lone
    ``\r`` end a line as ``\n`` does, and they are split on ``"\n"``
    only. Each line is stripped of surrounding whitespace, and so is each
    ipcsv field. An empty token, an ipcsv line without exactly two
    non-empty fields, or bytes that are not UTF-8 raise
    :class:`StreamFormatError` naming the first such line. The lines are
    taken in blocks of :data:`READ_BLOCK`. One memo per call maps each
    distinct line to its row of an id table, so a line is checked and
    hashed once per read. A block's lines not yet in the memo are each
    checked, encoded and digested in one step, in the order they first
    appear, and the first that fails raises there; their digests then
    fill the table in one batch, and the block's ids are taken from the
    table by row. The memo is cleared at a block boundary once it holds
    more than four blocks of lines, which bounds what a read holds
    besides its result.
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

    ipcsv = format == "ipcsv"
    memo = _LineRows()
    table = np.empty(0, np.uint64)  # the id of each memo row
    out = np.empty(0, np.uint64)
    n = 0  # lines before the current block
    # Undecodable bytes become lone surrogates, which token_digest cannot
    # encode; that is where a line is found not to be UTF-8.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := list(itertools.islice(fh, READ_BLOCK)):
            if len(memo) > 4 * READ_BLOCK:
                memo = _LineRows()
            rows = np.fromiter(map(memo.__getitem__, block), np.intp, len(block))
            if memo.new:
                digests = []
                for line in memo.new:
                    try:
                        digests.append(token_digest(_line_token(line, ipcsv)))
                    except (StreamFormatError, UnicodeEncodeError) as exc:
                        # A failing line is new in its block, and new lines
                        # are checked in the order they are first seen, so
                        # the first failing one is the file's first.
                        why = "not valid UTF-8" if isinstance(exc, UnicodeEncodeError) else exc
                        lineno = n + block.index(line) + 1
                        raise StreamFormatError(f"{path}: line {lineno}: {why}") from None
                table.resize(len(memo), refcheck=False)
                table[-len(digests) :] = np.frombuffer(b"".join(digests), "<u8")
                memo.new = []
            if n + len(block) > out.size:
                out.resize(max(n + len(block), out.size + out.size // 4), refcheck=False)
            # Every row is in range; "clip" spares take a checked copy.
            np.take(table, rows, out=out[n : n + len(block)], mode="clip")
            n += len(block)
    out.resize(n, refcheck=False)
    return out


class _LineRows(dict):
    """Maps a raw line to its row of the read's id table. A line not yet
    seen takes the next row and is queued in ``new`` to be checked and
    hashed."""

    def __init__(self) -> None:
        super().__init__()
        self.new: List[str] = []

    def __missing__(self, line: str) -> int:
        row = self[line] = len(self)
        self.new.append(line)
        return row


def _line_token(line: str, ipcsv: bool) -> str:
    """The token of a raw line, or StreamFormatError if it has none."""
    token = line.strip()
    if not token:
        raise StreamFormatError("empty token")
    if ipcsv:
        src, comma, dst = token.partition(",")
        if not comma or "," in dst:
            raise StreamFormatError(f"expected 'src,dst', got {token!r}")
        src, dst = src.strip(), dst.strip()
        if not (src and dst):
            raise StreamFormatError(f"empty field in {token!r}")
        token = src + "," + dst
    return token


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
    Every sketch, baselines included, is sized from the memory budget.
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
        if self.stream_a is None and min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {min(self.seeds)}")

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

    def _record(self) -> dict:
        """Each field by name, in order; file data has no alpha, which is None."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        if math.isnan(self.alpha):
            record["alpha"] = None
        return record

    def to_csv_row(self) -> str:
        """One CSV row under :data:`CSV_HEADER`: floats as ``.12g``, None as empty."""
        return ",".join(
            "" if v is None else f"{v:.12g}" if isinstance(v, float) else str(v)
            for v in self._record().values()
        )

    def to_json(self) -> str:
        return json.dumps(self._record())


CSV_HEADER = ",".join(f.name for f in fields(RunResult))


# -- Sweep execution ----------------------------------------------------


def _build_sketch(algo: Algo, memory_bytes: int, rows: int, seed: int):
    return _SKETCH_CLASSES[algo].from_budget(memory_bytes, rows, seed)


def _expand(stream: np.ndarray, cfg: ExperimentConfig, seed: int) -> np.ndarray:
    if cfg.adapter == "exact":
        return expand_exact_ids(stream)
    width = derive_width(ADAPTER_MEMORY_BYTES, ADAPTER_ROWS, CmSimilaritySketch.SLOT_BYTES)
    return expand_cm_ids(stream, SketchParams(rows=ADAPTER_ROWS, width=width, master_seed=seed))


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
    if algo in _SET_ALGOS:
        assert set_pair is not None
        in_a, in_b = set_pair
        adapter = cfg.adapter
    else:
        in_a, in_b = raw_pair
        adapter = "raw"
    sketch_a = _build_sketch(algo, memory_bytes, rows, seed)
    sketch_b = _build_sketch(algo, memory_bytes, rows, seed)
    t0 = time.perf_counter()
    sketch_a.insert_many(in_a)
    sketch_b.insert_many(in_b)
    t1 = time.perf_counter()
    est = sketch_a.estimate_jaccard(sketch_b)
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


def _datasets(cfg: ExperimentConfig) -> Iterator[Tuple[int, np.ndarray, np.ndarray, float, float]]:
    """``(seed, a, b, alpha, j_true)`` for each seed of the sweep.

    A file pair is read and scored once and shared by every seed; its
    alpha is NaN. A synthetic pair is drawn and split fresh per seed.
    """
    if cfg.from_files:
        a = read_stream(cfg.stream_a, cfg.stream_format)
        b = read_stream(cfg.stream_b, cfg.stream_format)
        j_true = multiset_jaccard(a, b)
        for seed in cfg.seeds:
            yield seed, a, b, float("nan"), j_true
        return
    for seed in cfg.seeds:
        # The whole stream is left unnamed, so it is freed once split
        # rather than held while the generator is suspended.
        spec = ZipfSpec(cfg.n_items, cfg.n_distinct, cfg.alpha, seed)
        a, b = random_split(zipf_stream(spec), cfg.split_p, split_seed(seed))
        yield seed, a, b, cfg.alpha, multiset_jaccard(a, b)


def run_experiment(cfg: ExperimentConfig) -> List[RunResult]:
    """Run every cell of the sweep, flushing output rows as they land.

    Cells sharing a seed share one dataset pair and one oracle truth.
    Cells run sequentially so throughput numbers never reflect
    contention. The output files are opened, and truncated to their
    header, when the first row lands, so a sweep that fails before then
    leaves them as they were; once open, they are closed however the
    sweep ends.
    """
    results: List[RunResult] = []
    needs_sets = any(a in _SET_ALGOS for a in cfg.algos)
    # The exact expansion of a file pair is the same for every seed; the
    # cm adapter's params derive from the seed.
    shared_sets = cfg.from_files and cfg.adapter == "exact"
    set_pair = None
    with contextlib.ExitStack() as stack:
        sinks = None
        for seed, a, b, alpha, j_true in _datasets(cfg):
            if needs_sets and not (shared_sets and set_pair):
                set_pair = (_expand(a, cfg, seed), _expand(b, cfg, seed))
            for algo, memory, rows in itertools.product(cfg.algos, cfg.memory_bytes, cfg.rows):
                result = _run_cell(algo, memory, rows, seed, alpha, cfg, (a, b), set_pair, j_true)
                results.append(result)
                if sinks is None:
                    sinks = _open_sinks(cfg, stack)
                for fh, to_line in sinks:
                    fh.write(to_line(result) + "\n")
                    fh.flush()
    return results


def _open_sinks(cfg: ExperimentConfig, stack: contextlib.ExitStack) -> list:
    """``(file, to_line)`` for each output the sweep names, each opened on
    ``stack`` and holding its header."""
    sinks = []
    for path, header, to_line in (
        (cfg.out_csv, CSV_HEADER + "\n", RunResult.to_csv_row),
        (cfg.out_jsonl, "", RunResult.to_json),
    ):
        if path:
            fh = stack.enter_context(open(path, "w"))
            fh.write(header)
            fh.flush()
            sinks.append((fh, to_line))
    return sinks


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


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value sweep description.

    ``#`` starts a comment that runs to the end of its line, so no value
    holds a ``#``; blank lines are skipped. Each key is an
    ExperimentConfig field, given at most once, and is parsed by the
    field's type: a tuple is a comma list of its element type (``algos``
    takes algorithm names), ``int`` and ``float`` fields convert, and the
    rest are strings. The fields without a default are required.
    """
    types = typing.get_type_hints(ExperimentConfig)
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.partition("#")[0].strip()
            if not stripped:
                continue
            key, eq, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            try:
                if not eq:
                    raise ValueError("expected key = value")
                if key not in types:
                    raise ValueError(f"unknown key {key!r}")
                if key in values:
                    raise ValueError(f"repeated key {key!r}")
                values[key] = _parse_value(types[key], raw)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    missing = required - set(values)
    if missing:
        raise ValueError(f"{path}: missing required keys: {sorted(missing)}")
    return ExperimentConfig(**values)


def _parse_value(kind, raw: str):
    """The value of a field of type ``kind`` from its config text."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(tok.strip()) for tok in raw.split(","))
    return kind(raw) if kind in (int, float) else raw
