"""Jobs, output checks and metrics of the sketchsim benchmark.

A job is one ``run_experiment`` call for one seed: stream synthesis or
file ingest, oracle truth, occurrence expansion, every cell's two
inserts and every estimate. Jobs run back to back in one process, a
closed loop with one client. Every job of a run uses the run's seed, so
all of them must produce the same estimates.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List

import numpy as np

from sketchsim import harness
from sketchsim.harness import ExperimentConfig, RunResult, run_experiment
from spans import LAYER_UNITS, ROOT, Tracer
from workloads import Workload

DEFAULT_SEED = 1
# Held out from tuning: a later speed claim must also hold on this seed.
HELDOUT_SEED = 97
SETUP_REPEATS = 3
# The set-up warm-up runs the workload's own code paths on inputs this
# many times smaller, so lazy initialisation is paid before timing.
WARMUP_SCALE = 50

E2E_UNITS: Dict[str, str] = {
    "items_per_s": "items/s",
    "insert_items_per_s": "items/s",
    "job_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
OVERHEAD = "trace.overhead_frac"


@dataclass
class Job:
    wall_s: float
    arrivals: int = 0
    insert_s: float = 0.0
    results: List[RunResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    cells_failed: int = 0
    digest: str = ""
    layers: Dict[str, float] | None = None
    traced: bool = False


@dataclass
class Run:
    setup_s: float
    warmups: List[Job]
    jobs: List[Job]
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.warmups) + len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.warmups + self.jobs if j.problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def unique_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Multiset Jaccard from sorted ``np.unique`` counts, without the oracle."""
    va, ca = np.unique(a, return_counts=True)
    vb, cb = np.unique(b, return_counts=True)
    _, ia, ib = np.intersect1d(va, vb, assume_unique=True, return_indices=True)
    inter = int(np.minimum(ca[ia], cb[ib]).sum())
    union = int(ca.sum()) + int(cb.sum()) - inter
    return inter / union


def estimate_digest(results: List[RunResult]) -> str:
    """Hash of every cell's identity and exact raw estimate."""
    h = hashlib.sha256()
    for r in results:
        line = f"{r.algo},{r.adapter},{r.memory_bytes},{r.rows},{r.seed},{float(r.j_est_raw).hex()}\n"
        h.update(line.encode())
    return h.hexdigest()


@contextlib.contextmanager
def captured_inputs(store: list) -> Iterator[None]:
    """Keep the stream pair the harness reads or splits, for the truth check."""
    read_stream, random_split = harness.read_stream, harness.random_split

    def capture_read(path, format="text"):
        out = read_stream(path, format)
        store.append(out)
        return out

    def capture_split(stream, p, seed):
        pair = random_split(stream, p, seed)
        store.extend(pair)
        return pair

    harness.read_stream, harness.random_split = capture_read, capture_split
    try:
        yield
    finally:
        harness.read_stream, harness.random_split = read_stream, random_split


def cell_problems(r: RunResult, truth: float) -> List[str]:
    where = f"{r.algo}/{r.memory_bytes}B/rows={r.rows}"
    problems = []
    if r.j_true != truth:
        problems.append(f"{where}: j_true {r.j_true!r} != recomputed {truth!r}")
    if not math.isfinite(r.j_est_raw):
        problems.append(f"{where}: raw estimate {r.j_est_raw!r} is not finite")
    elif r.algo == "cm" and r.j_est_raw < r.j_true:
        problems.append(f"{where}: CM raw {r.j_est_raw!r} below truth {r.j_true!r}")
    return problems


def run_job(cfg: ExperimentConfig, trace: bool) -> Job:
    """Run and check one job; a raised exception becomes a failed job."""
    inputs: list = []
    tracer = Tracer() if trace else None
    with captured_inputs(inputs), (tracer.installed() if tracer else contextlib.nullcontext()):
        root = tracer.span(ROOT) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                results = run_experiment(cfg)
        except Exception:  # the loop goes on; the failure is counted
            return Job(time.perf_counter() - t0, problems=[traceback.format_exc()], traced=trace)
        wall = time.perf_counter() - t0
    job = Job(wall, results=results, digest=estimate_digest(results), traced=trace)
    if len(inputs) != 2:
        job.problems.append(f"harness produced {len(inputs)} input streams, expected 2")
        return job
    per_cell = len(inputs[0]) + len(inputs[1])
    job.arrivals = per_cell * len(results)
    job.insert_s = sum(per_cell / (r.insert_mips * 1e6) for r in results)
    expected = len(cfg.algos) * len(cfg.memory_bytes) * len(cfg.rows) * len(cfg.seeds)
    if len(results) != expected:
        job.problems.append(f"{len(results)} cells, expected {expected}")
    truth = unique_jaccard(*inputs)
    for r in results:
        found = cell_problems(r, truth)
        job.cells_failed += bool(found)
        job.problems += found
    if tracer:
        job.problems += tracer.salsa_mass_problems()
        job.layers = tracer.layer_metrics(job.arrivals, len(results), job.cells_failed)
    return job


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    expected_digest: str | None = None,
    scale: int = 1,
) -> Run:
    """Set up ``SETUP_REPEATS`` times, then run jobs for ``seconds``.

    With ``trace`` the jobs alternate between untraced and traced, in
    alternating order, so the two kinds see the same machine state.
    """
    warmdir = workdir / "warmup"
    warmdir.mkdir(parents=True, exist_ok=True)
    setup, warmups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg = workload.build(seed, workdir, scale)
        warmups.append(run_job(workload.build(seed, warmdir, scale * WARMUP_SCALE), False))
        setup.append(time.perf_counter() - t0)

    jobs: List[Job] = []
    start = time.perf_counter()
    while True:
        order = [False, True] if len(jobs) % 4 == 0 else [True, False]
        batch = [run_job(cfg, t) for t in (order if trace else [False])]
        if not jobs:
            # Later jobs reuse freed heap, and how far the heap then grows
            # depends on allocator and huge-page placement, not on the job.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jobs += batch
        step = sum(j.wall_s for j in batch)
        if time.perf_counter() - start + step > seconds:
            break

    reference = expected_digest or next((j.digest for j in jobs if j.digest), "")
    for j in jobs:
        if j.digest and j.digest != reference:
            j.problems.append(f"estimate digest {j.digest} != {reference}")
    return Run(statistics.median(setup), warmups, jobs, peak_rss_mb)


def e2e_metrics(run: Run, import_s: float) -> Dict[str, float]:
    """End-to-end metrics over the run's jobs; all of them are untraced."""
    jobs = [j for j in run.jobs if j.results]
    wall = sum(j.wall_s for j in jobs)
    arrivals = sum(j.arrivals for j in jobs)
    return {
        "items_per_s": arrivals / wall,
        "insert_items_per_s": arrivals / sum(j.insert_s for j in jobs),
        "job_s_p50": statistics.median(j.wall_s for j in jobs),
        "setup_s": import_s + run.setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_metrics(run: Run) -> Dict[str, float]:
    """Median over traced jobs of each per-layer metric, plus tracing overhead."""
    traced = [j.layers for j in run.jobs if j.layers is not None]
    out = {name: statistics.median(t[name] for t in traced) for name in LAYER_UNITS}
    plain = [j.wall_s for j in run.jobs if j.results and not j.traced]
    with_trace = [j.wall_s for j in run.jobs if j.results and j.traced]
    out[OVERHEAD] = statistics.median(with_trace) / statistics.median(plain) - 1
    return out


def abs_re_mean(run: Run) -> float:
    """Mean |relative error| over the cells of one job (every job agrees)."""
    results = next(j.results for j in run.jobs if j.results)
    return statistics.fmean(abs(r.re) for r in results)
