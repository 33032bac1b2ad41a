"""In-memory span tracing for the benchmark's traced run.

A ``Tracer`` wraps the public names each package module exposes, at the
place its callers look them up: the bindings in ``sketchsim.harness``
for datagen, ingest and the adapters, and the methods on the sketch,
oracle and ``HashFamily`` classes. Each wrapped call records a span
(name, start, end, parent) and the counts of work done at that boundary.
Spans stay in memory until the run ends. Nothing is wrapped outside
``with tracer.installed():``, so an untraced job calls the package as is.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from sketchsim import harness
from sketchsim.baselines import HllSketch, MaxLogHashSketch, MinHashSketch
from sketchsim.core import CounterOverflowError, RowSaturatedError
from sketchsim.hashing import HashFamily
from sketchsim.oracle import ExactMultiset
from sketchsim.salsa import SalsaSimilaritySketch
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

ROOT = "harness.run_experiment"

GRID = {"cm": CmSimilaritySketch, "count": CountSimilaritySketch, "weighted": WeightedSimilaritySketch}
SETS = {"minhash": MinHashSketch, "maxloghash": MaxLogHashSketch, "hll": HllSketch}
VECTOR_HASHES = ("index_hash_many", "sign_hash_many", "unit_hash_many", "unit_rank_many", "bit_hash_many")
SCALAR_HASHES = ("index_hash", "sign_hash", "unit_hash", "unit_rank", "bit_hash")

# Per-layer metric name -> unit, in the order they are printed.
LAYER_UNITS: Dict[str, str] = {
    "datagen.zipf_stream.s": "s",
    "datagen.random_split.s": "s",
    "oracle.from_array.s": "s",
    "oracle.jaccard.s": "s",
    "oracle.support": "count",
    "hashing.many.s": "s",
    "hashing.many.calls": "count",
    "hashing.items_per_arrival": "1",
    "hashing.scalar.calls": "count",
    **{f"sketches.{k}.insert.s": "s" for k in GRID},
    "sketches.insert.self_s": "s",
    **{f"sketches.{k}.estimate.s": "s" for k in GRID},
    "sketches.overflow_errors": "count",
    "salsa.insert.s": "s",
    "salsa.insert.self_s": "s",
    "salsa.estimate.s": "s",
    "salsa.merges": "count",
    "salsa.max_level": "count",
    "salsa.saturated": "count",
    "baselines.expand_exact.s": "s",
    "baselines.expand_cm.s": "s",
    **{f"baselines.{k}.insert.s": "s" for k in SETS},
    "baselines.insert.self_s": "s",
    "baselines.estimate.s": "s",
    "harness.read_stream.s": "s",
    "harness.read_stream.bytes": "bytes",
    "harness.read_stream.items": "count",
    "harness.self_s": "s",
    "harness.cells": "count",
    "harness.cells_failed": "count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


def covered_length(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Spans and counts for one job."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.salsa_sketches: Dict[int, SalsaSimilaritySketch] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    # -- wrappers ------------------------------------------------------

    def _timed(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except (CounterOverflowError, RowSaturatedError) as exc:
                self.counts[type(exc).__name__] += 1
                raise
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _timed_generator(self, fn: Callable, name: str) -> Callable:
        # The span covers the whole consumption, not just the call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                yield from fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn: Callable, key: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_vector_hash(self, args, result) -> None:
        self.counts["hashing.many.items"] += len(args[1])

    def _on_read_stream(self, args, result) -> None:
        self.counts["harness.read_stream.bytes"] += os.path.getsize(args[0])
        self.counts["harness.read_stream.items"] += len(result)

    def _on_from_array(self, args, result) -> None:
        self.counts["oracle.support"] += result.support_size

    def _on_salsa_insert(self, args, result) -> None:
        self.salsa_sketches[id(args[0])] = args[0]

    def _patches(self):
        """(owner, attribute, make_wrapper) for every traced public name."""
        t = self._timed
        yield harness, "zipf_stream", lambda f: t(f, "datagen.zipf_stream")
        yield harness, "random_split", lambda f: t(f, "datagen.random_split")
        yield harness, "read_stream", lambda f: t(f, "harness.read_stream", self._on_read_stream)
        yield harness, "expand_exact_ids", lambda f: t(f, "baselines.expand_exact")
        yield harness, "expand_cm", lambda f: self._timed_generator(f, "baselines.expand_cm")
        yield ExactMultiset, "from_array", lambda f: t(f, "oracle.from_array", self._on_from_array)
        yield ExactMultiset, "jaccard", lambda f: t(f, "oracle.jaccard")
        for attr in VECTOR_HASHES:
            yield HashFamily, attr, lambda f: t(f, "hashing.many", self._on_vector_hash)
        for attr in SCALAR_HASHES:
            yield HashFamily, attr, lambda f: self._counted(f, "hashing.scalar.calls")
        for key, cls in GRID.items():
            yield cls, "insert_many", lambda f, k=key: t(f, f"sketches.{k}.insert")
            yield cls, "estimate_jaccard", lambda f, k=key: t(f, f"sketches.{k}.estimate")
        yield SalsaSimilaritySketch, "insert_many", lambda f: t(f, "salsa.insert", self._on_salsa_insert)
        yield SalsaSimilaritySketch, "estimate_jaccard", lambda f: t(f, "salsa.estimate")
        for key, cls in SETS.items():
            yield cls, "insert_many", lambda f, k=key: t(f, f"baselines.{k}.insert")
            yield cls, "estimate_jaccard", lambda f: t(f, "baselines.estimate")

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name for the duration of the block."""
        undo = []
        try:
            for owner, attr, make in self._patches():
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    replacement = classmethod(make(original.__func__))
                else:
                    replacement = make(original)
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self, arrivals: int, cells: int, cells_failed: int) -> Dict[str, float]:
        """Every per-layer metric for this job, except the tracing overhead."""
        total: Counter = Counter()
        own: Counter = Counter()
        for s, self_s in zip(self.spans, self_times(self.spans)):
            total[s.name] += s.end - s.start
            own[s.name] += self_s
        rows = [row for sketch in self.salsa_sketches.values() for row in sketch.rows]
        m = {name: float(total[name[:-2]]) for name in LAYER_UNITS if name.endswith(".s")}
        m.update(
            {
                "oracle.support": self.counts["oracle.support"],
                "hashing.many.calls": sum(s.name == "hashing.many" for s in self.spans),
                "hashing.items_per_arrival": self.counts["hashing.many.items"] / arrivals,
                "hashing.scalar.calls": self.counts["hashing.scalar.calls"],
                "sketches.insert.self_s": sum(own[f"sketches.{k}.insert"] for k in GRID),
                "sketches.overflow_errors": self.counts["CounterOverflowError"],
                "salsa.insert.self_s": own["salsa.insert"],
                "salsa.merges": sum(r.width - sum(1 for _ in r.extents()) for r in rows),
                "salsa.max_level": max((int(r.level_of.max()) for r in rows), default=0),
                "salsa.saturated": self.counts["RowSaturatedError"],
                "baselines.insert.self_s": sum(own[f"baselines.{k}.insert"] for k in SETS),
                "harness.read_stream.bytes": self.counts["harness.read_stream.bytes"],
                "harness.read_stream.items": self.counts["harness.read_stream.items"],
                "harness.self_s": own[ROOT],
                "harness.cells": cells,
                "harness.cells_failed": cells_failed,
            }
        )
        return m

    def salsa_mass_problems(self) -> List[str]:
        """Rows whose counted mass differs from the arrivals inserted."""
        return [
            f"salsa row {i} holds {row.total_cm()} arrivals, expected {sketch.total_inserted}"
            for sketch in self.salsa_sketches.values()
            for i, row in enumerate(sketch.rows)
            if row.total_cm() != sketch.total_inserted
        ]
