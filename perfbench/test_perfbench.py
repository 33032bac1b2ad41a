"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402
from sketchsim import harness  # noqa: E402
from sketchsim.hashing import HashFamily  # noqa: E402
from sketchsim.oracle import ExactMultiset  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

READ_STREAM = harness.read_stream
# Input-size divisor that keeps every workload to a fraction of a second.
SCALE = 100


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.E2E_UNITS
    assert layers == {**spans.LAYER_UNITS, bench.OVERHEAD: "1"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    for name, workload in WORKLOADS.items():
        untraced = bench.measure(workload, 3, 0.0, False, tmp_path / name, scale=SCALE)
        traced = bench.measure(workload, 3, 0.0, True, tmp_path / name, scale=SCALE)
        assert untraced.failed == traced.failed == 0, name
        assert set(bench.e2e_metrics(untraced, 0.0)) == set(e2e)
        assert set(bench.layer_metrics(traced)) == set(layers)


def test_failed_frac_counts_a_malformed_ipcsv_job(tmp_path):
    cfg = WORKLOADS["trace_ipcsv"].build(5, tmp_path, SCALE)
    good = bench.run_job(cfg, False)
    (tmp_path / "a.csv").write_text("10.0.0.1,10.0.0.2\n10.0.0.3\n")
    bad = bench.run_job(cfg, True)
    assert good.problems == []
    assert "StreamFormatError" in bad.problems[0]
    run = bench.Run(0.0, [], [good, bad])
    assert (run.attempted, run.failed, run.failed_frac) == (2, 1, 0.5)
    # The tracer came off even though the job raised inside it.
    assert harness.read_stream is READ_STREAM


def test_self_time_of_nested_spans():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),  # overlaps a: the union is covered once
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped to it
    ]
    assert self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_parents_and_restores_wrapped_names():
    tracer = Tracer()
    before = HashFamily.__dict__["index_hash_many"], ExactMultiset.__dict__["from_array"]
    with tracer.installed(), tracer.span("root"):
        HashFamily(1, 1).index_hash_many(np.arange(10, dtype=np.uint64), 0, 8)
        ExactMultiset.from_array(np.arange(5, dtype=np.uint64))
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("root", -1),
        ("hashing.many", 0),
        ("oracle.from_array", 0),
    ]
    assert tracer.counts["hashing.many.items"] == 10
    assert tracer.counts["oracle.support"] == 5
    assert (HashFamily.__dict__["index_hash_many"], ExactMultiset.__dict__["from_array"]) == before


def test_unique_jaccard_equals_the_oracle_exactly():
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 500, 4000, dtype=np.uint64), rng.integers(0, 700, 3000, dtype=np.uint64)
    assert bench.unique_jaccard(a, b) == ExactMultiset.from_array(a).jaccard(ExactMultiset.from_array(b))


def test_cell_checks_flag_bad_estimates():
    def cell(algo, j_true, raw):
        return harness.RunResult(algo, "raw", 1024, 1, 0, 0.6, j_true, raw, raw, 0.0, 1.0, 1.0)

    assert bench.cell_problems(cell("cm", 0.5, 0.6), 0.5) == []
    assert "below truth" in bench.cell_problems(cell("cm", 0.5, 0.4), 0.5)[0]
    assert "not finite" in bench.cell_problems(cell("count", 0.5, float("nan")), 0.5)[0]
    assert "recomputed" in bench.cell_problems(cell("weighted", 0.5, 0.5), 0.25)[0]


def test_a_digest_other_than_the_recorded_one_fails_every_job(tmp_path):
    run = bench.measure(WORKLOADS["sets_zipf"], 3, 0.0, False, tmp_path, "0" * 64, scale=SCALE)
    assert run.jobs and run.failed == len(run.jobs)
    assert "estimate digest" in run.jobs[0].problems[0]
