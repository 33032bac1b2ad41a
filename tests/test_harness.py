import gc
import json
import math
import os
import re
import threading
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sketchsim import harness
from sketchsim.core import Algo
from sketchsim.harness import (
    CSV_HEADER,
    ExperimentConfig,
    StreamFormatError,
    ZeroTruthError,
    compute_mips,
    compute_re,
    parse_config,
    read_stream,
    run_experiment,
    summarize,
    token_id,
)


class TestReadStream:
    def test_text_tokens(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("a\nrose\nis\na\nrose\n")
        stream = read_stream(str(path), "text")
        assert len(stream) == 5
        assert len(set(stream.tolist())) == 3
        assert stream[0] == stream[3] == token_id("a")

    def test_empty_text_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert len(read_stream(str(path), "text")) == 0

    def test_blank_line_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\n\nb\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(str(path), "text")

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "items.bin"
        items = np.array([7, 1 << 63, 42], dtype="<u8")
        path.write_bytes(items.tobytes())
        assert read_stream(str(path), "binary").tolist() == [7, 1 << 63, 42]

    def test_binary_sixteen_bytes_is_two_items(self, tmp_path):
        path = tmp_path / "two.bin"
        path.write_bytes(b"\x01" * 16)
        assert len(read_stream(str(path), "binary")) == 2

    def test_binary_trailing_bytes_rejected_with_offset(self, tmp_path):
        path = tmp_path / "ragged.bin"
        path.write_bytes(b"\x00" * 19)
        with pytest.raises(StreamFormatError, match="offset 16"):
            read_stream(str(path), "binary")

    def test_binary_from_pipe(self, tmp_path):
        # A pipe reports no size, so it must be read to its end.
        path = tmp_path / "items.fifo"
        os.mkfifo(path)
        items = np.array([3, 1 << 63, 9], dtype="<u8")
        writer = threading.Thread(target=path.write_bytes, args=(items.tobytes(),), daemon=True)
        writer.start()
        try:
            assert read_stream(str(path), "binary").tolist() == [3, 1 << 63, 9]
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_ipcsv_pairs(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("1.2.3.4,5.6.7.8\n1.2.3.4, 5.6.7.8\n9.9.9.9,5.6.7.8\n")
        stream = read_stream(str(path), "ipcsv")
        # Field whitespace is insignificant; distinct pairs get distinct ids.
        assert stream[0] == stream[1]
        assert stream[0] != stream[2]

    def test_ipcsv_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.2.3.4,5.6.7.8\nnocomma\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(str(path), "ipcsv")

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_non_utf8_rejected_with_position(self, tmp_path, fmt):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n\xff\xfe,c\n")
        with pytest.raises(StreamFormatError, match=re.escape(f"{path}: line 2")):
            read_stream(str(path), fmt)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_stream(str(tmp_path / "x"), "yaml")


class TestMetrics:
    def test_relative_error_examples(self):
        assert compute_re(0.55, 0.5) == pytest.approx(0.10)
        assert compute_re(0.5, 0.5) == 0.0
        assert compute_re(0.25, 0.5) == pytest.approx(-0.5)

    def test_zero_truth_rejected(self):
        with pytest.raises(ZeroTruthError):
            compute_re(0.5, 0.0)

    def test_mips_examples(self):
        assert compute_mips(27_000_000, 3.0) == pytest.approx(9.0)
        assert compute_mips(1_000_000, 1.0) == pytest.approx(1.0)
        assert compute_mips(0, 1.0) == 0.0

    def test_nonpositive_elapsed_rejected(self):
        with pytest.raises(ValueError):
            compute_mips(100, 0.0)


def small_config(**overrides):
    base = dict(
        algos=(Algo.CM,),
        memory_bytes=(4096,),
        rows=(2,),
        seeds=(0, 1),
        n_items=5000,
        n_distinct=500,
        alpha=0.6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            small_config(algos=())
        with pytest.raises(ValueError):
            small_config(seeds=())

    def test_rejects_half_file_pair(self):
        with pytest.raises(ValueError):
            small_config(stream_a="only_one.bin")

    def test_rejects_unknown_adapter(self):
        with pytest.raises(ValueError):
            small_config(adapter="magic")

    def test_rejects_unknown_stream_format(self):
        with pytest.raises(ValueError, match="stream format"):
            small_config(stream_format="csv")

    def test_rejects_split_p_outside_the_open_interval(self):
        with pytest.raises(ValueError, match="split_p"):
            small_config(split_p=1.0)

    def test_rejects_a_negative_seed_for_a_synthetic_pair(self):
        # The seed draws the Zipf stream, which needs a nonnegative one. A
        # file pair only seeds the hashes, which take any seed mod 2**64.
        with pytest.raises(ValueError, match="seeds must be nonnegative, got -1"):
            small_config(seeds=(3, -1))
        assert small_config(seeds=(-1,), stream_a="a.bin", stream_b="b.bin").seeds == (-1,)


class TestRunExperiment:
    def test_cell_count_is_cross_product(self):
        cfg = small_config(
            algos=(Algo.CM, Algo.COUNT), memory_bytes=(2048, 4096), rows=(1, 2)
        )
        results = run_experiment(cfg)
        assert len(results) == 2 * 2 * 2 * 2

    def test_estimates_deterministic_across_runs(self):
        cfg = small_config(algos=(Algo.CM, Algo.WEIGHTED, Algo.MINHASH))
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        for a, b in zip(first, second):
            assert a.j_est_raw == b.j_est_raw
            assert a.j_true == b.j_true

    def test_truth_shared_across_cells_of_a_seed(self):
        cfg = small_config(algos=(Algo.CM, Algo.COUNT), memory_bytes=(2048, 8192))
        results = run_experiment(cfg)
        by_seed = {}
        for r in results:
            by_seed.setdefault(r.seed, set()).add(r.j_true)
        for truths in by_seed.values():
            assert len(truths) == 1

    def test_re_uses_raw_estimate(self):
        for r in run_experiment(small_config()):
            assert r.re == pytest.approx((r.j_est_raw - r.j_true) / r.j_true)

    def test_grid_algos_report_raw_adapter(self):
        results = run_experiment(small_config(algos=(Algo.SALSA,)))
        assert all(r.adapter == "raw" for r in results)

    def test_baselines_report_configured_adapter(self):
        results = run_experiment(small_config(algos=(Algo.MINHASH,), adapter="exact"))
        assert all(r.adapter == "exact" for r in results)

    def test_cm_adapter_runs(self):
        cfg = small_config(
            algos=(Algo.MINHASH,),
            adapter="cm",
            n_items=2000,
            n_distinct=200,
            seeds=(3,),
        )
        results = run_experiment(cfg)
        assert len(results) == 1
        assert results[0].adapter == "cm"

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config(out_csv=str(out), seeds=(0,))
        results = run_experiment(cfg)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(results)
        cells = lines[1].split(",")
        assert cells[0] == "cm"
        assert float(cells[6]) == pytest.approx(results[0].j_true)

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        cfg = small_config(out_jsonl=str(out), seeds=(0,))
        results = run_experiment(cfg)
        records = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert len(records) == len(results)
        assert records[0]["algo"] == "cm"
        assert records[0]["j_est_raw"] == results[0].j_est_raw

    def test_file_pair_dataset(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 50, size=2000, dtype=np.uint64)
        b = rng.integers(0, 50, size=2000, dtype=np.uint64)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        pa.write_bytes(a.astype("<u8").tobytes())
        pb.write_bytes(b.astype("<u8").tobytes())
        cfg = small_config(
            stream_a=str(pa), stream_b=str(pb), stream_format="binary", seeds=(0, 1)
        )
        results = run_experiment(cfg)
        assert len({r.j_true for r in results}) == 1
        assert all(math.isnan(r.alpha) for r in results)

    def test_alpha_echoed_for_synthetic(self):
        results = run_experiment(small_config(alpha=0.9))
        assert all(r.alpha == 0.9 for r in results)

    def test_stage_functions_resolved_at_call_time(self, tmp_path, monkeypatch):
        # The benchmark captures inputs and times stages by rebinding
        # these names on the harness module, so the harness must look
        # them up there on every call.
        calls = []

        def spy(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)

        for name in ("zipf_stream", "random_split", "read_stream"):
            spy(name)
        run_experiment(small_config(seeds=(0,)))
        assert calls == ["zipf_stream", "random_split"]
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        pa.write_bytes(np.arange(10, dtype="<u8").tobytes())
        pb.write_bytes(np.arange(5, 15, dtype="<u8").tobytes())
        run_experiment(small_config(stream_a=str(pa), stream_b=str(pb), seeds=(0, 1)))
        # A file pair is read once for the whole sweep, not once per seed.
        assert calls[2:] == ["read_stream", "read_stream"]

    def test_exact_expansion_of_a_file_pair_runs_once(self, tmp_path, monkeypatch):
        # The exact expansion of a shared file pair does not depend on the
        # seed, so a 3-seed sweep expands each side once, and every row
        # equals the row of a sweep over that seed alone.
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        rng = np.random.default_rng(4)
        for path in (pa, pb):
            lines = [f"10.0.0.{i % 7},10.0.1.{i % 3}" for i in rng.zipf(1.5, size=300)]
            path.write_text("\n".join(lines) + "\n")
        cfg = small_config(
            algos=(Algo.MINHASH,),
            seeds=(0, 1, 2),
            stream_a=str(pa),
            stream_b=str(pb),
            stream_format="ipcsv",
            adapter="exact",
        )
        calls = []
        expand_exact_ids = harness.expand_exact_ids

        def counted(stream):
            calls.append(len(stream))
            return expand_exact_ids(stream)

        monkeypatch.setattr(harness, "expand_exact_ids", counted)
        rows = run_experiment(cfg)
        assert calls == [300, 300]
        alone = [run_experiment(replace(cfg, seeds=(seed,)))[0] for seed in cfg.seeds]
        assert len(calls) == 2 + 2 * len(cfg.seeds)

        def untimed(r):
            return replace(r, insert_mips=0.0, estimate_ms=0.0).to_csv_row()

        assert [untimed(r) for r in rows] == [untimed(r) for r in alone]

    def test_cm_expansion_runs_per_seed(self, tmp_path, monkeypatch):
        # The cm adapter's params derive from the seed, so it is not shared.
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        pa.write_bytes(np.arange(10, dtype="<u8").tobytes())
        pb.write_bytes(np.arange(5, 15, dtype="<u8").tobytes())
        seeds = []
        expand_cm_ids = harness.expand_cm_ids

        def counted(stream, params):
            seeds.append(params.master_seed)
            return expand_cm_ids(stream, params)

        monkeypatch.setattr(harness, "expand_cm_ids", counted)
        cfg = small_config(
            algos=(Algo.MINHASH,), stream_a=str(pa), stream_b=str(pb), adapter="cm"
        )
        run_experiment(cfg)
        assert seeds == [0, 0, 1, 1]

    def test_whole_stream_freed_once_split(self, monkeypatch):
        # Only the split pair outlives the split: holding the whole
        # synthetic stream through the cells would add its size to the
        # sweep's peak memory.
        streams, alive_at_truth = [], []
        zipf_stream, multiset_jaccard = harness.zipf_stream, harness.multiset_jaccard

        def keep_ref(spec):
            stream = zipf_stream(spec)
            streams.append(weakref.ref(stream))
            return stream

        def check(a, b):
            alive_at_truth.append(streams[-1]() is not None)
            return multiset_jaccard(a, b)

        monkeypatch.setattr(harness, "zipf_stream", keep_ref)
        monkeypatch.setattr(harness, "multiset_jaccard", check)
        run_experiment(small_config(seeds=(0, 1)))
        assert alive_at_truth == [False, False]

    def test_outputs_closed_when_an_input_is_malformed(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        pa.write_text("1.2.3.4,5.6.7.8\nnocomma\n")
        pb.write_text("1.2.3.4,5.6.7.8\n")
        cfg = small_config(
            stream_a=str(pa),
            stream_b=str(pb),
            stream_format="ipcsv",
            out_csv=str(tmp_path / "o.csv"),
            out_jsonl=str(tmp_path / "o.jsonl"),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # Not pytest.raises: its traceback would keep a leaked handle alive.
            try:
                run_experiment(cfg)
            except StreamFormatError:
                pass
            else:
                pytest.fail("malformed ipcsv input was accepted")
            gc.collect()
        leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []


class TestBuildSketch:
    def test_set_sizes_from_budget(self):
        sizes = (128, 128, 128, 10)
        size_attrs = ((Algo.MINHASH, "k"), (Algo.MAXLOGHASH, "k"), (Algo.DOTHASH, "d"), (Algo.HLL, "m_bits"))
        for (algo, attr), size in zip(size_attrs, sizes):
            sketch = harness._build_sketch(algo, 1024, 1, 3)
            assert (getattr(sketch, attr), sketch.master_seed) == (size, 3)


class TestSummarize:
    def test_groups_over_seeds(self):
        cfg = small_config(algos=(Algo.CM, Algo.COUNT), seeds=(0, 1, 2))
        summary = summarize(run_experiment(cfg))
        assert len(summary) == 2
        for row in summary:
            assert row["n"] == 3
            assert row["re_std"] >= 0.0

    def test_single_seed_std_is_zero(self):
        summary = summarize(run_experiment(small_config(seeds=(0,))))
        assert summary[0]["re_std"] == 0.0


class TestDocumentedFormats:
    # The CSV header and row fields are a documented format; these pin
    # them exactly, apart from the two timing columns.
    def test_csv_header(self):
        assert CSV_HEADER == (
            "algo,adapter,memory_bytes,rows,seed,alpha,"
            "j_true,j_est_raw,j_est,re,insert_mips,estimate_ms"
        )

    def test_synthetic_row_fields(self):
        (r,) = run_experiment(small_config(seeds=(0,)))
        assert r.to_csv_row().split(",")[:10] == (
            "cm,raw,4096,2,0,0.6,0.64744645799,0.722356183259,0.722356183259,0.115700262692"
        ).split(",")
        assert json.loads(r.to_json())["alpha"] == 0.6

    def test_file_pair_rows_leave_alpha_empty(self, tmp_path):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        pa.write_text("x\ny\nz\nx\nx\n")
        pb.write_text("x\ny\nw\nw\n")
        cfg = ExperimentConfig(
            algos=(Algo.WEIGHTED, Algo.MINHASH),
            memory_bytes=(1024,),
            rows=(1,),
            seeds=(3,),
            stream_a=str(pa),
            stream_b=str(pb),
            stream_format="text",
            out_jsonl=str(tmp_path / "o.jsonl"),
        )
        rows = [r.to_csv_row().split(",")[:10] for r in run_experiment(cfg)]
        assert rows == [
            "weighted,raw,1024,1,3,,0.285714285714,0.285714285714,0.285714285714,0".split(","),
            "minhash,exact,1024,1,3,,0.285714285714,0.3359375,0.3359375,0.17578125".split(","),
        ]
        for line in (tmp_path / "o.jsonl").read_text().splitlines():
            assert '"alpha": null' in line

    def test_readme_names_every_config_key_and_the_header(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        keys, header = re.search(
            r"Recognized keys:(.*?)Output rows carry the header\s*`([^`]*)`", readme, re.S
        ).groups()
        # Parentheses hold notes and example values, not keys.
        named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
        assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))
        assert header == CSV_HEADER


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# memory sweep\n"
            "algos = cm, count, weighted\n"
            "memory_bytes = 10240, 40960\n"
            "rows = 1\n"
            "seeds = 0, 1, 2\n"
            "n_items = 50000\n"
            "n_distinct = 5000\n"
            "alpha = 0.6\n"
            "adapter = exact\n"
        )
        cfg = parse_config(str(path))
        assert cfg.algos == (Algo.CM, Algo.COUNT, Algo.WEIGHTED)
        assert cfg.memory_bytes == (10240, 40960)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.alpha == 0.6

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("algos = cm\nmemory_bytes = 1024\nrows = 1\nseeds = 0\nfrobnicate = 9\n")
        with pytest.raises(ValueError, match="line 5"):
            parse_config(str(path))

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("algos = cm\n")
        with pytest.raises(ValueError, match="missing"):
            parse_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "noeq.cfg"
        path.write_text("algos cm\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config(str(path))

    def test_repeated_key_rejected_at_its_second_line(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("algos = cm\nmemory_bytes = 1024\nrows = 1\nseeds = 0\nseeds = 1, 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: ") + ".*seeds"):
            parse_config(str(path))

    def test_inline_comments_dropped(self, tmp_path):
        path = tmp_path / "notes.cfg"
        path.write_text(
            "algos = cm, count  # grids only\n"
            "memory_bytes = 1024\nrows = 1\nseeds = 0\n"
            "n_items = 5000  # small\n"
            "out_csv = x.csv  # note\n"
        )
        cfg = parse_config(str(path))
        assert (cfg.algos, cfg.n_items, cfg.out_csv) == ((Algo.CM, Algo.COUNT), 5000, "x.csv")

    @pytest.mark.parametrize("line", ["rows = x", "alpha = high", "algos = cm, nope"])
    def test_unparsable_value_names_its_line(self, tmp_path, line):
        path = tmp_path / "value.cfg"
        path.write_text(f"memory_bytes = 1024\nseeds = 0\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ")):
            parse_config(str(path))
