import json

import numpy as np
import pytest
from conftest import traced_peak

from sketchsim import invariants
from sketchsim.cli import _write_binary, main
from sketchsim.core import Algo
from sketchsim.harness import CSV_HEADER, ExperimentConfig, _datasets, read_stream


class TestGenZipf:
    def test_writes_binary_stream(self, tmp_path, capsys):
        out = tmp_path / "stream.bin"
        rc = main(
            [
                "gen-zipf",
                "--n-items", "1000",
                "--n-distinct", "100",
                "--alpha", "0.8",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        stream = read_stream(str(out), "binary")
        assert len(stream) == 1000
        assert "wrote 1000 items" in capsys.readouterr().out

    def test_split_pair(self, tmp_path):
        out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
        rc = main(
            [
                "gen-zipf",
                "--n-items", "2000",
                "--n-distinct", "100",
                "--seed", "1",
                "--split-p", "0.5",
                "--out-a", str(out_a),
                "--out-b", str(out_b),
            ]
        )
        assert rc == 0
        a = read_stream(str(out_a), "binary")
        b = read_stream(str(out_b), "binary")
        assert len(a) + len(b) == 2000

    @pytest.mark.parametrize("seed", [0, 1, 97])
    def test_split_pair_equals_the_harness_pair(self, tmp_path, seed):
        out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
        argv = ["gen-zipf", "--n-items", "3000", "--n-distinct", "200", "--alpha", "0.6"]
        argv += ["--seed", str(seed), "--split-p", "0.3"]
        argv += ["--out-a", str(out_a), "--out-b", str(out_b)]
        assert main(argv) == 0
        cfg = ExperimentConfig(
            algos=(Algo.CM,), memory_bytes=(1024,), rows=(1,), seeds=(seed,),
            n_items=3000, n_distinct=200, alpha=0.6, split_p=0.3,
        )
        ((_, a, b, _, _),) = _datasets(cfg)
        assert read_stream(str(out_a), "binary").tolist() == a.tolist()
        assert read_stream(str(out_b), "binary").tolist() == b.tolist()

    def test_split_without_paths_fails(self, tmp_path):
        rc = main(
            [
                "gen-zipf",
                "--n-items", "10",
                "--n-distinct", "5",
                "--split-p", "0.5",
            ]
        )
        assert rc == 2

    def test_deterministic(self, tmp_path):
        paths = [tmp_path / "s1.bin", tmp_path / "s2.bin"]
        for p in paths:
            main(
                [
                    "gen-zipf",
                    "--n-items", "500",
                    "--n-distinct", "50",
                    "--seed", "9",
                    "--out", str(p),
                ]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_binary_write_copies_nothing(self, tmp_path):
        path = tmp_path / "s.bin"
        stream = np.arange(1 << 20, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        peak, _ = traced_peak(_write_binary, str(path), stream)
        assert path.read_bytes() == stream.astype("<u8").tobytes()
        assert peak < stream.nbytes // 8, f"peak {peak} bytes for {stream.nbytes} bytes written"


class TestEstimate:
    def test_synthetic_cell_prints_csv(self, capsys):
        rc = main(
            [
                "estimate",
                "--algo", "cm",
                "--memory-bytes", "4096",
                "--rows", "2",
                "--n-items", "5000",
                "--n-distinct", "500",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "cm"
        assert 0.0 <= float(cells[8]) <= 1.0

    def test_file_cell(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        for name in ("a", "b"):
            stream = rng.integers(0, 40, size=1000, dtype="<u8")
            (tmp_path / f"{name}.bin").write_bytes(stream.tobytes())
        rc = main(
            [
                "estimate",
                "--algo", "weighted",
                "--memory-bytes", "8192",
                "--stream-a", str(tmp_path / "a.bin"),
                "--stream-b", str(tmp_path / "b.bin"),
                "--format", "binary",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].split(",")[0] == "weighted"


class TestSweep:
    def test_config_sweep_with_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "algos = cm, count\n"
            "memory_bytes = 2048, 4096\n"
            "rows = 1\n"
            "seeds = 0, 1\n"
            "n_items = 3000\n"
            "n_distinct = 300\n"
        )
        out, out_jsonl = tmp_path / "out.csv", tmp_path / "out.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--csv", str(out), "--jsonl", str(out_jsonl)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "algo=cm" in printed and "algo=count" in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        records = [json.loads(line) for line in out_jsonl.read_text().splitlines()]
        assert [r["algo"] for r in records] == [line.split(",")[0] for line in lines[1:]]


SELFTEST_NAMES = [
    "width-derivation",
    "multiset-identity",
    "epsilon-drift-bound",
    "cm-over-estimation",
    "merge-linearity",
    "salsa-conservation-and-twin",
    "adapter-bridge",
    "hll-union-law",
    "minhash-identity",
    "unit-hash-range",
]


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        rc = main(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines == [f"PASS {name}" for name in SELFTEST_NAMES] + ["10/10 checks passed"]

    def test_a_failing_check_is_reported(self, monkeypatch, capsys):
        for name in SELFTEST_NAMES:
            monkeypatch.setitem(invariants.CHECKS, name, lambda: (True, "stubbed"))
        monkeypatch.setitem(invariants.CHECKS, "merge-linearity", lambda: (False, "3 mismatches"))
        rc = main(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines[4] == "FAIL merge-linearity: 3 mismatches"
        assert lines[-1] == "9/10 checks passed"


class TestErrors:
    """Expected failures print one ``sketchsim: <message>`` line and exit 2."""

    def run_failing(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("sketchsim: ") and err.count("\n") == 1
        return err

    def test_unparsable_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("algos = cm\nmemory_bytes = 1024\nrows = x\nseeds = 0\n")
        err = self.run_failing(["sweep", "--config", str(cfg)], capsys)
        assert f"{cfg}: line 3: " in err

    def test_estimate_refuses_a_negative_seed(self, capsys):
        err = self.run_failing(["estimate", "--algo", "cm", "--seed", "-1"], capsys)
        assert "seed" in err

    def test_sweep_with_a_negative_seed_writes_no_row(self, tmp_path, capsys):
        # Refused before the sweep starts, not after seed 3's row is out.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("algos = cm\nmemory_bytes = 1024\nrows = 1\nseeds = 3, -1\nn_items = 500\n")
        out = tmp_path / "out.csv"
        err = self.run_failing(["sweep", "--config", str(cfg), "--csv", str(out)], capsys)
        assert "seed" in err
        assert not out.exists() or out.read_text().splitlines()[1:] == []

    def test_malformed_ipcsv_file(self, tmp_path, capsys):
        good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
        good.write_text("10.0.0.1,10.0.0.2\n")
        bad.write_text("10.0.0.1,10.0.0.2\n10.0.0.1\n")
        argv = ["estimate", "--algo", "cm", "--format", "ipcsv"]
        argv += ["--stream-a", str(good), "--stream-b", str(bad)]
        err = self.run_failing(argv, capsys)
        assert f"{bad}: line 2: expected 'src,dst'" in err

    def test_gen_zipf_without_an_output_path(self, capsys):
        err = self.run_failing(["gen-zipf", "--n-items", "10", "--n-distinct", "5"], capsys)
        assert "--out required without --split-p" in err

    def test_gen_zipf_refuses_out_with_split(self, tmp_path, capsys):
        argv = ["gen-zipf", "--n-items", "10", "--n-distinct", "5", "--split-p", "0.5"]
        argv += ["--out", str(tmp_path / "s.bin")]
        argv += ["--out-a", str(tmp_path / "a.bin"), "--out-b", str(tmp_path / "b.bin")]
        err = self.run_failing(argv, capsys)
        assert "gen-zipf: --split-p requires --out-a and --out-b and no --out" in err
        assert not list(tmp_path.iterdir())

    def test_gen_zipf_refuses_split_paths_without_split(self, tmp_path, capsys):
        argv = ["gen-zipf", "--n-items", "10", "--n-distinct", "5", "--out", str(tmp_path / "s.bin")]
        argv += ["--out-a", str(tmp_path / "a.bin")]
        err = self.run_failing(argv, capsys)
        assert "--out-a/--out-b need it" in err
        assert not list(tmp_path.iterdir())

    def test_budget_too_small(self, capsys):
        argv = ["estimate", "--algo", "cm", "--memory-bytes", "2", "--n-items", "100", "--n-distinct", "10"]
        err = self.run_failing(argv, capsys)
        assert "2 bytes cannot fit" in err

    def test_missing_stream_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.bin"
        argv = ["estimate", "--algo", "cm", "--stream-a", str(missing), "--stream-b", str(missing)]
        err = self.run_failing(argv, capsys)
        assert str(missing) in err
