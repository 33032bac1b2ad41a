import numpy as np
import pytest
from conftest import multiset_of
import reference as ref

from sketchsim.cli import main
from sketchsim.core import Algo
from sketchsim.datagen import ZipfSpec, rank_ids, random_split, zipf_stream
from sketchsim.harness import ExperimentConfig, run_experiment
from sketchsim.hashing import mix64


class TestZipfSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ZipfSpec(n_items=0, n_distinct=10, alpha=1.0, seed=0)
        with pytest.raises(ValueError):
            ZipfSpec(n_items=10, n_distinct=0, alpha=1.0, seed=0)
        with pytest.raises(ValueError):
            ZipfSpec(n_items=10, n_distinct=10, alpha=-0.5, seed=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            ZipfSpec(n_items=10, n_distinct=10, alpha=1.0, seed=-1)

    def test_zero_alpha_allowed(self):
        ZipfSpec(n_items=10, n_distinct=10, alpha=0.0, seed=0)

    def test_nan_alpha_rejected(self, tmp_path, capsys):
        # NaN passes an `alpha < 0` test and used to yield a stream of
        # nothing but rank 1.
        with pytest.raises(ValueError, match="alpha"):
            ZipfSpec(n_items=10, n_distinct=10, alpha=float("nan"), seed=0)
        out = tmp_path / "stream.bin"
        argv = ["gen-zipf", "--n-items", "10", "--n-distinct", "10", "--alpha", "nan", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("sketchsim: alpha")
        assert not out.exists()
        cfg = ExperimentConfig(
            algos=(Algo.CM,), memory_bytes=(1024,), rows=(1,), seeds=(0,),
            n_items=100, n_distinct=10, alpha=float("nan"),
        )
        with pytest.raises(ValueError, match="alpha"):
            run_experiment(cfg)


class TestZipfStream:
    def test_deterministic_per_seed(self):
        spec = ZipfSpec(n_items=5000, n_distinct=100, alpha=0.8, seed=42)
        assert (zipf_stream(spec) == zipf_stream(spec)).all()
        other = ZipfSpec(n_items=5000, n_distinct=100, alpha=0.8, seed=43)
        assert not (zipf_stream(spec) == zipf_stream(other)).all()

    def test_ids_come_from_rank_table(self):
        spec = ZipfSpec(n_items=2000, n_distinct=50, alpha=1.0, seed=1)
        table = set(rank_ids(50).tolist())
        assert set(zipf_stream(spec).tolist()) <= table

    def test_rank_id_is_mixed_rank(self):
        assert rank_ids(3).tolist() == [mix64(1), mix64(2), mix64(3)]

    def test_alpha_zero_is_uniform(self):
        spec = ZipfSpec(n_items=500_000, n_distinct=100, alpha=0.0, seed=2)
        _, counts = np.unique(zipf_stream(spec), return_counts=True)
        assert len(counts) == 100
        assert counts.max() / counts.min() < 1.15

    def test_rank_one_to_rank_two_ratio_at_unit_alpha(self):
        spec = ZipfSpec(n_items=1_000_000, n_distinct=1000, alpha=1.0, seed=3)
        stream = zipf_stream(spec)
        ids = rank_ids(1000)
        top = np.count_nonzero(stream == ids[0])
        second = np.count_nonzero(stream == ids[1])
        assert abs(top / second - 2.0) < 0.2

    def test_length_matches_spec(self):
        spec = ZipfSpec(n_items=777, n_distinct=10, alpha=0.5, seed=4)
        assert zipf_stream(spec).shape == (777,)


class TestRandomSplit:
    def test_rejects_degenerate_probability(self):
        stream = np.arange(10, dtype=np.uint64)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                random_split(stream, p, seed=0)

    def test_partition_lengths(self):
        stream = np.arange(1000, dtype=np.uint64)
        left, right = random_split(stream, 0.5, seed=5)
        assert len(left) + len(right) == 1000

    def test_half_split_length_concentrates(self):
        stream = np.arange(1_000_000, dtype=np.uint64)
        left, _ = random_split(stream, 0.5, seed=6)
        assert abs(len(left) - 500_000) <= 3 * 500

    def test_order_preserved(self):
        stream = np.arange(5000, dtype=np.uint64)
        left, right = random_split(stream, 0.3, seed=7)
        assert (np.diff(left.astype(np.int64)) > 0).all()
        assert (np.diff(right.astype(np.int64)) > 0).all()

    def test_multiset_sum_recomposes_input(self):
        spec = ZipfSpec(n_items=20_000, n_distinct=500, alpha=0.7, seed=8)
        stream = zipf_stream(spec)
        left, right = random_split(stream, 0.4, seed=9)
        assert ref.multiset_sum(multiset_of(left), multiset_of(right)) == multiset_of(stream)

    def test_near_one_probability_keeps_everything(self):
        stream = np.arange(1000, dtype=np.uint64)
        left, right = random_split(stream, 1 - 1e-12, seed=10)
        assert len(left) == 1000 and len(right) == 0

    def test_deterministic_per_seed(self):
        stream = np.arange(1000, dtype=np.uint64)
        a = random_split(stream, 0.5, seed=11)
        b = random_split(stream, 0.5, seed=11)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
