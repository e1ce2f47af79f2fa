import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contexture import (ExperimentConfig, load_config, load_dataset,
                        run_experiment, split_dataset, verify_theorems,
                        write_report)
from contexture.datasets import make_planted, make_waves
from contexture.harness import (default_context_grid, extend_encoder,
                                zscore_by_reference)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)]
                              + [",".join(map(str, r)) for r in rows]) + "\n")


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rows = [[i, i * 0.5, i % 3] for i in range(12)]
        write_csv(path, ["a", "b", "y"], rows)
        points, task = load_dataset(path, "y")
        assert points.points.shape == (12, 2)
        assert np.allclose(points.points[:, 1], np.arange(12) * 0.5)
        assert np.allclose(task.values, np.arange(12) % 3)

    def test_categorical_target_integer_coded(self, tmp_path):
        path = tmp_path / "cat.csv"
        rows = [[i, ["no", "yes"][i % 2]] for i in range(10)]
        write_csv(path, ["a", "cls"], rows)
        _, task = load_dataset(path, "cls")
        # sorted distinct values: no -> 0, yes -> 1
        assert np.allclose(task.values, np.arange(10) % 2)

    def test_mixed_numeric_formats(self, tmp_path):
        path = tmp_path / "mix.csv"
        rows = [[str(i), f"{i}.5" if i % 2 else str(i)] for i in range(10)]
        write_csv(path, ["a", "y"], rows)
        points, _ = load_dataset(path, "y")
        oracle = np.array([float(r[0]) for r in rows])
        assert np.array_equal(points.points[:, 0], oracle)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b"], [[1, 2]] * 10)
        with pytest.raises(ValueError, match="missing target column"):
            load_dataset(path, "zzz")

    def test_non_numeric_feature_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [[1, 2]] * 9 + [["oops", 2]]
        write_csv(path, ["a", "y"], rows)
        with pytest.raises(ValueError, match="non-numeric feature cell"):
            load_dataset(path, "y")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "few.csv"
        write_csv(path, ["a", "y"], [[1, 2]] * 9)
        with pytest.raises(ValueError, match="at least 10"):
            load_dataset(path, "y")

    def test_constant_feature_zscores_to_zero(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = [[5.0, i, i] for i in range(12)]
        write_csv(path, ["c", "a", "y"], rows)
        points, _ = load_dataset(path, "y")
        z = zscore_by_reference(points.points, np.arange(12))
        assert np.all(z[:, 0] == 0.0)
        assert abs(z[:, 1].std() - 1.0) < 1e-12


class TestSplitDataset:
    def test_small_example_sizes(self):
        pre, down, test = split_dataset(10, (0.7, 0.15, 0.15), seed=0)
        assert (len(pre), len(down), len(test)) == (7, 1, 2)

    def test_reference_sizes(self):
        pre, down, test = split_dataset(4177, (0.7, 0.15, 0.15), seed=0)
        assert (len(pre), len(down), len(test)) == (2923, 626, 628)

    def test_same_seed_same_split(self):
        a = split_dataset(100, (0.7, 0.15, 0.15), seed=5)
        b = split_dataset(100, (0.7, 0.15, 0.15), seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(5, (0.9, 0.05, 0.05), seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(20, 500), st.integers(0, 10 ** 6))
    def test_partition_properties(self, n, seed):
        pre, down, test = split_dataset(n, (0.7, 0.15, 0.15), seed=seed)
        union = np.concatenate([pre, down, test])
        assert len(union) == n
        assert len(np.unique(union)) == n


class TestExtendEncoder:
    def test_exact_on_training_rows(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 3))
        values = rng.standard_normal((10, 2))
        out = extend_encoder(pts, values, pts[3:6])
        assert np.array_equal(out, values[3:6])

    def test_new_rows_average_neighbors(self):
        pts = np.arange(6.0)[:, None]
        values = np.arange(6.0)[:, None] * 10
        out = extend_encoder(pts, values, np.array([[2.6]]), k=2)
        assert np.allclose(out, [[25.0]])  # neighbors 2 and 3


class TestConfig:
    def test_ini_round_trip(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\n"
            "dataset_path = data/waves.csv\n"
            "target_column = y\n"
            "split_fractions = 0.7, 0.15, 0.15\n"
            "context_grid = rbf:0.5, knn:5\n"
            "d0 = 16\n"
            "beta = 1.0\n"
            "ridge_grid = 1e-6, 1e-3, 0.1\n"
            "d_grid = 1, 2, 4\n"
            "seed = 3\n")
        cfg = load_config(cfg_path)
        assert cfg.dataset_path == "data/waves.csv"
        assert cfg.context_grid == ["rbf:0.5", "knn:5"]
        assert cfg.d_grid == [1, 2, 4]
        assert cfg.seed == 3

    def test_fractions_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ExperimentConfig(dataset_path="x", target_column="y",
                             context_grid=["rbf:1"], ridge_grid=[1e-3],
                             d_grid=[1], split_fractions=(0.5, 0.2, 0.2))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(dataset_path="x", target_column="y",
                             context_grid=[], ridge_grid=[1e-3], d_grid=[1])


class TestWriteReport:
    def test_json_round_trip(self, tmp_path):
        report = {"summary": {"pearson": 0.5}, "per_context": [
            {"descriptor": "rbf:1", "tau": 1.5, "d_star_metric": 2,
             "decay_rate": 0.3, "err_d": [[1, 0.9], [2, 0.7]],
             "err_d_star": 0.7}]}
        path = tmp_path / "report.json"
        write_report(report, path)
        assert json.loads(path.read_text())["summary"]["pearson"] == 0.5

    def test_csv_row_count(self, tmp_path):
        report = {"per_context": [
            {"descriptor": f"rbf:{g}", "tau": 1.5, "d_star_metric": 2,
             "decay_rate": 0.3, "err_d": [[1, 0.9]], "err_d_star": 0.9}
            for g in (0.1, 1.0, 10.0)]}
        path = tmp_path / "report.csv"
        write_report(report, path, fmt="csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4  # header + one row per context

    def test_concurrent_distinct_paths(self, tmp_path):
        import threading
        report = {"checks": [{"name": "c", "max_residual": 0.0,
                              "tolerance": 1.0, "passed": True}]}
        paths = [tmp_path / f"r{i}.json" for i in range(4)]
        threads = [threading.Thread(target=write_report, args=(report, p))
                   for p in paths]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for p in paths:
            assert json.loads(p.read_text())["checks"][0]["passed"] is True


class TestVerifyTheorems:
    def test_all_pass_and_deterministic(self):
        a = verify_theorems(n=12, m=10, trials=1, seed=0)
        assert a["all_passed"], [c["name"] for c in a["checks"]
                                 if not c["passed"]]
        b = verify_theorems(n=12, m=10, trials=1, seed=0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            verify_theorems(n=81, m=10, trials=1, seed=0)


class TestRunExperiment:
    def test_sweep_on_planted_dataset(self, tmp_path):
        path = tmp_path / "planted.csv"
        make_planted(path, n=120, seed=3)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="target",
            context_grid=["rbf:0.5", "rbf:1e-6", "knn:1"],
            ridge_grid=[1e-6, 1e-3], d_grid=[1, 2], d0=16, seed=0)
        report = run_experiment(cfg)
        assert report["summary"]["n_contexts"] == 3
        by_desc = {e["descriptor"]: e for e in report["per_context"]}
        assert by_desc["rbf:0.5"]["err_d_star"] == min(
            e["err_d_star"] for e in report["per_context"])

    def test_failures_recorded_not_fatal(self, tmp_path):
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5", "knn:5000"],  # second descriptor fails
            ridge_grid=[1e-3], d_grid=[1, 2], d0=8, seed=0)
        report = run_experiment(cfg)
        assert len(report["failures"]) == 1
        assert report["failures"][0]["descriptor"] == "knn:5000"
        assert report["failures"][0]["type"] == "ValueError"
        assert len(report["per_context"]) == 1

    def test_resource_errors_propagate(self, tmp_path, monkeypatch):
        import contexture.harness as harness_mod

        def out_of_memory(ctx, rank=None):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(harness_mod, "contexture_svd", out_of_memory)
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5"], ridge_grid=[1e-3], d_grid=[1],
            d0=4, seed=0)
        with pytest.raises(MemoryError):
            run_experiment(cfg)

    def test_determinism_bytes(self, tmp_path):
        path = tmp_path / "waves.csv"
        make_waves(path, n=80)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.3", "rbf:1.0", "knn:4"],
            ridge_grid=[1e-4, 1e-2], d_grid=[1, 2], d0=8, seed=1)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(run_experiment(cfg), out1)
        write_report(run_experiment(cfg), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_extension_rule_recorded(self, tmp_path):
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5"], ridge_grid=[1e-3], d_grid=[1],
            d0=4, seed=0)
        report = run_experiment(cfg)
        assert "extension_rule" in report


def test_default_context_grid_truncates():
    grid = default_context_grid(12, per_family=35)
    ks = [int(d.split(":")[1]) for d in grid if d.startswith("knn:")]
    assert max(ks) <= 11
    assert len([d for d in grid if d.startswith("rbf:")]) == 35
