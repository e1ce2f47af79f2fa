import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from contexture import (ExperimentConfig, NumericalError, contexture_svd,
                        load_config, load_dataset, run_experiment,
                        split_dataset, verify_theorems, write_report)
from contexture.datasets import make_planted, make_rings, make_waves
from contexture import harness
from contexture.context import build_from_descriptor
from contexture.harness import (EXTENSION_K, EXTENSION_RULE,
                                default_context_grid, extend_encoder,
                                zscore_by_reference)
from contexture.evaluation import ProbeResult
from contexture.verify import random_dense_context, random_graph_context


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
        points, task = load_dataset(path, "cls")
        # sorted distinct values: no -> 0, yes -> 1
        assert np.allclose(task.values, np.arange(10) % 2)
        assert points.labels is task.values  # the rows carry the coded target

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

    def test_parse_holds_no_string_table(self, tmp_path):
        # cells become floats row by row: 2000 rows of 5 features and a
        # target peak well below the ~1.2 MB a table of every row's
        # string cells takes
        path = make_waves(tmp_path / "waves.csv", n=2000)
        tracemalloc.start()
        try:
            points, _ = load_dataset(path, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.points.shape == (2000, 5)
        assert peak <= 0.8e6

    def test_constant_feature_zscores_to_zero(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = [[5.0, i, i] for i in range(12)]
        write_csv(path, ["c", "a", "y"], rows)
        points, _ = load_dataset(path, "y")
        z = zscore_by_reference(points.points, np.arange(12))
        assert np.all(z[:, 0] == 0.0)
        assert abs(z[:, 1].std() - 1.0) < 1e-12


class TestZscoreByReference:
    # on every column whose reference rows differ, the helper gives the bits
    # of the plain (x - mean) / std of those rows
    finite = st.floats(-1e6, 1e6, allow_nan=False)

    def test_constant_columns_map_to_exactly_zero(self):
        # 300 copies of 0.1 (or 0.3) do not average to 0.1 (0.3), so the
        # std of each constant column is a roundoff residue above 0
        rng = np.random.default_rng(0)
        table = np.column_stack([np.full(300, 0.1), np.full(300, 0.3),
                                 rng.standard_normal(300)])
        assert np.all(table.std(axis=0)[:2] > 0)
        z = zscore_by_reference(table, np.arange(300))
        assert np.all(z[:, :2] == 0.0)
        assert abs(z[:, 2].std() - 1.0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=2, max_size=60), st.data())
    def test_target_column_is_bitwise_the_inline_form(self, values, data):
        y = np.array(values)
        idx = np.array(data.draw(st.lists(st.integers(0, y.size - 1),
                                          min_size=2, unique=True)))
        ref = y[idx]
        assume(ref.max() > ref.min() and ref.std() > 1e-300)
        z = zscore_by_reference(y[:, None], idx)[:, 0]
        assert np.array_equal(z, (y - ref.mean()) / ref.std())

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(2, 40), st.integers(1, 5)),
                      elements=finite))
    def test_whole_table_is_bitwise_the_inline_form(self, x):
        assume(np.all(x.max(axis=0) > x.min(axis=0))
               and np.all(x.std(axis=0) > 1e-300))
        z = zscore_by_reference(x, np.arange(x.shape[0]))
        assert np.array_equal(z, (x - x.mean(axis=0)) / x.std(axis=0))


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

    def test_default_neighbour_count_is_the_reported_one(self):
        pts = np.arange(8.0)[:, None]
        values = np.arange(8.0)[:, None] * 10
        out = extend_encoder(pts, values, np.array([[-1.0]]))
        assert np.allclose(out, values[:EXTENSION_K].mean(axis=0))
        assert f"average of the {EXTENSION_K} nearest" in EXTENSION_RULE


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

    def test_absent_keys_keep_dataclass_defaults(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\n"
            "dataset_path = data/waves.csv\n"
            "target_column = y\n"
            "context_grid = rbf:0.5\n"
            "ridge_grid = 1e-3\n"
            "d_grid = 1\n")
        cfg = load_config(cfg_path)
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                    if f.default is not dataclasses.MISSING}
        assert set(defaults) == {"split_fractions", "d0", "beta", "seed"}
        assert {name: getattr(cfg, name) for name in defaults} == defaults

    def test_unknown_keys_rejected(self, tmp_path):
        # these used to load silently as seed 0 and beta 1.0
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\n"
            "dataset_path = data/waves.csv\n"
            "target_column = y\n"
            "context_grid = rbf:0.5\n"
            "ridge_grid = 1e-3\n"
            "d_grid = 1\n"
            "sed = 7\n"
            "betta = 5.0\n")
        with pytest.raises(ValueError, match=re.escape(
                "unknown [experiment] keys: ['betta', 'sed']")):
            load_config(cfg_path)

    def test_fractions_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ExperimentConfig(dataset_path="x", target_column="y",
                             context_grid=["rbf:1"], ridge_grid=[1e-3],
                             d_grid=[1], split_fractions=(0.5, 0.2, 0.2))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(dataset_path="x", target_column="y",
                             context_grid=[], ridge_grid=[1e-3], d_grid=[1])

    @pytest.mark.parametrize("bad", [
        {"d0": 0}, {"beta": 0.0}, {"beta": -1.0}, {"beta": float("nan")},
        {"ridge_grid": [1e-3, 0.0]}, {"ridge_grid": [-1.0]},
        {"d_grid": [0, 2]}, {"split_fractions": (float("nan"), 0.5, 0.5)},
        {"ridge_grid": [float("inf")]}, {"beta": float("inf")}])
    def test_values_that_fail_every_context_rejected(self, bad):
        fields = {"dataset_path": "x", "target_column": "y",
                  "context_grid": ["rbf:1"], "ridge_grid": [1e-3],
                  "d_grid": [1], **bad}
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)


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

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.mkdir()
        with pytest.raises(OSError, match="failed writing report"):
            write_report({"summary": {}}, target)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_mode_follows_the_umask(self, tmp_path):
        # a report used to be written owner-only (0600), as mkstemp creates
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        path = tmp_path / "report.json"
        write_report({"summary": {}}, path)
        assert path.stat().st_mode == plain.stat().st_mode

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

    @pytest.mark.parametrize("n, m", [(3, 10), (10, 2), (2, 2)])
    def test_sizes_below_four_rejected_before_any_draw(self, n, m,
                                                       monkeypatch):
        # the objective checks need three nontrivial values, so these
        # sizes fail before any context is drawn
        import contexture.verify as verify_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("a context was drawn")

        monkeypatch.setattr(verify_mod, "random_dense_context", no_draw)
        with pytest.raises(ValueError, match=r"\[4, 80\]"):
            verify_theorems(n=n, m=m, trials=1, seed=0)

    def test_worstcase_draw_is_bounded(self, monkeypatch):
        import contexture.verify as verify_mod

        draws = []

        def counted(*args, **kwargs):
            draws.append(args[1:3])
            return random_dense_context(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "random_dense_context", counted)
        # a 2 x 2 context has one nontrivial value, never the needed gap
        with pytest.raises(NumericalError, match=f"after {verify_mod.TRIES}"):
            verify_mod.worstcase_residuals(np.random.default_rng(0), 2, 2)
        assert draws == [(2, 2)] * verify_mod.TRIES

    def test_nondegenerate_context_skips_short_spectra_then_raises(
            self, monkeypatch):
        import contexture.verify as verify_mod

        sizes, eigenvalues = [], verify_mod.operator_eigenvalues

        def counted(*args):
            evals = eigenvalues(*args)
            sizes.append(evals.size)
            return evals

        monkeypatch.setattr(verify_mod, "operator_eigenvalues", counted)
        # a 4 x 4 context has 3 nontrivial values, so d = 3 never has a gap
        with pytest.raises(NumericalError, match=f"after {verify_mod.TRIES}"):
            verify_mod.nondegenerate_context(np.random.default_rng(0),
                                             "multiview_noncontrastive", 4, 4, 3)
        assert len(sizes) == verify_mod.TRIES and max(sizes) <= 3

    def test_smallest_sizes_return_a_report(self):
        names = [c["name"] for c in
                 verify_theorems(n=12, m=10, trials=1, seed=0)["checks"]]
        # at n = 4, approx_err fits 5 columns to 4 rows, which the span's
        # rank cut reads without a warning
        for n, m in ((4, 4), (4, 80), (80, 4)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = verify_theorems(n=n, m=m, trials=1, seed=0)
            assert [c["name"] for c in report["checks"]] == names

    def test_balanced_draw_at_4x4_seed_6_passes(self):
        # the second of this seed's three balanced draws stalled at 1.3375
        # against the closed form's 1.3242 while the solver's iterates
        # could become ill-conditioned
        report = verify_theorems(n=4, m=4, trials=3, seed=6)
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        assert passed["objective_span_supervised_balanced"]
        assert passed["objective_value_supervised_balanced"]

    # small draws whose node-embedding checks need the graph's marginal
    # spread bounded (by n); none warns, the 4-row sizes included
    @pytest.mark.parametrize("n, m, seed", [
        (4, 4, 1), (4, 4, 2), (4, 4, 13), (4, 80, 1), (4, 80, 3), (8, 8, 9)])
    def test_small_node_embedding_draws_pass(self, n, m, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_theorems(n=n, m=m, trials=3, seed=seed)
        assert report["all_passed"], [c["name"] for c in report["checks"]
                                      if not c["passed"]]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 80), seed=st.integers(0, 2**32 - 1))
    def test_random_graph_is_psd_with_bounded_marginal_spread(self, n, seed):
        ctx = random_graph_context(np.random.default_rng(seed), n)
        p = ctx.input_marginal.weights
        # every degree of the unit-diagonal kernel lies in [1, n]
        assert p.max() / p.min() <= n
        # T is self-adjoint under p, so this similar matrix is symmetric
        root = np.sqrt(p)
        sym = root[:, None] * ctx.conditional / root[None, :]
        assert np.linalg.eigvalsh(0.5 * (sym + sym.T))[0] >= -1e-12


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

    def test_failures_recorded_not_fatal(self, tmp_path, monkeypatch):
        import contexture.harness as harness_mod

        def svd_fails_on_rbf7(ctx, rank=None):
            if ctx.label == "rbf:7":
                raise NumericalError("simulated SVD breakdown")
            return contexture_svd(ctx, rank=rank)

        monkeypatch.setattr(harness_mod, "contexture_svd", svd_fails_on_rbf7)
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5", "knn:5000", "knn+mask:0:0.2:3", "rbf:7",
                          "knn:3"],
            ridge_grid=[1e-3], d_grid=[1, 2], d0=8, seed=0)
        report = run_experiment(cfg)
        assert [(f["descriptor"], f["stage"], f["type"])
                for f in report["failures"]] == [
            ("knn:5000", "build", "ValueError"),
            ("knn+mask:0:0.2:3", "build", "ValueError"),
            ("rbf:7", "spectrum", "NumericalError")]
        assert [e["descriptor"] for e in report["per_context"]] == [
            "rbf:0.5", "knn:3"]
        # 42 pretrain rows give 41 nontrivial singular values, below every d
        report = run_experiment(dataclasses.replace(
            cfg, context_grid=["knn:3"], d_grid=[50]))
        assert [(f["stage"], f["error"]) for f in report["failures"]] == [
            ("probe", "no usable embedding dimension for knn:3")]

    def test_graph_of_another_size_is_a_build_failure(self, tmp_path):
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)  # 42 pretrain rows
        grid = ["rbf:0.5"]
        for nodes in (3, 42, 80):
            adj = np.ones((nodes, nodes)) - np.eye(nodes)
            np.savetxt(tmp_path / f"g{nodes}.csv", adj, delimiter=",")
            grid.append(f"graph:{tmp_path / f'g{nodes}.csv'}")
        grid.append("knn:3")
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y", context_grid=grid,
            ridge_grid=[1e-3], d_grid=[1, 2], d0=8, seed=0)
        report = run_experiment(cfg)
        assert [(f["descriptor"], f["stage"], f["type"], f["error"])
                for f in report["failures"]] == [
            (grid[1], "build", "ValueError",
             f"{grid[1]} has 3 inputs, not the 42 pretrain rows"),
            (grid[3], "build", "ValueError",
             f"{grid[3]} has 80 inputs, not the 42 pretrain rows")]
        assert [e["descriptor"] for e in report["per_context"]] == [
            "rbf:0.5", grid[2], "knn:3"]

    def test_equal_errors_leave_the_correlations_undefined(self, tmp_path,
                                                            monkeypatch):
        import contexture.harness as harness_mod

        def constant_probe(train, test, ridge_grid, seed=0):
            return ProbeResult(weights=np.zeros(1), bias=0.0,
                               ridge_penalty=ridge_grid[0], train_mse=0.5,
                               test_mse=0.5)

        monkeypatch.setattr(harness_mod, "fit_linear_probe", constant_probe)
        path = tmp_path / "waves.csv"
        make_waves(path, n=60)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5", "rbf:1.0", "knn:3"], ridge_grid=[1e-3],
            d_grid=[1, 2], d0=8, seed=0)
        summary = run_experiment(cfg)["summary"]
        assert summary["n_correlated"] == 3
        assert summary["pearson"] is None
        assert summary["distance_corr"] is None
        assert "zero variance" in summary["degenerate"]

    def test_constant_target_probes_to_zero_error(self, tmp_path):
        # 30 downstream rows of 0.1 do not average to 0.1, so a target
        # standardized by a std above 0 would read +-1 instead of 0
        rng = np.random.default_rng(0)
        path = tmp_path / "const.csv"
        write_csv(path, ["a", "b", "y"],
                  [[*row, 0.1] for row in rng.standard_normal((200, 2))])
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="y",
            context_grid=["rbf:0.5", "rbf:1.0", "knn:3"], ridge_grid=[1e-3],
            d_grid=[1, 2], d0=8, seed=0)
        report = run_experiment(cfg)
        assert len(report["per_context"]) == 3
        assert all(err == 0.0 for e in report["per_context"]
                   for _, err in e["err_d"])
        summary = report["summary"]
        assert summary["pearson"] is None
        assert "zero variance" in summary["degenerate"]

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

    def test_label_context_is_the_target_on_pretrain_rows(self, tmp_path,
                                                          monkeypatch):
        path = make_rings(tmp_path / "rings.csv", n=60)
        built = {}

        def spy(descriptor, points, seed):
            built[descriptor] = points.labels
            return build_from_descriptor(descriptor, points, seed=seed)

        monkeypatch.setattr(harness, "build_from_descriptor", spy)
        cfg = ExperimentConfig(
            dataset_path=str(path), target_column="band",
            context_grid=["label", "rbf:0.5"], ridge_grid=[1e-3], d_grid=[1, 2],
            d0=4, seed=0)
        report = run_experiment(cfg)
        assert report["failures"] == []
        assert [e["descriptor"] for e in report["per_context"]] == [
            "label", "rbf:0.5"]
        _, task = load_dataset(path, "band")
        idx_pre, _, _ = split_dataset(60, cfg.split_fractions, cfg.seed)
        assert np.array_equal(built["label"], task.values[idx_pre])

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


IN_TMP = "<file under tmp_path holding the text>"
TEN_ROWS = "\n".join(["a,b,y"] + ["1,2,3"] * 9 + ["1,2"]) + "\n"
# a blank line 3, then a bad row on line 11: messages name the file line
BLANK_THEN = "\n".join(["a,y", "1,2", ""] + ["1,2"] * 7 + ["{}", "1,2"]) + "\n"


@pytest.mark.parametrize("call, text, args, exc, match", [
    (load_dataset, "", (IN_TMP, "y"), ValueError, "empty file"),
    (load_dataset, TEN_ROWS, (IN_TMP, "y"), ValueError,
     "row 11 has 2 cells, expected 3"),
    (load_config, "[other]\nseed = 1\n", (IN_TMP,), ValueError,
     r"must contain an \[experiment\] section"),
    (load_config, "[experiment]\ndataset_path = d.csv\ntarget_column = y\n"
                  "context_grid = knn:2\nridge_grid = 1.0\n", (IN_TMP,),
     ValueError, "is missing 'd_grid'"),
    (write_report, None, ({"checks": []}, IN_TMP, "xml"), ValueError,
     "format must be json or csv, got 'xml'"),
    (write_report, None, ({"n": 4}, IN_TMP, "csv"), ValueError,
     "no tabular section"),
    (verify_theorems, None, (24, 20, 0), ValueError,
     "trials must be at least 1"),
    (load_dataset, BLANK_THEN.format("1"), (IN_TMP, "y"), ValueError,
     "row 11 has 1 cells, expected 2"),
    (load_dataset, BLANK_THEN.format("x,2"), (IN_TMP, "y"), ValueError,
     "non-numeric feature cell at row 11, column 'a': 'x'"),
    # one cell over the csv module's default limit of 131,072 characters
    pytest.param(load_dataset, BLANK_THEN.format("1," + "9" * 131_073),
                 (IN_TMP, "y"), ValueError,
                 "input: line 11: field larger than field limit",
                 id="load_dataset-oversized-field"),
    (load_config, "dataset_path = d.csv\n", (IN_TMP,), ValueError,
     "config .*input: File contains no section headers"),
    (load_config, "[experiment]\nseed = 1\nseed = 2\n", (IN_TMP,), ValueError,
     "config .*input: .*option 'seed' in section 'experiment' already exists"),
    (load_config, None, (IN_TMP,), FileNotFoundError, "input"),
])
def test_typed_input_errors(call, text, args, exc, match, tmp_path):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    with pytest.raises(exc, match=match):
        call(*(path if arg is IN_TMP else arg for arg in args))
