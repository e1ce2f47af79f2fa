import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contexture.cli import main
from contexture.context import (DiscreteDistribution, PointSet,
                                build_knn_context)
from contexture.datasets import make_rings, make_waves
from contexture.evaluation import usefulness_metric
from contexture.harness import zscore_by_reference
from contexture.objectives import SampleEncoder, save_encoder
from contexture.spectral import contexture_svd, load_spectrum
from contexture.verify import verify_theorems


@pytest.fixture
def waves_csv(tmp_path):
    path = tmp_path / "waves.csv"
    make_waves(path, n=60)
    return path


def test_spectrum_then_metric(tmp_path, waves_csv, capsys):
    spec_path = tmp_path / "spec.json"
    rc = main(["spectrum", "--context", "rbf:0.5", "--input", str(waves_csv),
               "--target", "y", "--top", "8", "--out", str(spec_path)])
    assert rc == 0
    data = json.loads(spec_path.read_text())
    assert len(data["singular_values"]) == 8

    capsys.readouterr()
    curve_path = tmp_path / "curve.csv"
    metric_path = tmp_path / "metric.json"
    rc = main(["metric", "--spectrum", str(spec_path), "--beta", "1.0",
               "--d0", "4", "--curve-csv", str(curve_path),
               "--out", str(metric_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert metric_path.read_text() == printed
    payload = json.loads(printed)
    assert payload["d0"] == 4
    assert len(payload["tau_curve"]) == 4
    assert payload["tau"] == min(payload["tau_curve"])
    lines = curve_path.read_text().strip().split("\n")
    assert lines[0] == "d,tau_d"
    assert len(lines) == 5


def test_spectrum_without_target_uses_every_column(tmp_path, waves_csv):
    spec_path = tmp_path / "spec.json"
    assert main(["spectrum", "--context", "knn:5", "--input", str(waves_csv),
                 "--out", str(spec_path)]) == 0
    table = np.loadtxt(waves_csv, delimiter=",", skiprows=1)
    values = {}
    for name, cols in (("all", table), ("features", table[:, :-1])):
        points = PointSet(zscore_by_reference(cols, np.arange(cols.shape[0])))
        values[name] = contexture_svd(
            build_knn_context(points, 5)).singular_values
    saved = load_spectrum(spec_path).singular_values
    assert np.array_equal(saved, values["all"])
    assert not np.array_equal(saved, values["features"])


def test_metric_infinite_beta_is_usage_error(tmp_path, waves_csv, capsys):
    spec_path = tmp_path / "spec.json"
    assert main(["spectrum", "--context", "rbf:0.5", "--input",
                 str(waves_csv), "--target", "y", "--out", str(spec_path)]) == 0
    capsys.readouterr()
    assert main(["metric", "--spectrum", str(spec_path), "--beta", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("corrupt", ["nan_value", "short_left", "short_right"])
def test_metric_rejects_a_malformed_spectrum(tmp_path, waves_csv, capsys, corrupt):
    spec_path = tmp_path / "spec.json"
    assert main(["spectrum", "--context", "rbf:0.5", "--input", str(waves_csv),
                 "--target", "y", "--top", "3", "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    if corrupt == "nan_value":
        data["singular_values"][1] = float("nan")
    elif corrupt == "short_left":
        data["left"] = [row[:2] for row in data["left"]]
    else:
        data["right"] = [row[:1] for row in data["right"][:2]]
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["metric", "--spectrum", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


@pytest.mark.parametrize("bad", [{"a": 1}, None, "abc"])
def test_metric_rejects_malformed_singular_values(tmp_path, waves_csv, capsys,
                                                  bad):
    spec_path = tmp_path / "spec.json"
    assert main(["spectrum", "--context", "rbf:0.5", "--input", str(waves_csv),
                 "--target", "y", "--top", "3", "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data["singular_values"] = bad
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["metric", "--spectrum", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "'singular_values'" in captured.err


@pytest.mark.parametrize("field", ["left", "right"])
def test_metric_rejects_a_short_packed_matrix(tmp_path, waves_csv, capsys, field):
    spec_path = tmp_path / "spec.json"
    assert main(["spectrum", "--context", "rbf:0.5", "--input", str(waves_csv),
                 "--target", "y", "--top", "3", "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data[field] = data[field][:-12]  # 9 bytes, one float64 and a byte short
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["metric", "--spectrum", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and repr(field) in captured.err


def test_metric_reads_a_list_format_spectrum(capsys):
    # left/right as nested lists, the form written before they were packed
    path = Path(__file__).parent / "data" / "spectrum-list-format.json"
    assert main(["metric", "--spectrum", str(path), "--d0", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = np.array(json.loads(path.read_text())["singular_values"])
    assert payload["tau"] == usefulness_metric(values[1:], d0=2, beta=1.0).tau


def test_learn_and_evaluate(tmp_path, waves_csv, capsys):
    enc_path = tmp_path / "enc.csv"
    rc = main(["learn", "--objective", "supervised_balanced",
               "--context", "rbf:0.5", "--d", "2", "--mode", "spectral",
               "--input", str(waves_csv), "--target", "y",
               "--out", str(enc_path)])
    assert rc == 0
    assert enc_path.exists()
    sidecar = json.loads((tmp_path / "enc.json").read_text())
    assert sidecar == {"support": "input", "d": 2,
                       "objective": "supervised_balanced", "seed": 0}

    capsys.readouterr()
    rc = main(["evaluate", "--encoder", str(enc_path), "--input",
               str(waves_csv), "--target", "y", "--ridge-grid", "1e-6",
               "1e-3", "0.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"weights", "bias", "ridge_penalty", "train_mse",
                            "test_mse"}
    assert payload["test_mse"] >= 0


def test_learn_variational_mode(tmp_path, waves_csv):
    enc_path = tmp_path / "encv.csv"
    rc = main(["learn", "--objective", "multiview_noncontrastive",
               "--context", "rbf:0.5", "--d", "1", "--mode", "variational",
               "--input", str(waves_csv), "--target", "y",
               "--out", str(enc_path), "--steps", "400"])
    assert rc == 0
    values = np.loadtxt(enc_path, delimiter=",")
    assert values.shape == (60,)


def test_learn_zero_dimensions_is_usage_error(tmp_path, waves_csv, capsys):
    # a constrained kind, which would take the span of a 60 x 0 draw
    rc = main(["learn", "--objective", "multiview_noncontrastive",
               "--context", "knn:5", "--d", "0", "--mode", "variational",
               "--input", str(waves_csv), "--target", "y",
               "--out", str(tmp_path / "enc.csv")])
    assert rc == 1
    assert "d must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["spectral", "variational"])
def test_learn_node_embedding_of_label_context_is_usage_error(tmp_path, capsys,
                                                             mode):
    rings = make_rings(tmp_path / "rings.csv", n=30)
    rc = main(["learn", "--objective", "node_embedding", "--context", "label",
               "--d", "1", "--mode", mode, "--input", str(rings),
               "--target", "band", "--out", str(tmp_path / "enc.csv")])
    assert rc == 1
    assert "node_embedding needs a square context" in capsys.readouterr().err


def test_learn_to_json_path_is_usage_error(tmp_path, waves_csv, capsys):
    # a .json values file would be overwritten by its own sidecar
    enc_path = tmp_path / "enc.json"
    rc = main(["learn", "--objective", "supervised_balanced",
               "--context", "rbf:0.5", "--d", "2", "--input", str(waves_csv),
               "--target", "y", "--out", str(enc_path)])
    assert rc == 1
    assert "enc.json" in capsys.readouterr().err
    assert not enc_path.exists()


@pytest.mark.parametrize("rate", ["0", "nan"])
def test_learn_bad_learning_rate_is_usage_error(tmp_path, waves_csv, capsys,
                                                rate):
    rc = main(["learn", "--objective", "multiview_noncontrastive",
               "--context", "rbf:0.5", "--d", "1", "--mode", "variational",
               "--input", str(waves_csv), "--target", "y",
               "--out", str(tmp_path / "enc.csv"), "--learning-rate", rate])
    assert rc == 1
    assert "learning_rate" in capsys.readouterr().err


def test_evaluate_infinite_ridge_is_usage_error(tmp_path, waves_csv, capsys):
    enc_path = tmp_path / "enc.csv"
    assert main(["learn", "--objective", "supervised_balanced",
                 "--context", "rbf:0.5", "--d", "2", "--input",
                 str(waves_csv), "--target", "y", "--out", str(enc_path)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--encoder", str(enc_path), "--input",
               str(waves_csv), "--target", "y", "--ridge-grid", "inf"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_evaluate_constant_target_has_zero_error(tmp_path, capsys):
    # the 48 training rows of 0.1 do not average to 0.1: the target must
    # still standardize to exactly 0, and a probe of 0 errs by exactly 0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 2))
    data_path, enc_path = tmp_path / "const.csv", tmp_path / "enc.csv"
    data_path.write_text("a,b,y\n" + "".join(f"{a},{b},0.1\n" for a, b in x))
    save_encoder(SampleEncoder(x, "input", DiscreteDistribution.uniform(60)),
                 enc_path)
    rc = main(["evaluate", "--encoder", str(enc_path), "--input",
               str(data_path), "--target", "y", "--ridge-grid", "1e-3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["test_mse"] == 0.0


@pytest.mark.parametrize("rows, fraction, message", [
    (59, "0.8", "encoder rows must match the dataset rows"),
    (60, "1.0", "train fraction leaves an empty split"),
    (60, "0.001", "train fraction leaves an empty split"),
])
def test_evaluate_bad_split_is_usage_error(tmp_path, waves_csv, capsys, rows,
                                           fraction, message):
    enc_path = tmp_path / "enc.csv"
    save_encoder(SampleEncoder(np.arange(rows, dtype=float), "input",
                               DiscreteDistribution.uniform(rows)), enc_path)
    rc = main(["evaluate", "--encoder", str(enc_path), "--input",
               str(waves_csv), "--target", "y", "--ridge-grid", "0.1",
               "--train-fraction", fraction])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("sidecar, field", [
    ('{"support": "input", "d": 2}', "'d'"),
    ('["input", 1]', "'support'"),
    ('{"d": 1}', "'support'"),
    ('{"support": "middle", "d": 1}', "'support'"),
])
def test_evaluate_malformed_sidecar_is_usage_error(tmp_path, waves_csv, capsys,
                                                   sidecar, field):
    enc_path = tmp_path / "enc.csv"
    np.savetxt(enc_path, np.arange(60.0)[:, None], delimiter=",")
    (tmp_path / "enc.json").write_text(sidecar)
    rc = main(["evaluate", "--encoder", str(enc_path), "--input",
               str(waves_csv), "--target", "y", "--ridge-grid", "0.1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err
    assert "enc.json" in captured.err and "Traceback" not in captured.err


def test_experiment_subcommand(tmp_path, waves_csv, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        f"dataset_path = {waves_csv}\n"
        "target_column = y\n"
        "context_grid = rbf:0.3, rbf:1.0, knn:4\n"
        "ridge_grid = 1e-4, 1e-2\n"
        "d_grid = 1, 2\n"
        "d0 = 8\n"
        "seed = 0\n")
    out = tmp_path / "report.json"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["n_contexts"] == 3
    printed = capsys.readouterr().out
    assert "reference medians" in printed
    assert "0.587" in printed and "0.659" in printed


def test_experiment_reports_skipped_contexts(tmp_path, waves_csv, capsys):
    # 42 pretrain rows cannot give 1000 neighbours
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        f"dataset_path = {waves_csv}\n"
        "target_column = y\n"
        "context_grid = rbf:0.3, knn:1000\n"
        "ridge_grid = 1e-2\n"
        "d_grid = 1\n"
        "d0 = 8\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "1 context(s) failed and were skipped" in capsys.readouterr().out


def test_experiment_rejects_bad_config(tmp_path, waves_csv, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        f"dataset_path = {waves_csv}\n"
        "target_column = y\n"
        "context_grid = rbf:0.3\n"
        "ridge_grid = 1e-4\n"
        "d_grid = 1\n"
        "d0 = 0\n")
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert "d0" in capsys.readouterr().err


def test_verify_default_trials_match_library(monkeypatch):
    import contexture.cli as cli_mod

    seen = {}

    def fake_verify(**kwargs):
        seen.update(kwargs)
        return {"checks": [], "all_passed": True}

    monkeypatch.setattr(cli_mod, "verify_theorems", fake_verify)
    assert main(["verify"]) == 0
    library = inspect.signature(verify_theorems).parameters
    assert seen == {name: p.default for name, p in library.items()}
    assert seen["trials"] == 3


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--n", "12", "--m", "10", "--trials", "1",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert "all checks passed" in capsys.readouterr().out


def test_verify_csv_has_a_row_per_check(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--n", "12", "--m", "10", "--trials", "1",
               "--seed", "0", "--out", str(out), "--format", "csv"])
    assert rc == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("[")]
    lines = out.read_text().splitlines()
    assert lines[0] == "name,max_residual,tolerance,passed"
    assert len(printed) > 0 and len(lines) == 1 + len(printed)
    for line, shown in zip(lines[1:], printed):
        name, _, _, passed = line.split(",")
        assert shown.startswith(f"[pass] {name}:") and passed == "True"


@pytest.mark.parametrize("size", [["--n", "3"], ["--m", "2"]])
def test_verify_below_four_is_a_usage_error(size, capsys):
    assert main(["verify", *size, "--trials", "1"]) == 1
    assert "[4, 80]" in capsys.readouterr().err


def test_exit_code_usage_error(capsys):
    assert main(["spectrum", "--context", "rbf:0.5"]) == 1  # missing args
    assert main(["metric", "--spectrum", "/nonexistent.json"]) == 1
    capsys.readouterr()


def test_exit_code_numerical_failure(tmp_path, waves_csv, capsys):
    enc_path = tmp_path / "enc.csv"
    rc = main(["learn", "--objective", "multiview_contrastive",
               "--context", "rbf:0.5", "--d", "1", "--mode", "variational",
               "--input", str(waves_csv), "--target", "y",
               "--out", str(enc_path), "--learning-rate", "1e40",
               "--steps", "200"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_verification_failures(monkeypatch, capsys):
    import contexture.cli as cli_mod

    def fake_verify(**kwargs):
        return {"checks": [{"name": "x", "max_residual": 1.0,
                            "tolerance": 0.1, "passed": False}],
                "all_passed": False}

    monkeypatch.setattr(cli_mod, "verify_theorems", fake_verify)
    assert main(["verify", "--trials", "1"]) == 3
    assert "failures present" in capsys.readouterr().out


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "contexture.cli", "verify", "--n", "8",
         "--m", "6", "--trials", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
