"""Command-line surface.

Subcommands: ``spectrum``, ``metric``, ``learn``, ``evaluate``,
``experiment``, ``verify``. Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 verification failures present.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .context import PointSet, build_from_descriptor
from .errors import NumericalError
from .evaluation import (fit_linear_probe, save_tau_curve_csv,
                         usefulness_metric)
from .harness import (load_config, load_dataset, run_experiment,
                      write_report, zscore_by_reference)
from .objectives import (ObjectiveKind, VariationalOptions, load_encoder,
                         save_encoder, solve_spectral, solve_variational)
from .spectral import contexture_svd, load_spectrum, save_spectrum
from .verify import verify_theorems


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="contexture",
                     description="finite-support context spectra, objectives, "
                                 "and usefulness metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="context spectrum of a CSV dataset")
    sp.add_argument("--context", required=True, help="context descriptor, "
                    "e.g. knn:10 or rbf:0.5 or rbf+mask:0.5:0.2:50")
    sp.add_argument("--input", required=True, help="CSV file with header row")
    sp.add_argument("--target", default=None,
                    help="target column (excluded from features; labels for "
                         "the label context)")
    sp.add_argument("--top", type=int, default=None, help="retained rank")
    sp.add_argument("--out", required=True, help="output spectrum JSON")
    sp.add_argument("--seed", type=int, default=0)

    mt = sub.add_parser("metric", help="usefulness metric of a saved spectrum")
    mt.add_argument("--spectrum", required=True)
    mt.add_argument("--beta", type=float, default=1.0)
    mt.add_argument("--d0", type=int, default=512)
    mt.add_argument("--out", default=None, help="optional JSON output path")
    mt.add_argument("--curve-csv", default=None,
                    help="optional (d, tau_d) CSV output path")

    ln = sub.add_parser("learn", help="solve a pretraining objective")
    ln.add_argument("--objective", required=True,
                    choices=[k.value for k in ObjectiveKind])
    ln.add_argument("--context", required=True)
    ln.add_argument("--d", type=int, required=True)
    ln.add_argument("--mode", choices=["spectral", "variational"],
                    default="spectral")
    ln.add_argument("--input", required=True, help="CSV file with header row")
    ln.add_argument("--target", default=None)
    ln.add_argument("--out", required=True, help="encoder CSV path "
                    "(JSON sidecar written next to it)")
    ln.add_argument("--seed", type=int, default=0)
    ln.add_argument("--steps", type=int, default=5000)
    ln.add_argument("--learning-rate", type=float, default=0.05)

    ev = sub.add_parser("evaluate", help="linear-probe a saved encoder")
    ev.add_argument("--encoder", required=True, help="encoder CSV")
    ev.add_argument("--input", required=True, help="CSV file with header row")
    ev.add_argument("--target", required=True, help="target column")
    ev.add_argument("--ridge-grid", nargs="+", type=float, required=True)
    ev.add_argument("--train-fraction", type=float, default=0.8)
    ev.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("experiment", help="run a context-grid sweep")
    ex.add_argument("--config", required=True, help="INI config file")
    ex.add_argument("--out", default=None, help="report path")
    ex.add_argument("--format", choices=["json", "csv"], default="json")

    vf = sub.add_parser("verify", help="run the invariant verification suite")
    vf.add_argument("--n", type=int, default=24)
    vf.add_argument("--m", type=int, default=20)
    vf.add_argument("--trials", type=int, default=3)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--out", default=None, help="report path")
    vf.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _points_from_csv(path, target_column):
    """Feature matrix (z-scored on the full file) plus coded target."""
    if target_column is None:
        import csv as _csv
        with open(path, newline="") as fh:
            header = next(_csv.reader(fh))
        target_column = header[-1]
        points, task = load_dataset(path, target_column)
        feats = np.concatenate([points.points, task.values[:, None]], axis=1)
        labels = None
    else:
        points, task = load_dataset(path, target_column)
        feats = points.points
        labels = task.values
    feats = zscore_by_reference(feats, np.arange(feats.shape[0]))
    return PointSet(feats, labels=labels), task


def _cmd_spectrum(args) -> int:
    points, _ = _points_from_csv(args.input, args.target)
    ctx = build_from_descriptor(args.context, points, seed=args.seed)
    spec = contexture_svd(ctx, rank=args.top)
    save_spectrum(spec, args.out)
    print(f"wrote spectrum ({spec.rank} values, top nontrivial "
          f"{spec.nontrivial_values[0] if spec.rank > 1 else 0.0:.6f}) "
          f"to {args.out}")
    return 0


def _cmd_metric(args) -> int:
    spec = load_spectrum(args.spectrum)
    score = usefulness_metric(spec.nontrivial_values, d0=args.d0, beta=args.beta)
    payload = score.to_json_dict()
    if args.out:
        write_report(payload, args.out)
    if args.curve_csv:
        save_tau_curve_csv(score.tau_curve, args.curve_csv)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_learn(args) -> int:
    points, _ = _points_from_csv(args.input, args.target)
    ctx = build_from_descriptor(args.context, points, seed=args.seed)
    if args.mode == "spectral":
        enc = solve_spectral(args.objective, ctx, args.d)
    else:
        opts = VariationalOptions(steps=args.steps,
                                  learning_rate=args.learning_rate,
                                  seed=args.seed)
        enc = solve_variational(args.objective, ctx, args.d, opts)
    save_encoder(enc, args.out, objective=args.objective, seed=args.seed)
    print(f"wrote {enc.d}-dim {enc.support}-support encoder to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    points, task = load_dataset(args.input, args.target)
    enc = load_encoder(args.encoder)
    if enc.values.shape[0] != points.n_points:
        raise ValueError("encoder rows must match the dataset rows")
    n = points.n_points
    n_train = int(round(args.train_fraction * n))
    if not 1 <= n_train < n:
        raise ValueError("train fraction leaves an empty split")
    order = np.random.default_rng(args.seed).permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    y = zscore_by_reference(task.values[:, None], train_idx)[:, 0]
    probe = fit_linear_probe((enc.values[train_idx], y[train_idx]),
                             (enc.values[test_idx], y[test_idx]),
                             args.ridge_grid, seed=args.seed)
    print(json.dumps(probe.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    if args.out:
        write_report(report, args.out, fmt=args.format)
    summary = report["summary"]
    print(f"experiment over {summary['n_contexts']} contexts: "
          f"pearson={summary['pearson']}, distance={summary['distance_corr']} "
          f"(reference medians: pearson {report['reference_medians']['pearson']}, "
          f"distance {report['reference_medians']['distance_corr']})")
    if report["failures"]:
        print(f"{len(report['failures'])} context(s) failed and were skipped")
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorems(n=args.n, m=args.m, trials=args.trials,
                             seed=args.seed)
    if args.out:
        write_report(report, args.out, fmt=args.format)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: max residual "
              f"{check['max_residual']:.3e} (tolerance {check['tolerance']:g})")
    if not report["all_passed"]:
        print("verification failures present")
        return 3
    print("all checks passed")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "metric": _cmd_metric,
    "learn": _cmd_learn,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
