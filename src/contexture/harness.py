"""Dataset ingestion, splits, context sweeps, and report writing.

``run_experiment`` drives the full pipeline: build each context on the
pretrain split, score it with the spectrum-only usefulness metric, train
top-d encoders, extend them to held-out rows, probe, and correlate metric
against error. The verification suite lives in :mod:`contexture.verify`.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._linalg import as_native, nearest, sq_dists
from .context import DiscreteDistribution, PointSet, build_from_descriptor
from .errors import NumericalError
from .evaluation import (TaskFunction, correlation_stats, decay_rate,
                         fit_linear_probe, usefulness_metric)
from .spectral import contexture_svd
# re-exported: the benchmark tracer wraps them as contexture.harness.<name>
from .verify import nondegenerate_context, verify_theorems  # noqa: F401

# reference medians for the metric-vs-error correlation reported on public
# tabular benchmark suites; printed alongside results, never asserted
REFERENCE_MEDIANS = {"pearson": 0.587, "distance_corr": 0.659}

EXTENSION_RULE = ("held-out rows embed as the average of the 5 nearest "
                  "pretrain rows' encoder values (exact value on pretrain rows)")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    dataset_path: str
    target_column: str
    context_grid: list[str]
    ridge_grid: list[float]
    d_grid: list[int]
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    d0: int = 64
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        fr = tuple(float(f) for f in self.split_fractions)
        if len(fr) != 3 or any(f <= 0 for f in fr):
            raise ValueError("split fractions must be three positive reals")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1 within 1e-9")
        self.split_fractions = fr
        if not self.context_grid or not self.ridge_grid or not self.d_grid:
            raise ValueError("context, ridge, and d grids must be nonempty")
        self.ridge_grid = [float(g) for g in self.ridge_grid]
        self.d_grid = [int(d) for d in self.d_grid]

    def to_json_dict(self) -> dict:
        return {
            "dataset_path": self.dataset_path,
            "target_column": self.target_column,
            "split_fractions": list(self.split_fractions),
            "context_grid": list(self.context_grid),
            "d0": self.d0,
            "beta": self.beta,
            "ridge_grid": list(self.ridge_grid),
            "d_grid": list(self.d_grid),
            "seed": self.seed,
        }


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a flat INI file ([experiment] section)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read or "experiment" not in parser:
        raise ValueError(f"config {path} must contain an [experiment] section")
    sec = parser["experiment"]
    for key in ("dataset_path", "target_column", "context_grid",
                "ridge_grid", "d_grid"):
        if not sec.get(key):
            raise ValueError(f"config {path} is missing {key!r}")

    def split_list(key):
        return [tok.strip() for tok in sec.get(key, "").split(",") if tok.strip()]

    return ExperimentConfig(
        dataset_path=sec.get("dataset_path"),
        target_column=sec.get("target_column"),
        split_fractions=tuple(float(v) for v in split_list("split_fractions")) or (0.7, 0.15, 0.15),
        context_grid=split_list("context_grid"),
        d0=sec.getint("d0", 64),
        beta=sec.getfloat("beta", 1.0),
        ridge_grid=[float(v) for v in split_list("ridge_grid")],
        d_grid=[int(v) for v in split_list("d_grid")],
        seed=sec.getint("seed", 0),
    )


def default_context_grid(n_pretrain: int, per_family: int = 35) -> list[str]:
    """Log-spaced RBF bandwidths and neighbor counts spanning weak to strong
    association, truncated for tiny datasets."""
    gammas = np.geomspace(1e-4, 10.0, per_family)
    k_max = max(1, n_pretrain - 1)
    ks = sorted(set(np.unique(np.geomspace(1, k_max, per_family).astype(int))))
    grid = [f"rbf:{g:g}" for g in gammas]
    grid += [f"knn:{k}" for k in ks]
    return grid


# ---------------------------------------------------------------------------
# dataset ingestion and splits
# ---------------------------------------------------------------------------

def load_dataset(path, target_column: str):
    """Load a headered CSV into raw features and a raw target vector.

    Feature cells must parse as numbers; a categorical target column is
    integer-coded by sorted distinct value. Standardization is applied
    later, after splitting, using pretrain statistics.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    if target_column not in header:
        raise ValueError(f"{path}: missing target column {target_column!r}")
    if len(rows) < 10:
        raise ValueError(f"{path}: need at least 10 data rows, got {len(rows)}")
    t_col = header.index(target_column)
    feat_cols = [j for j in range(len(header)) if j != t_col]

    features = np.empty((len(rows), len(feat_cols)))
    raw_target = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, "
                             f"expected {len(header)}")
        for jj, j in enumerate(feat_cols):
            try:
                features[i, jj] = float(row[j])
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric feature cell at row {i + 2}, "
                    f"column {header[j]!r}: {row[j]!r}") from None
        raw_target.append(row[t_col])

    try:
        target = np.array([float(v) for v in raw_target])
    except ValueError:
        codes = {v: c for c, v in enumerate(sorted(set(raw_target)))}
        target = np.array([codes[v] for v in raw_target], dtype=float)

    points = PointSet(features)
    return points, TaskFunction(target, DiscreteDistribution.uniform(len(rows)))


def split_dataset(n: int, fractions, seed: int):
    """Disjoint (pretrain, downstream, test) index arrays.

    Seeded permutation, contiguous slices sized (floor, floor, remainder).
    """
    f1, f2, _ = fractions
    n1, n2 = int(np.floor(n * f1)), int(np.floor(n * f2))
    n3 = n - n1 - n2
    if min(n1, n2, n3) < 1:
        raise ValueError(f"fractions {fractions} leave an empty split for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n1], perm[n1:n1 + n2], perm[n1 + n2:]


def zscore_by_reference(features: np.ndarray, ref_idx: np.ndarray) -> np.ndarray:
    """Per-column z-score using statistics of the reference rows.

    Zero-variance columns map to zero rather than dividing by zero.
    """
    ref = features[ref_idx]
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    out = features - mean
    nonzero = std > 0
    out[:, nonzero] /= std[nonzero]
    out[:, ~nonzero] = 0.0
    return out


def extend_encoder(train_points: np.ndarray, train_values: np.ndarray,
                   query_points: np.ndarray, k: int = 5) -> np.ndarray:
    """Transductive extension: average encoder values of the k nearest
    pretrain rows; a zero-distance match returns that row's value exactly."""
    dists = sq_dists(query_points, train_points)
    order = nearest(dists, min(k, train_points.shape[0]))
    out = train_values[order].mean(axis=1)
    exact = dists[np.arange(len(order)), order[:, 0]] == 0.0
    out[exact] = train_values[order[exact, 0]]
    return out


# ---------------------------------------------------------------------------
# the context-grid experiment
# ---------------------------------------------------------------------------

def _context_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_experiment(config: ExperimentConfig) -> dict:
    """Score every context in the grid and correlate metric against error.

    Per-context failures are recorded and skipped, never fatal. The report
    is a plain dict ready for ``write_report``.
    """
    points, task = load_dataset(config.dataset_path, config.target_column)
    n = points.n_points
    idx_pre, idx_down, idx_test = split_dataset(n, config.split_fractions,
                                                config.seed)
    feats = zscore_by_reference(points.points, idx_pre)
    pre_pts = feats[idx_pre]

    y = task.values
    y_mean, y_std = y[idx_down].mean(), y[idx_down].std()
    y_std = y_std if y_std > 0 else 1.0
    y_norm = (y - y_mean) / y_std

    per_context, failures = [], []
    for ci, descriptor in enumerate(config.context_grid):
        try:
            entry = _evaluate_context(descriptor, ci, config, pre_pts, feats,
                                      idx_pre, idx_down, idx_test, y_norm)
            per_context.append(entry)
        except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
            # per-context failures are data; resource errors propagate
            failures.append({"descriptor": descriptor, "error": str(exc),
                             "type": type(exc).__name__})

    # perfectly associated contexts have divergent tau; they stay in the
    # per-context table but cannot enter a finite correlation
    usable = [(e["tau"], e["err_d_star"]) for e in per_context
              if np.isfinite(e["tau"]) and np.isfinite(e["err_d_star"])]
    summary = {"pearson": None, "distance_corr": None,
               "n_contexts": len(per_context), "n_correlated": len(usable)}
    if len(usable) >= 3:
        try:
            pearson, dist = correlation_stats([t for t, _ in usable],
                                              [e for _, e in usable])
            summary["pearson"] = pearson
            summary["distance_corr"] = dist
        except ValueError as exc:
            summary["degenerate"] = str(exc)

    return {
        "config": config.to_json_dict(),
        "extension_rule": EXTENSION_RULE,
        "per_context": per_context,
        "failures": failures,
        "summary": summary,
        "reference_medians": dict(REFERENCE_MEDIANS),
    }


def _evaluate_context(descriptor, ci, config, pre_pts, feats,
                      idx_pre, idx_down, idx_test, y_norm) -> dict:
    pre_set = PointSet(pre_pts)
    ctx = build_from_descriptor(descriptor, pre_set,
                                seed=_context_seed(config.seed, ci))
    spec = contexture_svd(ctx)
    s_nontrivial = spec.nontrivial_values
    frag = usefulness_metric(s_nontrivial, d0=config.d0, beta=config.beta)
    try:
        rate = decay_rate(s_nontrivial)
    except ValueError:
        rate = None

    avail = s_nontrivial.size
    err_curve = []
    for d in config.d_grid:
        if d > avail:
            continue
        enc_pre = spec.left_functions[:, 1:d + 1]
        emb_down = extend_encoder(pre_pts, enc_pre, feats[idx_down])
        emb_test = extend_encoder(pre_pts, enc_pre, feats[idx_test])
        probe = fit_linear_probe((emb_down, y_norm[idx_down]),
                                 (emb_test, y_norm[idx_test]),
                                 config.ridge_grid, seed=config.seed)
        err_curve.append([int(d), float(probe.test_mse)])
    if not err_curve:
        raise ValueError(f"no usable embedding dimension for {descriptor}")
    err_d_star = min(e for _, e in err_curve)
    return {
        "descriptor": descriptor,
        "tau": float(frag.tau),
        "d_star_metric": int(frag.d_star_metric),
        "degenerate_metric": bool(frag.degenerate),
        "decay_rate": rate,
        "err_d": err_curve,
        "err_d_star": float(err_d_star),
    }


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def write_report(report: dict, path, fmt: str = "json") -> None:
    """Serialize a report atomically (temp file then rename)."""
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(as_native(report), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        payload = _report_csv(report)
    else:
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc


def _report_csv(report: dict) -> str:
    lines = []
    if "per_context" in report:
        d_values = sorted({d for e in report["per_context"] for d, _ in e["err_d"]})
        head = ["descriptor", "tau", "d_star_metric", "decay_rate", "err_d_star"]
        head += [f"err_d:{d}" for d in d_values]
        lines.append(",".join(head))
        for e in report["per_context"]:
            curve = dict(e["err_d"])
            row = [e["descriptor"], repr(e["tau"]), str(e["d_star_metric"]),
                   repr(e["decay_rate"]) if e["decay_rate"] is not None else "",
                   repr(e["err_d_star"])]
            row += [repr(curve[d]) if d in curve else "" for d in d_values]
            lines.append(",".join(row))
    elif "checks" in report:
        lines.append("name,max_residual,tolerance,passed")
        for c in report["checks"]:
            lines.append(f"{c['name']},{c['max_residual']!r},"
                         f"{c['tolerance']!r},{c['passed']}")
    else:
        raise ValueError("report has no tabular section to flatten")
    return "\n".join(lines) + "\n"
