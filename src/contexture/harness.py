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
import secrets
from array import array
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._linalg import as_native, nearest, sq_dists
from .context import DiscreteDistribution, PointSet, build_from_descriptor
from .errors import NumericalError
from .evaluation import (TaskFunction, correlation_stats, fit_linear_probe,
                         usefulness_metric)
from .spectral import contexture_svd
# re-exported: the benchmark tracer wraps them as contexture.harness.<name>
from .verify import nondegenerate_context, verify_theorems  # noqa: F401

# reference medians for the metric-vs-error correlation reported on public
# tabular benchmark suites; printed alongside results, never asserted
REFERENCE_MEDIANS = {"pearson": 0.587, "distance_corr": 0.659}

DEFAULT_SPLIT = (0.7, 0.15, 0.15)  # pretrain, downstream train, test

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
    split_fractions: tuple[float, float, float] = DEFAULT_SPLIT
    d0: int = 64
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        fr = tuple(float(f) for f in self.split_fractions)
        if len(fr) != 3 or not all(f > 0 for f in fr):
            raise ValueError("split fractions must be three positive reals")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1 within 1e-9")
        self.split_fractions = fr
        if not self.context_grid or not self.ridge_grid or not self.d_grid:
            raise ValueError("context, ridge, and d grids must be nonempty")
        self.ridge_grid = [float(g) for g in self.ridge_grid]
        self.d_grid = [int(d) for d in self.d_grid]
        # caught here, not per context: each would fail every context of
        # the sweep, and d = 0 would score an empty embedding
        if self.d0 < 1 or not 0 < self.beta < np.inf:
            raise ValueError("d0 must be at least 1 and beta positive and finite")
        if not all(0 < g < np.inf for g in self.ridge_grid):
            raise ValueError("ridge penalties must be positive and finite")
        if min(self.d_grid) < 1:
            raise ValueError("every d in the d grid must be at least 1")

    def to_json_dict(self) -> dict:
        return as_native(asdict(self))


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a flat INI file ([experiment] section)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read or "experiment" not in parser:
        raise ValueError(f"config {path} must contain an [experiment] section")
    sec = parser["experiment"]
    unknown = sorted(set(sec) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"config {path} has unknown [experiment] keys: {unknown}")
    for key in ("dataset_path", "target_column", "context_grid",
                "ridge_grid", "d_grid"):
        if not sec.get(key):
            raise ValueError(f"config {path} is missing {key!r}")

    def split_list(key):
        return [tok.strip() for tok in sec[key].split(",") if tok.strip()]

    values = {"dataset_path": sec["dataset_path"],
              "target_column": sec["target_column"],
              "context_grid": split_list("context_grid"),
              "ridge_grid": [float(v) for v in split_list("ridge_grid")],
              "d_grid": [int(v) for v in split_list("d_grid")]}
    # optional keys: an absent one keeps the ExperimentConfig default
    optional = {"d0": sec.getint, "beta": sec.getfloat, "seed": sec.getint,
                "split_fractions": lambda key: tuple(
                    float(v) for v in split_list(key))}
    values.update({key: parse(key) for key, parse in optional.items()
                   if key in sec})
    return ExperimentConfig(**values)


def default_context_grid(n_pretrain: int, per_family: int) -> list[str]:
    """Log-spaced RBF bandwidths and neighbor counts spanning weak to strong
    association, truncated for tiny datasets."""
    gammas = np.geomspace(1e-4, 10.0, per_family)
    k_max = max(1, n_pretrain - 1)
    ks = np.unique(np.geomspace(1, k_max, per_family).astype(int))
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
    features, raw_target = array("d"), []  # each row parsed as it is read
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if target_column not in header:
            raise ValueError(f"{path}: missing target column {target_column!r}")
        t_col = header.index(target_column)
        feat_cols = [j for j in range(len(header)) if j != t_col]
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {reader.line_num} has {len(row)} "
                                 f"cells, expected {len(header)}")
            for j in feat_cols:
                try:
                    features.append(float(row[j]))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric feature cell at row "
                        f"{reader.line_num}, column {header[j]!r}: {row[j]!r}"
                    ) from None
            raw_target.append(row[t_col])
    n = len(raw_target)
    if n < 10:
        raise ValueError(f"{path}: need at least 10 data rows, got {n}")

    try:
        target = np.array([float(v) for v in raw_target])
    except ValueError:
        codes = {v: c for c, v in enumerate(sorted(set(raw_target)))}
        target = np.array([codes[v] for v in raw_target], dtype=float)

    points = PointSet(np.frombuffer(features).reshape(n, len(feat_cols)))
    return points, TaskFunction(target, DiscreteDistribution.uniform(n))


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

    The package's one standardization of a sample column: features and
    probe targets alike. A column whose reference rows are all equal
    (max == min) maps to exactly 0, even where roundoff in its mean leaves
    a std above 0; so does one whose spread is too small to square (std 0).
    """
    ref = features[ref_idx]
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    out = features - mean
    nonzero = (std > 0) & (ref.max(axis=0) > ref.min(axis=0))
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
    pre_set = PointSet(feats[idx_pre])

    y_norm = zscore_by_reference(task.values[:, None], idx_down)[:, 0]
    down = feats[idx_down], y_norm[idx_down]
    test = feats[idx_test], y_norm[idx_test]

    per_context, failures = [], []
    for ci, descriptor in enumerate(config.context_grid):
        entry, failure = _evaluate_context(descriptor, ci, config, pre_set,
                                           down, test)
        if failure is None:
            per_context.append(entry)
        else:
            failures.append(failure)

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


def _evaluate_context(descriptor, ci, config, pre_set, down,
                      test) -> tuple[dict | None, dict | None]:
    """Score one context: ``(entry, None)``, or ``(None, failure)`` when a
    typed numerical error stops its ``build``, ``spectrum`` or ``probe``
    stage. Resource errors propagate. ``down`` and ``test`` are the
    ``(features, target)`` blocks of the held-out rows."""
    stage = "build"
    try:
        ctx = build_from_descriptor(descriptor, pre_set,
                                    seed=_context_seed(config.seed, ci))
        if ctx.n_inputs != pre_set.n_points:  # inputs are the pretrain rows
            raise ValueError(f"{descriptor} has {ctx.n_inputs} inputs, not "
                             f"the {pre_set.n_points} pretrain rows")
        stage = "spectrum"
        spec = contexture_svd(ctx)
        s_nontrivial = spec.nontrivial_values
        score = usefulness_metric(s_nontrivial, d0=config.d0, beta=config.beta)

        stage = "probe"
        avail = s_nontrivial.size
        err_curve = []
        for d in config.d_grid:
            if d > avail:
                continue
            enc_pre = spec.left_functions[:, 1:d + 1]
            emb_down = extend_encoder(pre_set.points, enc_pre, down[0])
            emb_test = extend_encoder(pre_set.points, enc_pre, test[0])
            probe = fit_linear_probe((emb_down, down[1]), (emb_test, test[1]),
                                     config.ridge_grid, seed=config.seed)
            err_curve.append([int(d), float(probe.test_mse)])
        if not err_curve:
            raise ValueError(f"no usable embedding dimension for {descriptor}")
    except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
        return None, {"descriptor": descriptor, "error": str(exc),
                      "stage": stage, "type": type(exc).__name__}
    err_d_star = min(e for _, e in err_curve)
    return {
        "descriptor": descriptor,
        "tau": score.tau,
        "d_star_metric": score.d_star_metric,
        "degenerate_metric": score.degenerate,
        "decay_rate": score.decay_rate,
        "err_d": err_curve,
        "err_d_star": float(err_d_star),
    }, None


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
    # O_EXCL on a random name like mkstemp, but mode 0o666 so the umask applies
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
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
