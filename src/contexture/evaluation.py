"""Context and encoder evaluation: compatibility, approximation error,
the task-agnostic usefulness metric, association measures, and alignment
statistics between representations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._linalg import (golden_section_min, independent_columns, nearest,
                      sq_dists, sym_inv_sqrt, weighted_center, weighted_norm,
                      whiten_columns)
from .context import DiscreteDistribution, FiniteContext, PointSet
from .errors import NumericalError
from .estimation import estimate_covariances
from .objectives import SampleEncoder
from .spectral import ContextureSpectrum, dual_kernel

ACTIVE_TOL = 1e-8


@dataclass(frozen=True)
class TaskFunction:
    """A target function tabulated on the input support."""

    values: np.ndarray
    marginal: DiscreteDistribution

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != len(self.marginal):
            raise ValueError("values must be a 1-d vector matching the marginal")
        if not np.all(np.isfinite(v)):
            raise ValueError("task values must be finite")
        object.__setattr__(self, "values", v)

    def normalize(self) -> "TaskFunction":
        """Zero-mean, unit-variance version under the marginal."""
        w = self.marginal.weights
        centered = self.values - float(w @ self.values)
        scale = weighted_norm(centered, w)
        if scale <= 0.0:
            raise ValueError("task function is constant; cannot normalize")
        return TaskFunction(centered / scale, self.marginal)


@dataclass(frozen=True)
class ProbeResult:
    weights: np.ndarray
    bias: float
    ridge_penalty: float
    train_mse: float
    test_mse: float

    def to_json_dict(self) -> dict:
        return {"weights": np.asarray(self.weights).tolist(),
                "bias": float(self.bias),
                "ridge_penalty": float(self.ridge_penalty),
                "train_mse": float(self.train_mse),
                "test_mse": float(self.test_mse)}


@dataclass(frozen=True)
class TauFragment:
    """Usefulness-metric outputs derived from singular values alone."""

    tau_curve: np.ndarray
    tau: float
    d_star_metric: int
    degenerate: bool


@dataclass(frozen=True)
class UsefulnessReport:
    tau_curve: np.ndarray
    tau: float
    d_star_metric: int
    decay_rate: float
    beta: float
    d0: int
    kernel_deviation: float
    lipschitz: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["tau_curve"] = np.asarray(self.tau_curve).tolist()
        return data

    def save_tau_curve_csv(self, path) -> None:
        save_tau_curve_csv(self.tau_curve, path)


def save_tau_curve_csv(tau_curve, path) -> None:
    """Write the (d, tau_d) curve as CSV, d counted from 1."""
    with open(path, "w") as fh:
        fh.write("d,tau_d\n")
        for d, tau_d in enumerate(tau_curve, start=1):
            fh.write(f"{d},{tau_d!r}\n")


# ---------------------------------------------------------------------------
# compatibility and approximation error
# ---------------------------------------------------------------------------

def _nontrivial_coefficients(spec: ContextureSpectrum,
                             f_values: np.ndarray) -> np.ndarray:
    w = spec.input_marginal.weights
    return spec.left_functions[:, 1:].T @ (w * f_values)


def compatibility(spec: ContextureSpectrum, f: TaskFunction) -> float:
    """How much of the task's variance the context can transfer.

    Closed form over the computed spectrum: the square root of the
    singular-value-squared weighted fraction of the centered task's mass
    on the nontrivial singular functions. Task mass outside the spectrum's
    span counts in the denominator only.
    """
    f = f.normalize()
    u = _nontrivial_coefficients(spec, f.values)
    s = spec.nontrivial_values
    num = float(np.sum((s * u) ** 2))
    den = weighted_norm(f.values, spec.input_marginal.weights) ** 2
    return float(np.sqrt(num / den))


def worst_case_err(spec: ContextureSpectrum, d: int, epsilon: float) -> float:
    """Worst linear-probe error of the optimal d-dim encoder over the
    compatible task class at compatibility level 1 - epsilon."""
    s = spec.nontrivial_values
    s1 = float(s[0]) if s.size else 0.0
    s2 = float(s[1]) if s.size > 1 else 0.0
    lo = 1.0 - s1
    hi = 1.0 - np.sqrt((s1 ** 2 + s2 ** 2) / 2.0)
    if epsilon < lo - 1e-12:
        raise ValueError(
            f"epsilon={epsilon} violates the lower bound 1 - s_1 = {lo}")
    if epsilon > hi + 1e-12:
        raise ValueError(
            f"epsilon={epsilon} violates the upper bound "
            f"1 - sqrt((s_1^2 + s_2^2)/2) = {hi}")
    s_next = float(s[d]) if d < s.size else 0.0
    denom = s1 ** 2 - s_next ** 2
    if denom <= 1e-15:
        raise ValueError(
            "flat spectrum through d+1: the worst-case error formula degenerates")
    return (s1 ** 2 - (1.0 - epsilon) ** 2) / denom


def approx_err(enc: SampleEncoder, f: TaskFunction) -> float:
    """Best affine fit residual of the task on the encoder columns."""
    if enc.values.shape[0] != f.values.size:
        raise ValueError("encoder and task must share a support")
    w = f.marginal.weights
    design = np.concatenate([enc.values, np.ones((enc.values.shape[0], 1))],
                            axis=1)
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(sw[:, None] * design, sw * f.values,
                                       rcond=None)
    if rank < design.shape[1]:
        warnings.warn("rank-deficient probe design; pseudo-inverse used",
                      RuntimeWarning, stacklevel=2)
    resid = design @ coef - f.values
    return float(w @ resid ** 2)


# ---------------------------------------------------------------------------
# linear probes on samples
# ---------------------------------------------------------------------------

def _ridge_fit(x: np.ndarray, y: np.ndarray, penalty: float):
    design = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    reg = penalty * np.eye(design.shape[1])
    reg[-1, -1] = 0.0  # intercept unpenalized
    coef = np.linalg.solve(design.T @ design + reg, design.T @ y)
    return coef[:-1], float(coef[-1])


def _mse(x, y, weights, bias):
    return float(np.mean((x @ weights + bias - y) ** 2))


def fit_linear_probe(train, test, ridge_grid, seed: int = 0) -> ProbeResult:
    """Ridge-regression probe with a held-out validation fifth.

    The validation rows are the last fifth of the training rows after a
    seeded shuffle; the penalty minimizing validation MSE wins (first in
    grid order on ties) and the probe is refit on the full training set.
    """
    x_train, y_train = (np.asarray(a, dtype=float) for a in train)
    x_test, y_test = (np.asarray(a, dtype=float) for a in test)
    if x_train.ndim == 1:
        x_train = x_train[:, None]
    if x_test.ndim == 1:
        x_test = x_test[:, None]
    if x_train.shape[0] == 0 or x_test.shape[0] == 0:
        raise ValueError("train and test splits must be nonempty")
    grid = [float(g) for g in ridge_grid]
    if not grid:
        raise ValueError("ridge grid must be nonempty")
    if any(g <= 0 for g in grid):
        raise ValueError("ridge penalties must be positive")

    order = np.random.default_rng(seed).permutation(x_train.shape[0])
    n_val = max(1, x_train.shape[0] // 5)
    fit_idx, val_idx = order[:-n_val], order[-n_val:]
    if fit_idx.size == 0:
        fit_idx = val_idx

    best_penalty, best_val = grid[0], np.inf
    for penalty in grid:
        w, b = _ridge_fit(x_train[fit_idx], y_train[fit_idx], penalty)
        val = _mse(x_train[val_idx], y_train[val_idx], w, b)
        if val < best_val:
            best_val, best_penalty = val, penalty
    w, b = _ridge_fit(x_train, y_train, best_penalty)
    return ProbeResult(weights=w, bias=b, ridge_penalty=best_penalty,
                       train_mse=_mse(x_train, y_train, w, b),
                       test_mse=_mse(x_test, y_test, w, b))


# ---------------------------------------------------------------------------
# the usefulness metric and association measures
# ---------------------------------------------------------------------------

def usefulness_metric(singular_values, d0: int, beta: float) -> TauFragment:
    """Task-agnostic usefulness curve over embedding dimensions.

    ``singular_values`` are the nontrivial values in descending order
    (constant mode already excluded by the caller); missing tail values
    count as zero. tau_d combines a worst-case-error proxy with a
    spectral-mass ratio; the context score is the minimum over d.
    """
    if d0 < 1:
        raise ValueError("d0 must be at least 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    s = np.clip(np.asarray(singular_values, dtype=float), 0.0, 1.0)
    sq = np.zeros(d0 + 1)
    take = min(s.size, d0 + 1)
    sq[:take] = s[:take] ** 2
    partial = np.cumsum(sq)
    total = float(partial[d0 - 1])
    degenerate = total <= 0.0
    ratio = np.ones(d0) if degenerate else partial[:d0] / total
    with np.errstate(divide="ignore"):
        first = 1.0 / (1.0 - sq[1:d0 + 1])
    curve = first + beta * ratio
    d_star = int(np.argmin(curve)) + 1
    return TauFragment(tau_curve=curve, tau=float(curve[d_star - 1]),
                       d_star_metric=d_star, degenerate=degenerate)


def decay_rate(singular_values) -> float:
    """Exponential decay-rate fit of the squared nontrivial spectrum.

    Least squares of squared values against exp(-rate * index), index
    starting at 1, solved by golden-section search on [0, 50].
    """
    y = np.asarray(singular_values, dtype=float) ** 2
    if np.count_nonzero(y > 1e-12) < 3:
        raise ValueError("need at least 3 nontrivial singular values above 1e-12")
    idx = np.arange(1, y.size + 1, dtype=float)

    def objective(rate: float) -> float:
        return float(np.sum((y - np.exp(-rate * idx)) ** 2))

    return golden_section_min(objective, 0.0, 50.0)


def kernel_association_measures(kernel: np.ndarray, points: PointSet,
                                marginal: DiscreteDistribution,
                                lipschitz_sample: int = 1000):
    """Deviation-from-independence and smoothness statistics of a dual kernel.

    Returns ``(deviation, lipschitz)``: the marginal-weighted expected
    absolute deviation of the kernel from 1, and the maximum difference
    quotient over sampled index triples (coincident pairs skipped; the
    sample is a deterministic index stride).
    """
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    w = marginal.weights
    deviation = float(w @ np.abs(kernel - 1.0) @ w)

    if lipschitz_sample > n:
        raise ValueError("lipschitz_sample must not exceed the support size")
    if lipschitz_sample == n:
        idx = np.arange(n)
    else:
        idx = np.unique(np.round(np.linspace(0, n - 1, lipschitz_sample)).astype(int))
    pts = points.points[idx]
    sub = kernel[np.ix_(idx, idx)]
    best = 0.0
    found_distinct = False
    for a in range(len(idx) - 1):
        diffs = pts[a + 1:] - pts[a]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        ok = dists > 0
        if not np.any(ok):
            continue
        found_distinct = True
        gaps = np.max(np.abs(sub[:, a + 1:] - sub[:, [a]]), axis=0)
        best = max(best, float(np.max(gaps[ok] / dists[ok])))
    if not found_distinct:
        raise ValueError("all sampled points coincide; Lipschitz estimate undefined")
    return deviation, best


def make_usefulness_report(spec: ContextureSpectrum, ctx: FiniteContext,
                           points: PointSet, d0: int, beta: float,
                           lipschitz_sample: int = 1000) -> UsefulnessReport:
    """Assemble the full usefulness report for one context."""
    frag = usefulness_metric(spec.nontrivial_values, d0=d0, beta=beta)
    try:
        rate = decay_rate(spec.nontrivial_values)
    except ValueError:
        rate = float("nan")
    deviation, lips = kernel_association_measures(
        dual_kernel(ctx), points, ctx.input_marginal,
        min(lipschitz_sample, ctx.n_inputs))
    return UsefulnessReport(tau_curve=frag.tau_curve, tau=frag.tau,
                            d_star_metric=frag.d_star_metric, decay_rate=rate,
                            beta=beta, d0=d0, kernel_deviation=deviation,
                            lipschitz=lips, degenerate=frag.degenerate)


# ---------------------------------------------------------------------------
# encoder-versus-contexture diagnostics
# ---------------------------------------------------------------------------

def ratio_trace(enc: SampleEncoder, ctx: FiniteContext) -> float:
    """Alignment of an encoder with the contexture.

    Trace of input-covariance-inverse times the adjoint-pushed covariance,
    computed on a maximal linearly independent subset of the centered
    columns; invariant under invertible column mixing and at most the sum
    of the top squared singular values.
    """
    if enc.support != "input":
        raise ValueError("ratio_trace expects an input-support encoder")
    w = ctx.input_marginal.weights
    cols = independent_columns(enc.centered(), w)
    if not cols:
        raise ValueError("encoder has no non-constant independent columns")
    reduced = SampleEncoder(enc.values[:, cols], "input", enc.marginal)
    cov = estimate_covariances(reduced, ctx)
    return float(np.trace(np.linalg.solve(cov.c_phi, cov.b_phi)))


def trace_gap_bound(enc: SampleEncoder, ctx: FiniteContext,
                    spec: ContextureSpectrum, epsilon: float):
    """Certified upper bound on the encoder's trace gap and the induced
    worst-case approximation-error bound.

    The true trace gap is an infimum over function families and is not
    computed; ``gap_upper`` substitutes the encoder's own ratio trace,
    which upper-bounds it. The error bound is finite only when the
    surrogate stays below the top nontrivial singular value.
    """
    s = spec.nontrivial_values
    s1 = float(s[0]) if s.size else 0.0
    if epsilon <= 1.0 - s1:
        raise ValueError(f"epsilon must exceed 1 - s_1 = {1.0 - s1}")
    d = enc.d
    sq = np.zeros(d + 1)
    take = min(s.size, d + 1)
    sq[:take] = s[:take] ** 2
    gap_upper = float(np.sum(sq)) - ratio_trace(enc, ctx)
    if gap_upper < s1:
        err_bound = (s1 ** 2 - (1.0 - epsilon) ** 2 + s1 * gap_upper) / (
            s1 ** 2 - gap_upper ** 2)
    else:
        err_bound = float("inf")
    return gap_upper, err_bound


def compatible_lift(spec: ContextureSpectrum, f: TaskFunction):
    """Exact context-side preimage of a compatible task.

    Returns ``(g, variance_stat, bound)`` where ``g`` solves the forward
    equation for the centered task, ``variance_stat`` is the exact
    expected squared two-view gap of g, and ``bound`` is the compatibility
    bound it is compared against.
    """
    f = f.normalize()
    u = _nontrivial_coefficients(spec, f.values)
    s = spec.nontrivial_values
    dead = s <= ACTIVE_TOL
    if np.any(np.abs(u[dead]) > ACTIVE_TOL):
        raise ValueError("task has mass on zero singular modes; no exact lift")
    residual = f.values - spec.left_functions[:, 1:] @ u
    if weighted_norm(residual, spec.input_marginal.weights) > ACTIVE_TOL:
        raise ValueError("task has mass outside the spectrum span; no exact lift")
    coeffs = np.where(dead, 0.0, u / np.where(dead, 1.0, s))
    g = spec.right_functions[:, 1:] @ coeffs
    norm_sq = float(np.sum(coeffs ** 2))
    pushed = float(np.sum((s * coeffs) ** 2))  # <g, adjoint-forward g>
    variance_stat = 2.0 * (norm_sq - pushed)
    rho = compatibility(spec, f)
    bound = 4.0 * (1.0 - rho) * norm_sq
    return g, variance_stat, bound


def fisher_discriminant(enc: SampleEncoder, ctx: FiniteContext) -> float:
    """Between-versus-within discriminant score of an encoder."""
    cov = estimate_covariances(enc, ctx)
    try:
        solved = np.linalg.solve(cov.c_phi - cov.b_phi, cov.b_phi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("within-minus-between covariance is singular") from exc
    return 2.0 * float(np.trace(solved))


# ---------------------------------------------------------------------------
# representation alignment
# ---------------------------------------------------------------------------

def cca_alignment(enc1: SampleEncoder, enc2: SampleEncoder,
                  marginal: DiscreteDistribution) -> float:
    """Mean squared canonical correlation between two encoders.

    Invariant to invertible linear transformations of either encoder;
    covariances are regularized by 1e-10 times their trace.
    """
    if enc1.values.shape[0] != enc2.values.shape[0]:
        raise ValueError("encoders must share a support")
    w = marginal.weights
    a = weighted_center(enc1.values, w)
    b = weighted_center(enc2.values, w)
    caa = a.T @ (w[:, None] * a)
    cbb = b.T @ (w[:, None] * b)
    if np.trace(caa) <= 0 or np.trace(cbb) <= 0:
        raise ValueError("zero-variance encoder; CCA undefined")
    caa += 1e-10 * np.trace(caa) * np.eye(caa.shape[0])
    cbb += 1e-10 * np.trace(cbb) * np.eye(cbb.shape[0])
    cab = a.T @ (w[:, None] * b)
    core = sym_inv_sqrt(caa) @ cab @ sym_inv_sqrt(cbb)
    cos = np.clip(np.linalg.svd(core, compute_uv=False), 0.0, 1.0)
    k = min(enc1.d, enc2.d)
    return float(np.mean(cos[:k] ** 2))


def mutual_knn(enc1: SampleEncoder, enc2: SampleEncoder, k: int) -> float:
    """Mean intersection-over-union of k-nearest-neighbor sets.

    Both encoders are centered and whitened under their marginals first.
    """
    n = enc1.values.shape[0]
    if enc2.values.shape[0] != n:
        raise ValueError("encoders must share a support")
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}]")
    sets = []
    for enc in (enc1, enc2):
        white = whiten_columns(enc.values, enc.marginal.weights)
        dists = sq_dists(white, white)
        np.fill_diagonal(dists, np.inf)  # a point is not its own neighbor
        sets.append([set(row) for row in nearest(dists, k).tolist()])
    scores = [len(s1 & s2) / len(s1 | s2) for s1, s2 in zip(*sets)]
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# correlation statistics
# ---------------------------------------------------------------------------

def correlation_stats(a, b):
    """Pearson and distance correlation between two scalar sequences."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size or a.size < 3:
        raise ValueError("need two equal-length vectors with at least 3 entries")
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        raise ValueError("zero variance; Pearson correlation undefined")
    pearson = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))

    def centered_dists(v):
        d = np.abs(v[:, None] - v[None, :])
        return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()

    da, db = centered_dists(a), centered_dists(b)
    dcov2 = float(np.mean(da * db))
    dvar_a = float(np.mean(da * da))
    dvar_b = float(np.mean(db * db))
    if dvar_a <= 0 or dvar_b <= 0:
        distance = 0.0
    else:
        distance = float(np.sqrt(max(dcov2, 0.0) / np.sqrt(dvar_a * dvar_b)))
    return pearson, distance
