"""Context and encoder evaluation: compatibility, approximation error,
the task-agnostic usefulness metric, association measures, and alignment
statistics between representations.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from ._linalg import (as_native, knn_index, orthonormal_basis,
                      principal_angle_cosines, span_svd, sq_dists,
                      weighted_norm)
from .context import DiscreteDistribution, FiniteContext, PointSet
from .errors import NumericalError
from .estimation import CovariancePair, estimate_covariances
from .objectives import SampleEncoder, _LeastSquaresForm, _ls_value_and_grad
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
        return as_native(asdict(self))


@dataclass(frozen=True, kw_only=True)
class SpectrumScore:
    """The usefulness score of a context from its singular values alone;
    ``decay_rate`` is None where fewer than 3 squared values exceed 1e-12."""

    tau_curve: np.ndarray
    tau: float
    d_star_metric: int
    degenerate: bool = False
    decay_rate: float | None
    beta: float
    d0: int

    def to_json_dict(self) -> dict:
        return as_native(asdict(self))


@dataclass(frozen=True, kw_only=True)
class UsefulnessReport(SpectrumScore):
    kernel_deviation: float
    lipschitz: float


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
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
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
    form = _LeastSquaresForm(w, f.values[:, None], intercept=True, offset=0.0)
    return _ls_value_and_grad(form, orthonormal_basis(enc.values, w, center=True))[0]


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
    One training row leaves nothing to validate on: the first penalty wins.
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
    if not all(0 < g < np.inf for g in grid):
        raise ValueError("ridge penalties must be positive and finite")

    order = np.random.default_rng(seed).permutation(x_train.shape[0])
    n_val = max(1, x_train.shape[0] // 5)
    fit_idx, val_idx = order[:-n_val], order[-n_val:]
    if fit_idx.size == 0:  # one row: nothing to validate against
        fit_idx, grid = val_idx, grid[:1]

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

def usefulness_metric(singular_values, d0: int, beta: float) -> SpectrumScore:
    """Task-agnostic usefulness curve over embedding dimensions, and the
    spectrum's decay rate: the whole score of a spectrum.

    ``singular_values`` are the nontrivial values in descending order
    (constant mode already excluded by the caller); missing tail values
    count as zero. tau_d combines a worst-case-error proxy with a
    spectral-mass ratio; the context score is the minimum over d.
    """
    if d0 < 1:
        raise ValueError("d0 must be at least 1")
    if not 0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    s = np.asarray(singular_values, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("singular values must be finite")
    try:
        rate = decay_rate(s)
    except ValueError:
        rate = None
    s = np.clip(s, 0.0, 1.0)
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
    return SpectrumScore(tau_curve=curve, tau=float(curve[d_star - 1]),
                         d_star_metric=d_star, degenerate=degenerate,
                         decay_rate=rate, beta=beta, d0=d0)


def decay_rate(singular_values) -> float:
    """Exponential decay-rate fit of the squared nontrivial spectrum.

    The rate in [0, 50] whose exp(-rate * i), i starting at 1, fits the
    squared values y_i of a descending spectrum in least squares. Half the
    objective's slope, sum_i i e^(-rate i) (y_i - e^(-rate i)), is <= 0 at
    0 because no nontrivial singular value exceeds 1, and > 0 at 50
    because y_1 > 1e-12 outweighs every e^(-50 i). Bisection on its sign
    runs until the midpoint rounds to an endpoint, so the rate moves by
    only a few ulp when the values do, and a flat spectrum fits 0 exactly.
    """
    s = np.asarray(singular_values, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("singular values must be finite")
    y = s ** 2
    if np.count_nonzero(y > 1e-12) < 3:
        raise ValueError("need at least 3 nontrivial singular values whose "
                         "squares exceed 1e-12")
    idx = np.arange(1, y.size + 1, dtype=float)
    lo, hi = 0.0, 50.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fit = np.exp(-mid * idx)
        if np.sum(idx * fit * (y - fit)) >= 0:
            hi = mid
        else:
            lo = mid
    return mid


def kernel_association_measures(kernel: np.ndarray, points: PointSet,
                                marginal: DiscreteDistribution,
                                lipschitz_sample: int = 1000):
    """Deviation-from-independence and smoothness statistics of a dual kernel.

    Returns ``(deviation, lipschitz)``: the marginal-weighted expected
    absolute deviation of the kernel from 1, and the maximum difference
    quotient over sampled index triples (coincident pairs skipped; the
    sample is a deterministic index stride of at least 2 points).

    The kernel must be a finite n x n matrix, with n the number of points
    and of marginal weights. The screened maximum equals an unscreened one.
    A kernel that is symmetric bit for bit, such as a dual kernel, has its
    rows read as its columns, so when the stride keeps every point the scan
    reads the kernel itself and nothing is copied.
    """
    kernel = np.asarray(kernel, dtype=float)
    n = len(marginal)
    if kernel.shape != (n, n) or points.n_points != n:
        raise ValueError(f"kernel must be n x n and points must have n rows for "
                         f"the marginal's n = {n}; got a kernel of shape "
                         f"{kernel.shape} and {points.n_points} points")
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel entries must be finite")
    w = marginal.weights
    gap = kernel - 1.0
    deviation = float(w @ np.abs(gap, out=gap) @ w)
    del gap

    if lipschitz_sample < 2:
        raise ValueError("lipschitz_sample must be at least 2 to form a pair, "
                         f"got {lipschitz_sample}")
    if lipschitz_sample > n:
        raise ValueError("lipschitz_sample must not exceed the support size")
    idx = np.unique(np.round(np.linspace(0, n - 1, lipschitz_sample)).astype(int))
    # row a holds kernel column a, so the gap between points a and b is the
    # max-abs distance between rows a and b
    if idx.size == n and np.array_equal(kernel, kernel.T):
        cols = kernel
    else:
        cols = kernel.T[np.ix_(idx, idx)]
    return deviation, _lipschitz_scan(cols, points.points[idx])


def _gaps(rows: np.ndarray, a: int, others: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """``max|rows[b] - rows[a]|`` for each index b in ``others``, gathered
    into ``out`` when given (its leading rows are overwritten)."""
    diff = np.take(rows, others, axis=0, mode="clip",
                   out=None if out is None else out[:len(others)])
    np.subtract(diff, rows[a], out=diff)
    return np.abs(diff, out=diff).max(axis=1)


@np.errstate(over="ignore")
def _lipschitz_scan(cols: np.ndarray, pts: np.ndarray) -> float:
    """Largest ``max|cols[a] - cols[b]| / |pts[a] - pts[b]|`` over distinct
    point pairs, each quotient computed as ``gap / dist`` in float64.

    One pass over the anchor rows keeps the largest quotient computed so
    far and the floor, the largest lower bound so far. The answer is a
    maximum, the same in any order, so a pair needs no float64 pass once a
    rigorous upper bound on its quotient is below the floor or at most that
    quotient; the rest of a row's pairs are computed at once. Rounding is
    monotone, so a bound put through it stays on its side, and a bound or
    gap that overflows is inf, which is still on its side.

    Each anchor row a is screened against its later distinct points. The
    range bound ``max(hi_a - lo_b, hi_b - lo_a) / dist``, with hi and lo a
    row's extremes, skips many pairs. The rest get bounds from int16 codes
    ``z = rint((x - base) / step)``, with base the smallest entry and step
    the span over 32767. The codes lie in [0, 32767], so their differences,
    absolute values and maxima are exact. A code is within 1/2 + 2^-36 of
    the real (x - base) / step: the subtraction and the division each round
    once, and the quotient is at most 32767. So the real gap is within
    (g +- (1 + 2^-35)) step of the code gap g, and the float64 gap is the
    real gap rounded once. With c = 1 + 2^-20, g + c and g - c are exact,
    ``(g + c) * step / dist`` is at or above the computed quotient and
    ``(g - c) * step / dist`` at or below it. This needs step to be finite
    and normal (at least 2^-1022; a subnormal step is rounded too coarsely
    to keep the codes below 32768). Otherwise only the range bound screens.
    """
    dists = sq_dists(pts, pts)
    np.sqrt(dists, out=dists)  # the points are finite: only 0 is coincident
    if not dists.any():
        raise ValueError("all sampled points coincide; Lipschitz estimate undefined")
    hi, lo = cols.max(axis=1), cols.min(axis=1)
    base = lo.min()
    step = (hi.max() - base) / 32767
    screened = np.finfo(float).tiny <= step < np.inf
    if screened:
        block = 64  # rows coded at once: the temporaries stay far below n x n
        codes = np.empty(cols.shape, dtype=np.int16)
        for start in range(0, len(cols), block):
            scaled = cols[start:start + block] - base
            scaled /= step
            np.rint(scaled, out=codes[start:start + block], casting="unsafe")
        buf = np.empty_like(codes)
    slack = 1.0 + 2.0 ** -20
    best = floor = 0.0
    for a in range(len(cols) - 1):
        b = a + 1 + np.flatnonzero(dists[a, a + 1:])
        d = dists[a, b]
        upper = np.maximum(hi[a] - lo[b], hi[b] - lo[a]) / d
        if screened:
            keep = (upper >= floor) & (upper > best)
            b, d = b[keep], d[keep]
            g = _gaps(codes, a, b, buf)
            floor = float(np.max((g - slack) * step / d, initial=floor))
            upper = (g + slack) * step / d
        keep = (upper >= floor) & (upper > best)
        if keep.any():
            best = max(best, float(np.max(_gaps(cols, a, b[keep]) / d[keep])))
    return best


def make_usefulness_report(spec: ContextureSpectrum, ctx: FiniteContext,
                           points: PointSet, d0: int, beta: float,
                           lipschitz_sample: int = 1000) -> UsefulnessReport:
    """The spectrum's score plus its dual kernel's association measures."""
    score = usefulness_metric(spec.nontrivial_values, d0=d0, beta=beta)
    deviation, lips = kernel_association_measures(
        dual_kernel(ctx), points, ctx.input_marginal,
        min(lipschitz_sample, ctx.n_inputs))
    return UsefulnessReport(**vars(score), kernel_deviation=deviation,
                            lipschitz=lips)


# ---------------------------------------------------------------------------
# encoder-versus-contexture diagnostics
# ---------------------------------------------------------------------------

def _basis_covariances(enc: SampleEncoder, ctx: FiniteContext) -> CovariancePair:
    """Covariance pair of an orthonormal basis of the encoder's centred span:
    its input covariance is the identity up to roundoff, and dependent
    columns drop out at the ``orthonormal_basis`` rank cutoff."""
    if enc.support != "input":
        raise ValueError("expected an input-support encoder")
    basis = orthonormal_basis(enc.values, ctx.input_marginal.weights,
                              center=True)
    if basis.shape[1] == 0:
        raise ValueError("encoder has no non-constant independent columns")
    return estimate_covariances(
        SampleEncoder(basis, "input", ctx.input_marginal), ctx)


def ratio_trace(enc: SampleEncoder, ctx: FiniteContext) -> float:
    """Alignment of an encoder with the contexture.

    Trace of input-covariance-inverse times the adjoint-pushed covariance,
    taken on an orthonormal basis of the centred column span, where it is
    the trace of the pushed covariance alone. Invariant under invertible
    column mixing and at most the sum of the top squared singular values.
    """
    return float(np.trace(_basis_covariances(enc, ctx).b_phi))


def trace_gap_bound(enc: SampleEncoder, ctx: FiniteContext,
                    spec: ContextureSpectrum, epsilon: float):
    """Certified upper bound on the encoder's trace gap and the induced
    worst-case approximation-error bound.

    The true trace gap is an infimum over function families and is not
    computed; ``gap_upper`` substitutes the encoder's own ratio trace,
    which upper-bounds it. The error bound is finite only when the
    surrogate stays below the top nontrivial singular value. The sum of
    squared singular values is sized by the rank of the encoder's centred
    span, so a dependent column changes neither result.
    """
    s = spec.nontrivial_values
    s1 = float(s[0]) if s.size else 0.0
    if epsilon <= 1.0 - s1:
        raise ValueError(f"epsilon must exceed 1 - s_1 = {1.0 - s1}")
    cov = _basis_covariances(enc, ctx)
    rank = cov.c_phi.shape[0]
    sq = np.zeros(rank + 1)
    take = min(s.size, rank + 1)
    sq[:take] = s[:take] ** 2
    gap_upper = float(np.sum(sq)) - float(np.trace(cov.b_phi))
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
    """Between-versus-within discriminant score of an encoder, taken on an
    orthonormal basis of its centred span: invariant under invertible
    column mixing, and a dependent column adds nothing."""
    cov = _basis_covariances(enc, ctx)
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

    The canonical correlations are the principal-angle cosines between the
    centred column spans (Bjorck & Golub 1973), invariant to invertible
    linear transformations of either encoder. They are averaged over
    min(d1, d2): a direction a rank-deficient encoder lacks counts as 0.
    """
    if enc1.values.shape[0] != enc2.values.shape[0]:
        raise ValueError("encoders must share a support")
    cos = principal_angle_cosines(enc1.values, enc2.values, marginal.weights,
                                  center=True)
    if cos.size == 0:
        raise ValueError("zero-variance encoder; CCA undefined")
    return float(np.sum(cos ** 2) / min(enc1.d, enc2.d))


def mutual_knn(enc1: SampleEncoder, enc2: SampleEncoder, k: int) -> float:
    """Mean intersection-over-union of k-nearest-neighbor sets, taken on
    each encoder's centred span (the one ``cca_alignment`` compares), so a
    dependent column adds nothing."""
    n = enc1.values.shape[0]
    if enc2.values.shape[0] != n:
        raise ValueError("encoders must share a support")
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}]")
    sets = []
    for enc in (enc1, enc2):
        _, s, vt = span_svd(enc.values, enc.marginal.weights, center=True)
        if s.size == 0:
            raise ValueError("zero-variance encoder; neighbors undefined")
        # s[0] * orthonormal_basis plus a constant shift, so the same
        # neighbors; a single column is scaled by exactly +-1, keeping ties
        coords = enc.values @ (vt.T * (s[0] / s))
        sets.append([set(row) for row in knn_index(coords, k).tolist()])
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("correlation inputs must be finite")
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
