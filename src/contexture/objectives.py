"""Pretraining objectives solved in closed form and by gradient descent.

Each objective kind has a spectral characterization of its minimizer:
either the top nontrivial singular functions of the expectation operator
(the contexture), or the top eigenfunctions of the operator sandwiched
with a loss kernel. ``solve_spectral`` returns that closed form;
``solve_variational`` minimizes the same population objective over raw
value matrices on the finite support, which realizes the unrestricted
function class the characterizations quantify over.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._linalg import (fix_signs, sym_inv_sqrt, weighted_center,
                      weighted_cov, weighted_mean)
from .context import DiscreteDistribution, FiniteContext
from .errors import ConstraintViolationError, DivergenceError
from .spectral import contexture_svd

CONSTRAINT_ATOL = 1e-6


class LossKernelKind(str, Enum):
    INDICATOR = "indicator"
    LINEAR = "linear"
    CENTERED_LINEAR = "centered_linear"


class ObjectiveKind(str, Enum):
    SUPERVISED_UNBIASED = "supervised_unbiased"
    SUPERVISED_BALANCED = "supervised_balanced"
    REGRESSION_BIASED = "regression_biased"
    REGRESSION_UNBIASED = "regression_unbiased"
    MULTIVIEW_CONTRASTIVE = "multiview_contrastive"
    MULTIVIEW_NONCONTRASTIVE = "multiview_noncontrastive"
    RECONSTRUCTION_BIASED = "reconstruction_biased"
    RECONSTRUCTION_UNBIASED = "reconstruction_unbiased"
    NODE_EMBEDDING = "node_embedding"


# objectives whose minimizer is the contexture itself (constant excluded)
_CONTEXTURE_KINDS = {
    ObjectiveKind.SUPERVISED_BALANCED,
    ObjectiveKind.MULTIVIEW_CONTRASTIVE,
    ObjectiveKind.MULTIVIEW_NONCONTRASTIVE,
    ObjectiveKind.NODE_EMBEDDING,
}
# objectives solved on the context support
_CONTEXT_SUPPORT_KINDS = {
    ObjectiveKind.MULTIVIEW_CONTRASTIVE,
    ObjectiveKind.MULTIVIEW_NONCONTRASTIVE,
    ObjectiveKind.RECONSTRUCTION_BIASED,
    ObjectiveKind.RECONSTRUCTION_UNBIASED,
}
_CONSTRAINED_KINDS = {
    ObjectiveKind.MULTIVIEW_NONCONTRASTIVE,
    ObjectiveKind.NODE_EMBEDDING,
}


class SampleEncoder:
    """Encoder values tabulated on a finite support.

    ``support`` is ``"input"`` or ``"context"``; ``marginal`` is the
    weighting distribution of that support. Mean, centered values, and
    covariance are cached on first access.
    """

    def __init__(self, values: np.ndarray, support: str,
                 marginal: DiscreteDistribution):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("values must be an n x d matrix with d >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("encoder values must be finite")
        if support not in ("input", "context"):
            raise ValueError("support must be 'input' or 'context'")
        if values.shape[0] != len(marginal):
            raise ValueError("values row count must match the marginal")
        self.values = values
        self.support = support
        self.marginal = marginal
        self._mean = None
        self._centered = None
        self._cov = None

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = weighted_mean(self.values, self.marginal.weights)
        return self._mean

    def centered(self) -> np.ndarray:
        if self._centered is None:
            self._centered = self.values - self.mean()
        return self._centered

    def cov(self) -> np.ndarray:
        if self._cov is None:
            w = self.marginal.weights
            c = self.centered()
            self._cov = c.T @ (w[:, None] * c)
        return self._cov


@dataclass(frozen=True)
class VariationalOptions:
    steps: int = 5000
    learning_rate: float = 0.05
    seed: int = 0
    constraint_mode: str = "whiten"
    penalty_weight: float = 10.0


def loss_kernel_matrix(kind, context_vectors: np.ndarray | None,
                       marginal: DiscreteDistribution) -> np.ndarray:
    """Kernel matrix on the context support induced by a loss function.

    ``indicator`` compares points for identity (vectors, if given, must
    match exactly); ``linear`` is the plain inner product of the context
    vectors; ``centered_linear`` subtracts their marginal mean first.
    """
    kind = LossKernelKind(kind)
    if kind is LossKernelKind.INDICATOR:
        if context_vectors is None:
            return np.eye(len(marginal))
        vecs = np.atleast_2d(np.asarray(context_vectors, dtype=float))
        if vecs.shape[0] != len(marginal):
            raise ValueError("context vectors must match the marginal length")
        return np.all(vecs[:, None, :] == vecs[None, :, :], axis=2).astype(float)
    if context_vectors is None:
        raise ValueError(f"{kind.value} kernel needs context vectors")
    vecs = np.asarray(context_vectors, dtype=float)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    if vecs.shape[0] != len(marginal):
        raise ValueError("context vectors must match the marginal length")
    if kind is LossKernelKind.CENTERED_LINEAR:
        vecs = vecs - marginal.weights @ vecs
    return vecs @ vecs.T


def _resolve_aux(objective: ObjectiveKind, ctx: FiniteContext,
                 aux: np.ndarray | None) -> np.ndarray:
    """Coordinate vectors the loss kernel acts on; one-hot when absent."""
    if objective in (ObjectiveKind.RECONSTRUCTION_BIASED,
                     ObjectiveKind.RECONSTRUCTION_UNBIASED):
        size = ctx.n_inputs
    else:
        size = ctx.n_context
    if aux is None:
        return np.eye(size)
    aux = np.asarray(aux, dtype=float)
    if aux.ndim == 1:
        aux = aux[:, None]
    if aux.shape[0] != size:
        raise ValueError(f"aux must have {size} rows for {objective.value}")
    return aux


def _top_weighted_eigenfunctions(op_core: np.ndarray, weights: np.ndarray,
                                 d: int) -> np.ndarray:
    """Top eigenfunctions of a weights-self-adjoint operator.

    ``op_core`` must be the symmetric whitened matrix; returns d columns
    orthonormal under the weighting distribution, descending eigenvalues.
    """
    sym = 0.5 * (op_core + op_core.T)
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals, kind="stable")[::-1]
    # C order: downstream BLAS products round differently by memory layout
    top = np.ascontiguousarray(evecs[:, order[:d]] / np.sqrt(weights)[:, None])
    fix_signs(top)
    return top


def _symmetric_sandwich(ctx: FiniteContext, kernel: np.ndarray) -> np.ndarray:
    """Whitened matrix of forward o loss-kernel o adjoint on the input side."""
    p = ctx.input_marginal.weights
    b = np.sqrt(p)[:, None] * ctx.conditional
    return b @ kernel @ b.T


def _symmetric_sandwich_context(ctx: FiniteContext, kernel: np.ndarray) -> np.ndarray:
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    b = (p[:, None] * ctx.conditional) / np.sqrt(q)[None, :]
    return b.T @ kernel @ b


def solve_spectral(objective, ctx: FiniteContext, d: int,
                   aux: np.ndarray | None = None) -> SampleEncoder:
    """Closed-form minimizer of a pretraining objective.

    Contexture-type objectives return top nontrivial singular functions
    (left for balanced supervision and node embeddings, right for the
    multi-view losses, with the contrastive columns carrying their
    singular-value scaling so the loss value is also optimal). The
    remaining kinds return top eigenfunctions of the loss-kernel
    sandwiched operator; unbiased variants keep whatever the operator
    ranks on top, constant mode included.
    """
    objective = ObjectiveKind(objective)
    if d < 1:
        raise ValueError("d must be at least 1")
    if objective in _CONTEXTURE_KINDS:
        full = min(ctx.n_inputs, ctx.n_context)
        if d + 1 > full:
            raise ValueError(f"d={d} exceeds the nontrivial rank {full - 1}")
        spec = contexture_svd(ctx, rank=d + 1)
        if objective is ObjectiveKind.MULTIVIEW_CONTRASTIVE:
            values = spec.right_functions[:, 1:] * spec.singular_values[None, 1:]
            return SampleEncoder(values, "context", ctx.context_marginal)
        if objective is ObjectiveKind.MULTIVIEW_NONCONTRASTIVE:
            return SampleEncoder(spec.right_functions[:, 1:], "context",
                                 ctx.context_marginal)
        return SampleEncoder(spec.left_functions[:, 1:], "input",
                             ctx.input_marginal)

    core, side = _sandwiched_operator(objective, ctx, aux)
    if side == "context":
        if d > ctx.n_context:
            raise ValueError(f"d={d} exceeds the context support size")
        funcs = _top_weighted_eigenfunctions(core, ctx.context_marginal.weights, d)
        return SampleEncoder(funcs, "context", ctx.context_marginal)
    if d > ctx.n_inputs:
        raise ValueError(f"d={d} exceeds the input support size")
    funcs = _top_weighted_eigenfunctions(core, ctx.input_marginal.weights, d)
    return SampleEncoder(funcs, "input", ctx.input_marginal)


def _sandwiched_operator(objective: ObjectiveKind, ctx: FiniteContext,
                         aux: np.ndarray | None):
    """Whitened loss-kernel sandwich of the expectation operator, plus the
    support side it acts on."""
    vectors = _resolve_aux(objective, ctx, aux)
    if objective is ObjectiveKind.SUPERVISED_UNBIASED:
        kernel = loss_kernel_matrix(LossKernelKind.INDICATOR,
                                    None if aux is None else vectors,
                                    ctx.context_marginal)
    elif objective is ObjectiveKind.REGRESSION_UNBIASED:
        kernel = loss_kernel_matrix(LossKernelKind.LINEAR, vectors,
                                    ctx.context_marginal)
    elif objective is ObjectiveKind.REGRESSION_BIASED:
        kernel = loss_kernel_matrix(LossKernelKind.CENTERED_LINEAR, vectors,
                                    ctx.context_marginal)
    elif objective is ObjectiveKind.RECONSTRUCTION_UNBIASED:
        kernel = loss_kernel_matrix(LossKernelKind.LINEAR, vectors,
                                    ctx.input_marginal)
    elif objective is ObjectiveKind.RECONSTRUCTION_BIASED:
        kernel = loss_kernel_matrix(LossKernelKind.CENTERED_LINEAR, vectors,
                                    ctx.input_marginal)
    else:
        raise ValueError(f"{objective} has no loss-kernel sandwich form")
    if objective in (ObjectiveKind.RECONSTRUCTION_BIASED,
                     ObjectiveKind.RECONSTRUCTION_UNBIASED):
        return _symmetric_sandwich_context(ctx, kernel), "context"
    return _symmetric_sandwich(ctx, kernel), "input"


def operator_eigenvalues(objective, ctx: FiniteContext,
                         aux: np.ndarray | None = None) -> np.ndarray:
    """Descending spectrum of the operator whose top eigenspace the
    objective extracts; handy for spotting degenerate test instances.

    Contexture-type objectives report the nontrivial singular values; the
    loss-kernel objectives report the sandwiched operator's eigenvalues.
    """
    objective = ObjectiveKind(objective)
    if objective in _CONTEXTURE_KINDS:
        return contexture_svd(ctx).nontrivial_values
    core, _ = _sandwiched_operator(objective, ctx, aux)
    evals = np.linalg.eigvalsh(0.5 * (core + core.T))
    return evals[::-1]


# ---------------------------------------------------------------------------
# exact population losses (shared by eval_objective and the solver)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LeastSquaresForm:
    """Reduced weighted least-squares equivalent of a fitting objective.

    Minimizing sum_i w_i ||W phi_i + b - m_i||^2 + offset over (W, b)
    reproduces the exact population objective.
    """

    row_weights: np.ndarray
    targets: np.ndarray
    intercept: bool
    support: str
    offset: float


def _least_squares_form(objective: ObjectiveKind, ctx: FiniteContext,
                        vectors: np.ndarray) -> _LeastSquaresForm:
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    t = ctx.conditional
    if objective in (ObjectiveKind.SUPERVISED_UNBIASED,
                     ObjectiveKind.REGRESSION_UNBIASED,
                     ObjectiveKind.REGRESSION_BIASED):
        targets = t @ vectors
        offset = float(q @ np.sum(vectors ** 2, axis=1)
                       - p @ np.sum(targets ** 2, axis=1))
        intercept = objective is ObjectiveKind.REGRESSION_BIASED
        return _LeastSquaresForm(p, targets, intercept, "input", offset)
    if objective is ObjectiveKind.SUPERVISED_BALANCED:
        inv_sq = 1.0 / np.sqrt(q)
        rho = t @ inv_sq
        targets = (t * inv_sq[None, :]) @ vectors / rho[:, None]
        weights = p * rho
        offset = float(np.sqrt(q) @ np.sum(vectors ** 2, axis=1)
                       - weights @ np.sum(targets ** 2, axis=1))
        return _LeastSquaresForm(weights, targets, True, "input", offset)
    if objective in (ObjectiveKind.RECONSTRUCTION_BIASED,
                     ObjectiveKind.RECONSTRUCTION_UNBIASED):
        adj = (t * p[:, None]).T / q[:, None]
        targets = adj @ vectors
        offset = float(p @ np.sum(vectors ** 2, axis=1)
                       - q @ np.sum(targets ** 2, axis=1))
        intercept = objective is ObjectiveKind.RECONSTRUCTION_BIASED
        return _LeastSquaresForm(q, targets, intercept, "context", offset)
    raise ValueError(f"{objective} has no least-squares form")


def _ls_solve(form: _LeastSquaresForm, values: np.ndarray):
    """Optimal (coefficients, fitted) of the reduced least squares."""
    design = values
    if form.intercept:
        design = np.concatenate([values, np.ones((values.shape[0], 1))], axis=1)
    sw = np.sqrt(form.row_weights)
    coef, _, rank, _ = np.linalg.lstsq(sw[:, None] * design,
                                       sw[:, None] * form.targets, rcond=None)
    if rank < design.shape[1]:
        warnings.warn("singular normal equations; pseudo-inverse solution used",
                      RuntimeWarning, stacklevel=3)
    return coef, design @ coef


def _ls_value_and_grad(form: _LeastSquaresForm, values: np.ndarray,
                       want_grad: bool):
    coef, fitted = _ls_solve(form, values)
    resid = fitted - form.targets
    value = float(form.row_weights @ np.sum(resid ** 2, axis=1)) + form.offset
    if not want_grad:
        return value, None
    w_mat = coef[:values.shape[1], :]  # drop intercept row if present
    grad = 2.0 * form.row_weights[:, None] * (resid @ w_mat.T)
    return value, grad


def _multiview_contrastive_terms(ctx: FiniteContext):
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    h = ctx.conditional.T @ (p[:, None] * ctx.conditional)
    return q, h


def _center_chain(grad: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # gradient through v -> v - mean_w(v): subtract w times the column sums
    return grad - weights[:, None] * grad.sum(axis=0)[None, :]


def _lc_value_and_grad(ctx: FiniteContext, values: np.ndarray, want_grad: bool):
    q, h = _multiview_contrastive_terms(ctx)
    centered = weighted_center(values, q)
    hg = h @ centered
    gram = centered.T @ (q[:, None] * centered)
    value = float(-np.sum(centered * hg) + 0.5 * np.sum(gram ** 2))
    if not want_grad:
        return value, None
    grad = -2.0 * hg + 2.0 * q[:, None] * (centered @ gram)
    return value, _center_chain(grad, q)


def _ln_value_and_grad(ctx: FiniteContext, values: np.ndarray, want_grad: bool):
    q, h = _multiview_contrastive_terms(ctx)
    centered = weighted_center(values, q)
    hg = h @ centered
    value = float(2.0 * np.sum(q[:, None] * centered ** 2)
                  - 2.0 * np.sum(centered * hg))
    if not want_grad:
        return value, None
    return value, _center_chain(4.0 * q[:, None] * centered - 4.0 * hg, q)


def _node_value_and_grad(ctx: FiniteContext, values: np.ndarray, want_grad: bool):
    p = ctx.input_marginal.weights
    m_sym = 0.5 * (p[:, None] * ctx.conditional
                   + (p[:, None] * ctx.conditional).T)
    centered = weighted_center(values, p)
    mg = m_sym @ centered
    value = float(np.sum(p[:, None] * centered ** 2) - np.sum(centered * mg))
    if not want_grad:
        return value, None
    return value, _center_chain(2.0 * p[:, None] * centered - 2.0 * mg, p)


def _check_unit_covariance(enc_values: np.ndarray, weights: np.ndarray,
                           objective: ObjectiveKind) -> None:
    cov = weighted_cov(enc_values, weights)
    dev = float(np.max(np.abs(cov - np.eye(cov.shape[0]))))
    if dev > CONSTRAINT_ATOL:
        raise ConstraintViolationError(
            f"{objective.value} requires identity covariance; "
            f"max deviation {dev:.3e}")


def eval_objective(objective, ctx: FiniteContext, enc: SampleEncoder,
                   aux: np.ndarray | None = None) -> float:
    """Exact population value of an objective at an encoder.

    Inner linear heads, where the objective defines one, are solved as
    weighted least squares. Constrained objectives raise if the encoder
    covariance is not the identity.
    """
    objective = ObjectiveKind(objective)
    expected = "context" if objective in _CONTEXT_SUPPORT_KINDS else "input"
    if enc.support != expected:
        raise ValueError(f"{objective.value} expects a {expected}-support encoder")
    if objective is ObjectiveKind.NODE_EMBEDDING:
        _check_unit_covariance(enc.values, ctx.input_marginal.weights, objective)
        return _node_value_and_grad(ctx, enc.values, False)[0]
    if objective is ObjectiveKind.MULTIVIEW_NONCONTRASTIVE:
        _check_unit_covariance(enc.values, ctx.context_marginal.weights, objective)
        return _ln_value_and_grad(ctx, enc.values, False)[0]
    if objective is ObjectiveKind.MULTIVIEW_CONTRASTIVE:
        return _lc_value_and_grad(ctx, enc.values, False)[0]
    form = _least_squares_form(objective, ctx, _resolve_aux(objective, ctx, aux))
    return _ls_value_and_grad(form, enc.values, False)[0]


def solve_variational(objective, ctx: FiniteContext, d: int,
                      opts: VariationalOptions | None = None,
                      aux: np.ndarray | None = None) -> SampleEncoder:
    """Minimize an objective by full-batch gradient descent on value matrices.

    The learning rate halves whenever a step fails to descend
    (Polyak-style); 100 consecutive non-descending steps raise
    DivergenceError with the objective trace. Constrained objectives keep
    iterates feasible by exact whitening after every step
    (``constraint_mode="whiten"``) or relax the constraint into a
    quadratic penalty (``"penalty"``).
    """
    objective = ObjectiveKind(objective)
    opts = opts or VariationalOptions()
    if opts.steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(opts.seed)

    if objective in _CONTEXT_SUPPORT_KINDS:
        size, weights, marginal = (ctx.n_context, ctx.context_marginal.weights,
                                   ctx.context_marginal)
    else:
        size, weights, marginal = (ctx.n_inputs, ctx.input_marginal.weights,
                                   ctx.input_marginal)
    if d > size:
        raise ValueError(f"d={d} exceeds the support size {size}")

    constrained = objective in _CONSTRAINED_KINDS
    whiten = constrained and opts.constraint_mode == "whiten"
    if constrained and opts.constraint_mode not in ("whiten", "penalty"):
        raise ValueError("constraint_mode must be 'whiten' or 'penalty'")

    if objective is ObjectiveKind.MULTIVIEW_CONTRASTIVE:
        def value_grad(v, g=True):
            return _lc_value_and_grad(ctx, v, g)
    elif objective is ObjectiveKind.MULTIVIEW_NONCONTRASTIVE:
        def value_grad(v, g=True):
            return _ln_value_and_grad(ctx, v, g)
    elif objective is ObjectiveKind.NODE_EMBEDDING:
        def value_grad(v, g=True):
            return _node_value_and_grad(ctx, v, g)
    else:
        form = _least_squares_form(objective, ctx,
                                   _resolve_aux(objective, ctx, aux))

        def value_grad(v, g=True):
            return _ls_value_and_grad(form, v, g)

    if constrained and not whiten:
        inner = value_grad

        def value_grad(v, g=True):
            base, grad = inner(v, g)
            cov = weighted_cov(v, weights)
            gap = cov - np.eye(d)
            base += opts.penalty_weight * float(np.sum(gap ** 2))
            if g:
                centered = weighted_center(v, weights)
                grad = grad + 4.0 * opts.penalty_weight * weights[:, None] * (
                    centered @ gap)
            return base, grad

    def project(v):
        if whiten:
            return weighted_center(v, weights) @ sym_inv_sqrt(
                weighted_cov(v, weights))
        return v

    current = project(rng.standard_normal((size, d)))
    value = value_grad(current, False)[0]
    lr = opts.learning_rate
    trace = [value]
    rejected = 0
    quiet_steps = 0
    # gradients are taken in the marginal-weighted inner product, so step
    # sizes are comparable across support sizes
    precond = weights[:, None]
    for _ in range(opts.steps):
        _, grad = value_grad(current)
        candidate = project(current - lr * grad / precond)
        cand_value = value_grad(candidate, False)[0]
        trace.append(cand_value)
        drop = (value - cand_value) / (1.0 + abs(value))
        if drop > 1e-11:
            current, value = candidate, cand_value
            rejected = 0
            quiet_steps = 0
            # grow the step while descending; halving below caps it at the
            # stability boundary
            lr = min(lr * 1.05, opts.learning_rate * 1e6)
        elif drop >= -1e-11:
            # tie at the projection noise floor: converged in practice
            rejected = 0
            quiet_steps += 1
            if quiet_steps >= 50:
                break
        else:
            rejected += 1
            lr *= 0.5
            if rejected >= 100:
                raise DivergenceError(
                    f"{objective.value} failed to descend for {rejected} "
                    "consecutive steps", trace=trace)
    return SampleEncoder(current, "context" if objective in
                         _CONTEXT_SUPPORT_KINDS else "input", marginal)


def average_encoder(ctx: FiniteContext, psi: SampleEncoder) -> SampleEncoder:
    """Push a context-support encoder to the input support by conditional averaging."""
    if psi.support != "context":
        raise ValueError("average_encoder expects a context-support encoder")
    if psi.values.shape[0] != ctx.n_context:
        raise ValueError("encoder rows must match the context support")
    return SampleEncoder(ctx.conditional @ psi.values, "input",
                         ctx.input_marginal)


# ---------------------------------------------------------------------------
# serialization: CSV values plus a JSON sidecar
# ---------------------------------------------------------------------------

def save_encoder(enc: SampleEncoder, path, objective: str | None = None,
                 seed: int | None = None) -> None:
    path = Path(path)
    np.savetxt(path, enc.values, delimiter=",")
    sidecar = {"support": enc.support, "d": enc.d,
               "objective": objective, "seed": seed}
    path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n")


def load_encoder(path, marginal: DiscreteDistribution | None = None) -> SampleEncoder:
    path = Path(path)
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    marginal = marginal or DiscreteDistribution.uniform(values.shape[0])
    return SampleEncoder(values, sidecar["support"], marginal)
