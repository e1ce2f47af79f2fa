"""Pretraining objectives solved in closed form and by gradient descent.

Each objective kind has a spectral characterization of its minimizer:
either the top nontrivial singular functions of the expectation operator
(the contexture), or the top eigenfunctions of the operator sandwiched
with a loss kernel. The table ``_FORMS`` declares, per kind, the support
the encoder lives on, that loss kernel (none for the contexture kinds),
whether the objective fits an intercept and whether it constrains the
encoder to identity covariance; every solver reads it. ``solve_spectral``
returns the closed form; ``solve_variational`` minimizes the same
population objective over raw value matrices on the finite support, which
realizes the unrestricted function class the characterizations quantify
over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from ._linalg import (fix_signs, orthonormal_basis, top_eigenpairs,
                      weighted_center, weighted_cov, weighted_gram)
from .context import DiscreteDistribution, FiniteContext
from .errors import ConstraintViolationError, DivergenceError, NumericalError
from .spectral import adjoint_matrix, contexture_svd

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


@dataclass(frozen=True)
class _Form:
    """How one objective kind is solved.

    ``support``: where the encoder lives (``"input"`` or ``"context"``);
    aux vectors live on the opposite support. ``kernel``: the loss kernel
    of the sandwiched operator, ``None`` when the minimizer is the
    contexture. ``biased``: the objective fits an intercept, so only the
    centred span is determined (for a kernel kind: the centred linear
    kernel). ``constrained``: the encoder must have identity covariance.
    """

    support: str
    kernel: LossKernelKind | None
    biased: bool
    constrained: bool

    def marginals(self, ctx: FiniteContext):
        """(marginal of the encoder support, marginal of the opposite one)."""
        if self.support == "input":
            return ctx.input_marginal, ctx.context_marginal
        return ctx.context_marginal, ctx.input_marginal


_K = LossKernelKind
_FORMS = {
    ObjectiveKind.SUPERVISED_UNBIASED: _Form("input", _K.INDICATOR, False, False),
    ObjectiveKind.SUPERVISED_BALANCED: _Form("input", None, True, False),
    ObjectiveKind.REGRESSION_BIASED: _Form("input", _K.CENTERED_LINEAR, True, False),
    ObjectiveKind.REGRESSION_UNBIASED: _Form("input", _K.LINEAR, False, False),
    ObjectiveKind.MULTIVIEW_CONTRASTIVE: _Form("context", None, True, False),
    ObjectiveKind.MULTIVIEW_NONCONTRASTIVE: _Form("context", None, True, True),
    ObjectiveKind.RECONSTRUCTION_BIASED: _Form("context", _K.CENTERED_LINEAR, True, False),
    ObjectiveKind.RECONSTRUCTION_UNBIASED: _Form("context", _K.LINEAR, False, False),
    ObjectiveKind.NODE_EMBEDDING: _Form("input", None, True, True),
}


class SampleEncoder:
    """Encoder values tabulated on a finite support.

    ``support`` is ``"input"`` or ``"context"``; ``marginal`` is the
    weighting distribution of that support.
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

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def centered(self) -> np.ndarray:
        return weighted_center(self.values, self.marginal.weights)


@dataclass(frozen=True)
class VariationalOptions:
    steps: int = 5000
    learning_rate: float = 0.05
    seed: int = 0


def _row_codes(vecs: np.ndarray) -> np.ndarray:
    """Index of each row among the distinct rows (rows equal under ``==``).

    A lexicographic sort, not ``np.unique(axis=0)``: that views each row
    as a record with one field per column and takes about a second on the
    one-hot identity of a 1400-point support.
    """
    order = np.lexsort(vecs.T[::-1])
    ordered = vecs[order]
    fresh = np.any(ordered[1:] != ordered[:-1], axis=1)
    codes = np.empty(len(vecs), dtype=int)
    codes[order] = np.concatenate(([0], np.cumsum(fresh)))
    return codes


def loss_kernel_matrix(kind, context_vectors: np.ndarray | None,
                       marginal: DiscreteDistribution) -> np.ndarray:
    """Kernel matrix induced by a loss function on the support opposite
    the encoder's (the context support for input-support encoders), whose
    ``marginal`` is given.

    ``indicator`` compares points for identity (vectors, if given, must
    match exactly); ``linear`` is the plain inner product of the vectors;
    ``centered_linear`` subtracts their marginal mean first. The solvers
    never form it; it defines what ``_sandwiched_operator`` computes.
    """
    kind = LossKernelKind(kind)
    if context_vectors is None:
        if kind is LossKernelKind.INDICATOR:
            return np.eye(len(marginal))
        raise ValueError(f"{kind.value} kernel needs context vectors")
    vecs = np.asarray(context_vectors, dtype=float)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    if vecs.shape[0] != len(marginal):
        raise ValueError("context vectors must match the marginal length")
    if kind is LossKernelKind.INDICATOR:
        codes = _row_codes(vecs)
        return (codes[:, None] == codes[None, :]).astype(float)
    if kind is LossKernelKind.CENTERED_LINEAR:
        vecs = vecs - marginal.weights @ vecs
    return vecs @ vecs.T


def _resolve_aux(objective: ObjectiveKind, ctx: FiniteContext,
                 aux: np.ndarray | None) -> np.ndarray | None:
    """Coordinate vectors the loss kernel acts on, one row per point of the
    support opposite the encoder's; ``None`` (one-hot rows) when absent.

    Under the indicator kernel only the identity of a row matters, so rows
    become the one-hot code of their class, whose Gram matrix is that
    kernel. Every solver and loss reads its inputs through here, so this
    also rejects aux for a kind without a loss kernel, and a node
    embedding of a non-square context.
    """
    if objective is ObjectiveKind.NODE_EMBEDDING and ctx.n_inputs != ctx.n_context:
        raise ValueError("node_embedding needs a square context, a graph on "
                         f"one support; got {ctx.n_inputs} x {ctx.n_context}")
    if aux is None:
        return None
    form = _FORMS[objective]
    if form.kernel is None:
        raise ValueError(f"{objective.value} has no loss kernel and takes no aux")
    size = len(form.marginals(ctx)[1])
    aux = np.asarray(aux, dtype=float)
    if aux.ndim == 1:
        aux = aux[:, None]
    if aux.shape[0] != size:
        raise ValueError(f"aux must have {size} rows for {objective.value}")
    if not np.all(np.isfinite(aux)):
        raise ValueError("aux must be finite")
    if form.kernel is LossKernelKind.INDICATOR:
        codes = _row_codes(aux)
        return np.eye(codes.max() + 1)[codes]
    return aux


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
    form = _FORMS[objective]
    marginal = form.marginals(ctx)[0]
    if form.kernel is None:
        _resolve_aux(objective, ctx, aux)
        full = min(ctx.n_inputs, ctx.n_context)
        if d + 1 > full:
            raise ValueError(f"d={d} exceeds the nontrivial rank {full - 1}")
        spec = contexture_svd(ctx, rank=d + 1)
        if form.support == "input":
            values = spec.left_functions[:, 1:]
        elif objective is ObjectiveKind.MULTIVIEW_CONTRASTIVE:
            values = spec.right_functions[:, 1:] * spec.singular_values[None, 1:]
        else:
            values = spec.right_functions[:, 1:]
        return SampleEncoder(values, form.support, marginal)
    if d > len(marginal):
        raise ValueError(f"d={d} exceeds the {form.support} support size")
    # eigenvectors of the whitened operator, as weighted-orthonormal functions
    _, evecs = top_eigenpairs(_sandwiched_operator(objective, ctx, aux), d)
    funcs = evecs / np.sqrt(marginal.weights)[:, None]
    fix_signs(funcs)
    return SampleEncoder(funcs, form.support, marginal)


def _sandwiched_operator(objective: ObjectiveKind, ctx: FiniteContext,
                         aux: np.ndarray | None) -> np.ndarray:
    """Whitened loss-kernel sandwich ``b @ loss_kernel_matrix(...) @ b.T``
    of the expectation operator, ``b = sqrt(rows) * expect`` in the terms
    of ``_least_squares_form``.

    The kernel is ``V @ V.T`` for the aux coordinates V, so this is the
    Gram matrix of the ``sqrt(rows)``-scaled targets ``expect @ V``. As
    ``rows @ expect == cols``, centring the targets under ``rows`` centres
    V under the opposite marginal, as the centred linear kernel does.
    """
    ls = _least_squares_form(objective, ctx, _resolve_aux(objective, ctx, aux))
    scaled = np.sqrt(ls.row_weights)[:, None] * ls.fit_targets
    return scaled @ scaled.T


def operator_eigenvalues(objective, ctx: FiniteContext,
                         aux: np.ndarray | None = None) -> np.ndarray:
    """Descending spectrum of the operator whose top eigenspace the
    objective extracts; handy for spotting degenerate test instances.

    Contexture-type objectives report the nontrivial singular values; the
    loss-kernel objectives report the sandwiched operator's eigenvalues.
    """
    objective = ObjectiveKind(objective)
    if _FORMS[objective].kernel is None:
        _resolve_aux(objective, ctx, aux)
        return contexture_svd(ctx).nontrivial_values
    return np.linalg.eigvalsh(_sandwiched_operator(objective, ctx, aux))[::-1]


# ---------------------------------------------------------------------------
# exact population losses (shared by eval_objective and the solver)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LeastSquaresForm:
    """Reduced weighted least-squares equivalent of a fitting objective.

    Minimizing sum_i w_i ||W phi_i + b - m_i||^2 + offset over (W, b)
    reproduces the exact population objective; the row weights w sum to 1.
    """

    row_weights: np.ndarray
    targets: np.ndarray
    intercept: bool
    offset: float

    @cached_property
    def fit_targets(self) -> np.ndarray:
        """The targets, centred under the row weights with an intercept."""
        return (weighted_center(self.targets, self.row_weights)
                if self.intercept else self.targets)


def _least_squares_form(objective: ObjectiveKind, ctx: FiniteContext,
                        vectors: np.ndarray | None) -> _LeastSquaresForm:
    """Least squares on the aux ``vectors``: targets ``expect @ vectors``
    under row weights ``rows``, summing to 1 (``rows @ expect == cols`` but
    for ``supervised_balanced``). ``None`` means one-hot vectors: the
    targets are ``expect`` itself, not a copy, so nothing may write in."""
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    form = _FORMS[objective]
    if objective is ObjectiveKind.SUPERVISED_BALANCED:
        # class balancing reweights context a by 1 / sqrt(q_a); each row is
        # renormalized and its mass rho moves into the row weight, whose
        # total moves into the targets as its square root: the weights sum to 1
        inv_sq = 1.0 / np.sqrt(q)
        rho = ctx.conditional @ inv_sq
        mass = p @ rho
        expect = ctx.conditional * (np.sqrt(mass) * inv_sq) / rho[:, None]
        rows, cols = p * rho / mass, np.sqrt(q)
    elif form.support == "input":
        expect, rows, cols = ctx.conditional, p, q
    else:
        expect, rows, cols = adjoint_matrix(ctx), q, p
    if vectors is None:
        targets, sq_norms = expect, np.ones(expect.shape[1])
    else:
        targets, sq_norms = expect @ vectors, np.sum(vectors ** 2, axis=1)
    offset = float(cols @ sq_norms - rows @ np.sum(targets ** 2, axis=1))
    return _LeastSquaresForm(rows, targets, form.biased, offset)


def _ls_value_and_grad(form: _LeastSquaresForm, values: np.ndarray):
    """Value and gradient of the fit at ``values`` orthonormal under the
    row weights w (centred under w with an intercept): the optimal head is
    the projection ``values.T @ diag(w) @ targets``, plus their mean."""
    w, targets = form.row_weights[:, None], form.fit_targets
    coef = (w * values).T @ targets
    resid = values @ coef - targets
    weighted = w * resid
    return float(np.vdot(resid, weighted)) + form.offset, 2.0 * (weighted @ coef.T)


def _lc_value_and_grad(q: np.ndarray, h: np.ndarray, values: np.ndarray):
    """-<v, H v> + |E_q v v^T|^2 / 2 at values v the contrastive basis has
    already centred under q."""
    hg = h @ values
    gram = weighted_gram(values, q)
    value = float(-np.sum(values * hg) + 0.5 * np.sum(gram ** 2))
    return value, -2.0 * hg + 2.0 * q[:, None] * (values @ gram)


def _quadratic_value_and_grad(weights: np.ndarray, m: np.ndarray, scale: float,
                              values: np.ndarray):
    """scale * (E_w |v|^2 - <v, M v>) at values v the constrained basis has
    already centred under w."""
    mg = m @ values
    value = float(scale * (np.sum(weights[:, None] * values ** 2)
                           - np.sum(values * mg)))
    return value, 2.0 * scale * (weights[:, None] * values - mg)


def _population_loss(objective: ObjectiveKind, ctx: FiniteContext,
                     aux: np.ndarray | None):
    """``(value_grad, basis)``: ``value_grad(basis(values))`` is the exact
    population objective's ``(value, gradient)`` from one evaluation, and
    the matrices it reads are built once, here. Every loss reads values its
    ``basis`` produced, the one centring: the span's ``orthonormal_basis``
    under the fit's row weights for the six least-squares kinds, centred
    under the encoder's marginal for the two constrained ones, whose losses
    read only the span; ``weighted_center`` under q for
    ``multiview_contrastive``, whose loss reads V's Gram matrix."""
    form = _FORMS[objective]
    vectors = _resolve_aux(objective, ctx, aux)
    if form.kernel is not None or objective is ObjectiveKind.SUPERVISED_BALANCED:
        ls = _least_squares_form(objective, ctx, vectors)
        return partial(_ls_value_and_grad, ls), partial(
            orthonormal_basis, weights=ls.row_weights, center=ls.intercept)
    p = ctx.input_marginal.weights
    if objective is ObjectiveKind.NODE_EMBEDDING:
        joint = p[:, None] * ctx.conditional
        return (partial(_quadratic_value_and_grad, p, 0.5 * (joint + joint.T), 1.0),
                partial(orthonormal_basis, weights=p, center=True))
    q = ctx.context_marginal.weights
    h = weighted_gram(ctx.conditional, p)
    if objective is ObjectiveKind.MULTIVIEW_CONTRASTIVE:
        return (partial(_lc_value_and_grad, q, h),
                partial(weighted_center, weights=q))
    return (partial(_quadratic_value_and_grad, q, h, 2.0),
            partial(orthonormal_basis, weights=q, center=True))


def eval_objective(objective, ctx: FiniteContext, enc: SampleEncoder,
                   aux: np.ndarray | None = None) -> float:
    """Exact population value of an objective at an encoder.

    The loss reads the encoder through its kind's basis (see
    ``_population_loss``), so a dependent column adds nothing to any kind
    but ``multiview_contrastive``, whose basis only centres; constrained
    kinds raise if its covariance is not the identity.
    """
    objective = ObjectiveKind(objective)
    form = _FORMS[objective]
    if enc.support != form.support:
        raise ValueError(f"{objective.value} expects a {form.support}-support encoder")
    loss, basis = _population_loss(objective, ctx, aux)
    if form.constrained:
        cov = weighted_cov(enc.values, form.marginals(ctx)[0].weights)
        dev = float(np.max(np.abs(cov - np.eye(enc.d))))
        if dev > CONSTRAINT_ATOL:
            raise ConstraintViolationError(f"{objective.value} requires identity "
                                           f"covariance; max deviation {dev:.3e}")
    return loss(basis(enc.values))[0]


def solve_variational(objective, ctx: FiniteContext, d: int,
                      opts: VariationalOptions | None = None,
                      aux: np.ndarray | None = None) -> SampleEncoder:
    """Minimize an objective by full-batch gradient descent on value matrices.

    The learning rate halves whenever a step fails to descend
    (Polyak-style); 100 consecutive non-descending steps raise
    DivergenceError with the objective trace. The first step that ties
    (a relative change within 1e-11) ends the run: it changes neither the
    iterate, its gradient nor the rate, so every later step would evaluate
    the same candidate. Every iterate is replaced by the kind's basis (see
    ``_population_loss``), so a constrained iterate stays feasible; a rank
    drop raises NumericalError.
    """
    objective = ObjectiveKind(objective)
    if d < 1:
        raise ValueError("d must be at least 1")
    opts = opts or VariationalOptions()
    if opts.steps < 1:
        raise ValueError("steps must be at least 1")
    if not (np.isfinite(opts.learning_rate) and opts.learning_rate > 0):
        raise ValueError("learning_rate must be positive and finite, "
                         f"got {opts.learning_rate}")
    rng = np.random.default_rng(opts.seed)

    form = _FORMS[objective]
    marginal = form.marginals(ctx)[0]
    size, weights = len(marginal), marginal.weights
    if d > size:
        raise ValueError(f"d={d} exceeds the support size {size}")
    value_grad, basis = _population_loss(objective, ctx, aux)

    def project(v):
        v = basis(v)
        if v.shape[1] < d:
            raise NumericalError(f"iterate spans {v.shape[1]} of {d} dimensions")
        return v

    current = project(rng.standard_normal((size, d)))
    value, grad = value_grad(current)
    lr = opts.learning_rate
    trace = [value]
    rejected = 0
    # gradients are taken in the marginal-weighted inner product, so step
    # sizes are comparable across support sizes
    precond = weights[:, None]
    for _ in range(opts.steps):
        candidate = project(current - lr * grad / precond)
        cand_value, cand_grad = value_grad(candidate)
        trace.append(cand_value)
        drop = (value - cand_value) / (1.0 + abs(value))
        if drop > 1e-11:
            current, value, grad = candidate, cand_value, cand_grad
            rejected = 0
            # grow the step while descending; halving below caps it at the
            # stability boundary
            lr = min(lr * 1.05, opts.learning_rate * 1e6)
        elif drop >= -1e-11:
            # tie at the projection noise floor: converged in practice
            break
        else:
            rejected += 1
            lr *= 0.5
            if rejected >= 100:
                raise DivergenceError(
                    f"{objective.value} failed to descend for {rejected} "
                    "consecutive steps", trace=trace)
    return SampleEncoder(current, form.support, marginal)


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
    sidecar_path = path.with_suffix(".json")
    if sidecar_path == path:
        raise ValueError(f"encoder path {path} is its own JSON sidecar path; "
                         "give the values file another suffix, e.g. .csv")
    np.savetxt(path, enc.values, delimiter=",")
    sidecar = {"support": enc.support, "d": enc.d,
               "objective": objective, "seed": seed}
    sidecar_path.write_text(json.dumps(sidecar) + "\n")


def load_encoder(path, marginal: DiscreteDistribution | None = None) -> SampleEncoder:
    path = Path(path)
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    wanted = {"support": ("input", "context"), "d": (values.shape[1],)}
    for field, allowed in wanted.items():
        value = sidecar.get(field) if isinstance(sidecar, dict) else None
        # exact types: true and 1.0 equal 1 but are no column count
        if type(value) is not type(allowed[0]) or value not in allowed:
            raise ValueError(f"encoder sidecar {path.with_suffix('.json')} field "
                             f"{field!r} is {value!r}, not one of {allowed}")
    marginal = marginal or DiscreteDistribution.uniform(values.shape[0])
    return SampleEncoder(values, sidecar["support"], marginal)
