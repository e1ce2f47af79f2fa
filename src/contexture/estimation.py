"""Post-hoc spectrum estimation from an arbitrary wide encoder.

Given any encoder on the input support, the squared singular values of
the underlying context are recoverable from two covariance matrices via a
generalized eigenvalue problem, and the corresponding singular functions
from the matched recombination of the encoder columns. Covariances can be
computed exactly by summation or approximated by sampling positive-pair
chains; supports can be subsampled first to cut cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import fix_signs, sym_inv_sqrt, weighted_cov, weighted_norm
from .context import DiscreteDistribution, FiniteContext
from .objectives import SampleEncoder
from .spectral import operator_matrices


@dataclass(frozen=True)
class CovariancePair:
    """Input covariance of an encoder and its adjoint-pushed counterpart."""

    c_phi: np.ndarray
    b_phi: np.ndarray
    mode: str
    n_pairs: int = 0

    def __post_init__(self):
        for name in ("c_phi", "b_phi"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if np.max(np.abs(mat - mat.T)) > 1e-10:
                raise ValueError(f"{name} must be symmetric within 1e-10")
            object.__setattr__(self, name, 0.5 * (mat + mat.T))
        if self.mode == "exact":
            gap_eigs = np.linalg.eigvalsh(self.c_phi - self.b_phi)
            if gap_eigs[0] < -1e-8:
                raise ValueError(
                    "b_phi must precede c_phi in the PSD order (within 1e-8)")


def estimate_covariances(enc: SampleEncoder, ctx: FiniteContext,
                         mode: str = "exact", n_pairs: int = 0,
                         seed: int = 0) -> CovariancePair:
    """Covariance pair of an encoder under a context.

    ``exact`` sums over the finite joint. ``pair_sampled`` draws chains
    input -> context point -> input and averages the symmetrized outer
    products of centered encoder values, which converges to the exact
    pushed covariance.
    """
    if enc.support != "input":
        raise ValueError("estimation expects an input-support encoder")
    centered = enc.centered()
    # roundoff asymmetry grows with scale, past CovariancePair's 1e-10 check
    c_phi = weighted_cov(enc.values, ctx.input_marginal.weights)
    c_phi = 0.5 * (c_phi + c_phi.T)
    adj = operator_matrices(ctx).adjoint
    if mode == "exact":
        pushed = adj @ centered
        b_phi = pushed.T @ (ctx.context_marginal.weights[:, None] * pushed)
        return CovariancePair(c_phi=c_phi, b_phi=0.5 * (b_phi + b_phi.T),
                              mode="exact")
    if mode != "pair_sampled":
        raise ValueError("mode must be 'exact' or 'pair_sampled'")
    if n_pairs < 1:
        raise ValueError("pair_sampled mode needs n_pairs >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.choice(ctx.n_inputs, size=n_pairs, p=ctx.input_marginal.weights)
    mids = np.empty(n_pairs, dtype=int)
    for x in np.unique(xs):
        where = np.nonzero(xs == x)[0]
        mids[where] = rng.choice(ctx.n_context, size=where.size,
                                 p=ctx.conditional[x])
    ends = np.empty(n_pairs, dtype=int)
    for a in np.unique(mids):
        where = np.nonzero(mids == a)[0]
        ends[where] = rng.choice(ctx.n_inputs, size=where.size, p=adj[a])
    left = centered[xs]
    right = centered[ends]
    b_raw = (left.T @ right) / n_pairs
    return CovariancePair(c_phi=c_phi, b_phi=0.5 * (b_raw + b_raw.T),
                          mode="pair_sampled", n_pairs=n_pairs)


def estimate_spectrum_posthoc(enc: SampleEncoder, cov: CovariancePair,
                              top: int):
    """Squared singular values and singular functions from covariances.

    Solves the generalized eigenvalue problem by whitening the pencil with
    the inverse square root of the regularized input covariance, then a
    symmetric eigendecomposition. Returns the ``top`` descending
    eigenvalues and an encoder whose columns estimate the corresponding
    left singular functions, rescaled to unit variance.
    """
    d = enc.d
    if not 1 <= top <= d:
        raise ValueError(f"top must be in [1, {d}]")
    reg = cov.c_phi + 1e-10 * np.trace(cov.c_phi) * np.eye(d)
    half = sym_inv_sqrt(reg)
    core = half @ cov.b_phi @ half
    evals, evecs = np.linalg.eigh(0.5 * (core + core.T))
    order = np.argsort(evals, kind="stable")[::-1][:top]
    eigenvalues = evals[order]
    directions = half @ evecs[:, order]
    funcs = enc.centered() @ directions
    w = enc.marginal.weights
    for j in range(funcs.shape[1]):
        scale = weighted_norm(funcs[:, j], w)
        if scale > 0:
            funcs[:, j] /= scale
    fix_signs(funcs)
    return eigenvalues, SampleEncoder(funcs, "input", enc.marginal)


def subsample_support(ctx: FiniteContext, m: int, seed: int) -> FiniteContext:
    """Restrict a context to m seeded-uniform input rows.

    Shared-support contexts restrict the context side identically and
    renormalize rows; a row left with no mass is an error.
    """
    n = ctx.n_inputs
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}]")
    if m == n:
        return ctx  # contexts are immutable; the full restriction is exact
    idx = np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))
    marginal = DiscreteDistribution(ctx.input_marginal.weights[idx])
    if ctx.same_support:
        sub = ctx.conditional[np.ix_(idx, idx)]
        row_mass = sub.sum(axis=1)
        if np.any(row_mass <= 0):
            dead = int(idx[int(np.argmin(row_mass))])
            raise ValueError(
                f"row {dead} loses all context mass under the restriction")
        return FiniteContext(sub, marginal, label=ctx.label,
                             same_support=True, context_ids=ctx.context_ids[idx])
    return FiniteContext(ctx.conditional[idx], marginal, label=ctx.label,
                         same_support=False, context_ids=ctx.context_ids)
