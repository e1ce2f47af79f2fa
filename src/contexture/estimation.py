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

from ._linalg import fix_signs, top_eigenpairs, weighted_gram, weighted_norm
from .context import DiscreteDistribution, FiniteContext
from .errors import NumericalError
from .objectives import SampleEncoder
from .spectral import adjoint_matrix


@dataclass(frozen=True)
class CovariancePair:
    """Input covariance of an encoder and its adjoint-pushed counterpart."""

    c_phi: np.ndarray
    b_phi: np.ndarray
    mode: str
    n_pairs: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "pair_sampled"):
            raise ValueError("mode must be 'exact' or 'pair_sampled'")
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


def _hop(rows: np.ndarray, keys: np.ndarray,
         rng: np.random.Generator) -> np.ndarray:
    """One draw from ``rows[key]`` for each entry of ``keys``.

    ``Generator.choice``'s weighted draw with replacement, done for every
    key at once: the entries are grouped by key (ascending, stable), one
    ``random`` call covers all of them, and each key's uniforms are
    searched in its row's normalised CDF. A ``random(n)`` call yields the
    same numbers as the per-key calls it replaces made in turn, so the
    draws and the generator's state afterwards equal a per-key ``choice``
    loop. ``choice`` also checked that a row is a distribution; every row
    passed here already is one (``FiniteContext`` rows are non-negative
    and renormalised, and so are ``adjoint_matrix`` rows).
    """
    # keys fit 16 bits below 65,536 points, and a stable sort of them is a
    # radix sort; the order of a stable sort does not depend on the dtype
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max())),
                       kind="stable")
    counts = np.bincount(keys)
    u = rng.random(keys.size)
    drawn = np.empty(keys.size, dtype=np.int64)
    hi = 0
    for key in np.flatnonzero(counts):
        lo, hi = hi, hi + counts[key]
        cdf = rows[key].cumsum()
        cdf /= cdf[-1]
        drawn[lo:hi] = cdf.searchsorted(u[lo:hi], side="right")
    out = np.empty_like(drawn)
    out[order] = drawn
    return out


def estimate_covariances(enc: SampleEncoder, ctx: FiniteContext,
                         mode: str = "exact", n_pairs: int = 0,
                         seed: int = 0) -> CovariancePair:
    """Covariance pair of an encoder under a context.

    ``exact`` sums over the finite joint. ``pair_sampled`` draws chains
    input -> context point -> input and averages the symmetrized outer
    products of centered encoder values, which converges to the exact
    pushed covariance. The starts are one weighted ``choice``; each hop
    after them is one ``_hop`` call: one uniform per pair, drawn at once,
    looked up in the CDF of the row its current point names (the same
    draws as one ``choice`` per distinct point, in ascending order). Both
    are centred once, under the context's input marginal, which the
    encoder's marginal must equal.
    """
    if enc.support != "input":
        raise ValueError("estimation expects an input-support encoder")
    p = ctx.input_marginal.weights
    if not np.array_equal(enc.marginal.weights, p):
        raise ValueError("encoder marginal must equal the context's input marginal")
    centered = enc.centered()
    c_phi = weighted_gram(centered, p)
    adj = adjoint_matrix(ctx)
    if mode == "exact":
        b_phi = weighted_gram(adj @ centered, ctx.context_marginal.weights)
        return CovariancePair(c_phi=c_phi, b_phi=b_phi, mode="exact")
    if mode != "pair_sampled":
        raise ValueError("mode must be 'exact' or 'pair_sampled'")
    if n_pairs < 1:
        raise ValueError("pair_sampled mode needs n_pairs >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.choice(ctx.n_inputs, size=n_pairs, p=p)
    mids = _hop(ctx.conditional, xs, rng)
    ends = _hop(adj, mids, rng)
    # sum_p c[x_p]^T c[e_p] grouped by start point: per column, the summed
    # end values of each start, without two n_pairs x d gathers
    sums = np.stack([np.bincount(xs, weights=col[ends], minlength=ctx.n_inputs)
                     for col in centered.T], axis=1)
    b_raw = centered.T @ sums / n_pairs
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
    evals, evecs = np.linalg.eigh(reg)
    if evals[-1] <= 0:  # the ridge is zero too: the centred encoder is zero
        raise NumericalError("encoder has zero covariance; cannot whiten")
    half = (evecs / np.sqrt(evals)) @ evecs.T
    core = half @ cov.b_phi @ half  # not a Gram product: symmetric to roundoff
    eigenvalues, evecs = top_eigenpairs(0.5 * (core + core.T), top)
    funcs = enc.centered() @ (half @ evecs)
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
