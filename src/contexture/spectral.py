"""Expectation operator, induced kernels, and the measure-weighted SVD.

The conditional matrix of a finite context acts as an operator taking
functions on the context support to their conditional expectations on the
input support. Its singular functions under the marginal-weighted inner
products carry the representation-learning content of the context; the
top nontrivial left functions are the target every objective in
:mod:`contexture.objectives` recovers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._linalg import fix_signs
from .context import DiscreteDistribution, FiniteContext

CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class OperatorMatrices:
    """Forward conditional matrix and its Bayes-rule adjoint.

    ``forward[x, a] = P(a | x)`` and ``adjoint[a, x] = P(x | a)``; both are
    row-stochastic.
    """

    forward: np.ndarray
    adjoint: np.ndarray


@dataclass(frozen=True)
class ContextureSpectrum:
    """Singular system of a finite context's expectation operator.

    ``singular_values[0] == 1`` with constant singular functions in column
    0 of both sides; columns are orthonormal under the respective marginal
    weights. Values below ``CLAMP_TOL`` are clamped to zero and flagged by
    ``clamped`` so dual-direction identities know to skip them.
    """

    singular_values: np.ndarray
    left_functions: np.ndarray
    right_functions: np.ndarray
    input_marginal: DiscreteDistribution
    context_marginal: DiscreteDistribution

    @property
    def clamped(self) -> np.ndarray:
        return self.singular_values < CLAMP_TOL

    @property
    def rank(self) -> int:
        return self.singular_values.size

    @property
    def nontrivial_values(self) -> np.ndarray:
        """Singular values with the constant mode removed."""
        return self.singular_values[1:]

    def to_json_dict(self) -> dict:
        return {
            "singular_values": self.singular_values.tolist(),
            "left": self.left_functions.tolist(),
            "right": self.right_functions.tolist(),
            "p_x": self.input_marginal.weights.tolist(),
            "p_a": self.context_marginal.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContextureSpectrum":
        return cls(
            singular_values=np.asarray(data["singular_values"], dtype=float),
            left_functions=np.asarray(data["left"], dtype=float),
            right_functions=np.asarray(data["right"], dtype=float),
            input_marginal=DiscreteDistribution(np.asarray(data["p_x"], dtype=float)),
            context_marginal=DiscreteDistribution(np.asarray(data["p_a"], dtype=float)),
        )


def operator_matrices(ctx: FiniteContext) -> OperatorMatrices:
    """Assemble the expectation operator and its adjoint as dense matrices."""
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    adjoint = (ctx.conditional * p[:, None]).T / q[:, None]
    return OperatorMatrices(forward=ctx.conditional.copy(), adjoint=adjoint)


def apply_operator(op: OperatorMatrices, direction: str, g: np.ndarray) -> np.ndarray:
    """Apply the forward operator (context -> input) or its adjoint."""
    g = np.asarray(g, dtype=float)
    if direction == "forward":
        if g.shape[0] != op.forward.shape[1]:
            raise ValueError("forward direction expects a context-support vector")
        return op.forward @ g
    if direction == "adjoint":
        if g.shape[0] != op.adjoint.shape[1]:
            raise ValueError("adjoint direction expects an input-support vector")
        return op.adjoint @ g
    raise ValueError(f"direction must be 'forward' or 'adjoint', got {direction!r}")


def dual_kernel(ctx: FiniteContext) -> np.ndarray:
    """Density ratio kernel on the input support: joint over product of marginals.

    Symmetric PSD with unit row averages under the input marginal.
    """
    q = ctx.context_marginal.weights
    t = ctx.conditional
    return (t / q[None, :]) @ t.T


def positive_pair_kernel(ctx: FiniteContext) -> np.ndarray:
    """Density ratio kernel on the context support (two views of one input)."""
    p = ctx.input_marginal.weights
    adj = operator_matrices(ctx).adjoint
    return (adj / p[None, :]) @ adj.T


def contexture_svd(ctx: FiniteContext, rank: int | None = None) -> ContextureSpectrum:
    """Measure-weighted SVD of the expectation operator.

    Whitens the conditional matrix by the square roots of the marginals so
    a standard dense SVD yields marginal-orthonormal singular functions.
    The exact constant pair (value 1) is deflated analytically before the
    SVD and re-attached as column 0, which keeps the constant mode exact
    even when further singular values tie with 1. Signs are fixed so each
    left function's largest-magnitude entry is positive.
    """
    n, m = ctx.conditional.shape
    full = min(n, m)
    if rank is None:
        rank = full
    if not 1 <= rank <= full:
        raise ValueError(f"rank must be in [1, {full}], got {rank}")
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    sp, sq = np.sqrt(p), np.sqrt(q)
    whitened = sp[:, None] * ctx.conditional / sq[None, :]
    deflated = whitened - np.outer(sp, sq)
    u, s, vt = np.linalg.svd(deflated)

    keep = rank - 1
    values = np.concatenate(([1.0], s[:keep]))
    left = np.concatenate((sp[:, None], u[:, :keep]), axis=1) / sp[:, None]
    right = np.concatenate((sq[:, None], vt[:keep].T), axis=1) / sq[:, None]

    fix_signs(left, right)
    return ContextureSpectrum(
        singular_values=np.where(values < CLAMP_TOL, 0.0, values),
        left_functions=left,
        right_functions=right,
        input_marginal=ctx.input_marginal,
        context_marginal=ctx.context_marginal,
    )


def reconstruct_joint(spec: ContextureSpectrum) -> np.ndarray:
    """Joint probability table rebuilt from the singular system.

    Exact when the spectrum is full rank; a truncated spectrum yields the
    best approximation of that rank rather than an error.
    """
    p = spec.input_marginal.weights
    q = spec.context_marginal.weights
    core = (spec.left_functions * spec.singular_values[None, :]) @ spec.right_functions.T
    return p[:, None] * core * q[None, :]


def save_spectrum(spec: ContextureSpectrum, path, *, estimated: bool = False,
                  m: int | None = None) -> None:
    data = spec.to_json_dict()
    if estimated:
        data["estimated"] = True
        data["m"] = int(m) if m is not None else None
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_spectrum(path) -> ContextureSpectrum:
    with open(path) as fh:
        return ContextureSpectrum.from_json_dict(json.load(fh))
