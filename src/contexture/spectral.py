"""Expectation operator, induced kernels, and the measure-weighted SVD.

A finite context's conditional matrix ``FiniteContext.conditional`` is the
expectation operator: it takes functions on the context support to their
conditional expectations on the input support. ``adjoint_matrix`` forms
its Bayes-rule adjoint, the one place ``P(x | a)`` is built. The singular
functions under the marginal-weighted inner products carry the
representation-learning content of the context; the top nontrivial left
functions are the target every objective in
:mod:`contexture.objectives` recovers.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from ._linalg import fix_signs, top_eigenpairs, weighted_gram
from .context import DiscreteDistribution, FiniteContext

CLAMP_TOL = 1e-10
# ``contexture_svd(ctx, rank=r)`` tries the Gram route when r is at most
# min(n, m) // GRAM_RANK_DIVISOR
GRAM_RANK_DIVISOR = 4
# the Gram route's certificate: every retained residual |W v - s u| is at
# most RITZ_RESIDUAL_TOL, the dense SVD's own backward error, and the
# smallest retained Gram eigenvalue exceeds GRAM_EIG_REL_FLOOR times the
# largest, well above the Gram matrix's roundoff
RITZ_RESIDUAL_TOL = 1e-13
GRAM_EIG_REL_FLOOR = 1e-10


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
        """The saved form: ``singular_values``, ``p_x`` and ``p_a`` as JSON
        lists, ``left`` and ``right`` packed by ``_pack_matrix``. Their
        shapes are implied by the lengths of ``p_x``, ``p_a`` and
        ``singular_values``."""
        return {
            "singular_values": self.singular_values.tolist(),
            "left": _pack_matrix(self.left_functions),
            "right": _pack_matrix(self.right_functions),
            "p_x": self.input_marginal.weights.tolist(),
            "p_a": self.context_marginal.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContextureSpectrum":
        """Inverse of ``to_json_dict``, which also reads ``left``/``right``
        as nested lists, the form written before they were packed. Raises
        ValueError unless every entry is finite and ``left``/``right`` hold
        one column per value."""
        values = _read_list(data, "singular_values")
        p_x = DiscreteDistribution.from_saved(_read_list(data, "p_x"))
        p_a = DiscreteDistribution.from_saved(_read_list(data, "p_a"))
        r = values.size
        left = _unpack_matrix(data, "left", (len(p_x), r))
        right = _unpack_matrix(data, "right", (len(p_a), r))
        if (values.ndim != 1 or left.shape != (len(p_x), r)
                or right.shape != (len(p_a), r)):
            raise ValueError(
                f"spectrum with {r} values needs left of shape ({len(p_x)}, {r}) "
                f"and right of shape ({len(p_a)}, {r}); got {left.shape} and "
                f"{right.shape}")
        if not all(np.isfinite(arr).all() for arr in (values, left, right)):
            raise ValueError("spectrum entries must be finite")
        return cls(values, left, right, p_x, p_a)


def _pack_matrix(matrix: np.ndarray) -> str:
    """Base64 text of the matrix's C-ordered little-endian float64 bytes:
    every value kept bit for bit, with no decimal conversion."""
    raw = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _read_list(data: dict, key: str, what: str = "list") -> np.ndarray:
    """``data[key]``, a JSON list of numbers or of rows of them, as floats."""
    field = data[key]
    try:
        if isinstance(field, list):
            return np.asarray(field, dtype=float)
        reason = f"got {type(field).__name__}"
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    raise ValueError(f"spectrum field {key!r} is not a {what} of numbers: {reason}")


def _unpack_matrix(data: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of ``_pack_matrix`` for ``data[key]``, a matrix of ``shape``;
    a nested list is read as it stands and its shape is left to the caller.
    Raises ValueError naming ``key`` for text that is not base64 of exactly
    that many float64 values, and for any other JSON type."""
    field = data[key]
    if not isinstance(field, str):
        return _read_list(data, key, "matrix")
    try:
        raw = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error is a ValueError
        raise ValueError(f"spectrum field {key!r} is not base64: {exc}") from None
    need = 8 * shape[0] * shape[1]
    if len(raw) != need:
        raise ValueError(f"spectrum field {key!r} holds {len(raw)} bytes; "
                         f"float64 values of shape {shape} need {need}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def adjoint_matrix(ctx: FiniteContext) -> np.ndarray:
    """Bayes-rule adjoint of the expectation operator, ``[a, x] = P(x | a)``.

    Row-stochastic, like the forward operator ``ctx.conditional``
    (``[x, a] = P(a | x)``).
    """
    p = ctx.input_marginal.weights
    q = ctx.context_marginal.weights
    return (ctx.conditional * p[:, None]).T / q[:, None]


def dual_kernel(ctx: FiniteContext) -> np.ndarray:
    """Density ratio kernel on the input support: joint over product of marginals.

    Symmetric PSD bit for bit, with unit row averages under the input marginal.
    """
    return weighted_gram(ctx.conditional.T, 1.0 / ctx.context_marginal.weights)


def positive_pair_kernel(ctx: FiniteContext) -> np.ndarray:
    """Density ratio kernel on the context support (two views of one input)."""
    return weighted_gram(adjoint_matrix(ctx).T, 1.0 / ctx.input_marginal.weights)


def _residuals(mat: np.ndarray, left: np.ndarray, s: np.ndarray,
               right: np.ndarray) -> np.ndarray:
    """Per-column residual |mat v - s u| of the triplets ``(left, s, right)``."""
    return np.linalg.norm(mat @ right - left * s, axis=0)


def singular_residuals(spec: ContextureSpectrum,
                       ctx: FiniteContext) -> tuple[np.ndarray, np.ndarray]:
    """Per-column duality residuals |T nu - s mu|_p and |A mu - s nu|_q.

    T is ``ctx.conditional`` and A its adjoint. Nothing is divided by s and
    clamped columns are included: this is the whitened SVD's backward error,
    which by Wedin's bound limits each value's error and each span's angle
    times its gap.
    """
    sp = np.sqrt(spec.input_marginal.weights)
    sq = np.sqrt(spec.context_marginal.weights)
    whitened = sp[:, None] * ctx.conditional / sq[None, :]
    left = sp[:, None] * spec.left_functions
    right = sq[:, None] * spec.right_functions
    s = spec.singular_values
    return (_residuals(whitened, left, s, right),
            _residuals(whitened.T, right, s, left))


def _deflated_operator(ctx: FiniteContext, sp: np.ndarray,
                       sq: np.ndarray) -> np.ndarray:
    """The whitened conditional matrix with its constant pair removed,
    ``diag(sp) T diag(1 / sq) - sp sq^T``, with ``sp`` and ``sq`` the square
    roots of the marginals."""
    deflated = sp[:, None] * ctx.conditional / sq[None, :]
    deflated -= np.outer(sp, sq)
    return deflated


def _reflect_out(cols: np.ndarray, null: np.ndarray) -> None:
    """Reflect ``cols`` in place within their span (one Householder
    reflection) so that every column but the last is orthogonal to the
    unit vector ``null``.

    The reflection moves column i by about c_i / |c|, with c the parts of
    ``null`` along the columns. The longer side of a non-square W has a
    null space the thin SVD only samples, so its span may hold little of
    ``null``; when it holds less than half (|c|^2 < 1/2), the last column,
    a null vector the caller drops, is first replaced by the rest of
    ``null`` outside the others, normalised, which brings |c| to 1.
    """
    c = null @ cols
    if c @ c < 0.5:
        rest = null - cols[:, :-1] @ c[:-1]
        cols[:, -1] = rest / np.linalg.norm(rest)
        c = null @ cols
    h = c  # c, then c + sign(c_last) |c| e_last
    h[-1] += np.copysign(np.linalg.norm(h), h[-1])
    if h @ h > 0.0:
        cols -= np.outer(cols @ h, h * (2.0 / (h @ h)))


def _certified_ritz_triplets(ctx: FiniteContext, keep: int, sp: np.ndarray,
                             sq: np.ndarray):
    """Top ``keep`` >= 1 singular triplets ``(u, s, v)`` of the deflated
    operator W of ``ctx`` from the eigenproblem of its smaller Gram
    matrix, or None if uncertified.

    ``sp`` and ``sq`` are the square roots of the marginals; they are unit
    null vectors of W (the deflated constants). W is formed for the Gram
    product, dropped while ``eigh`` runs, and formed again for the
    Rayleigh-Ritz step. That step on the Gram eigenvectors U (the SVD of
    ``U.T @ W``) leaves ``W.T @ u = s v`` and both sides orthonormal to
    roundoff, so the residual |W v - s u| of each triplet is its only
    error; by Wedin's bound it limits the value error, and the span angle
    times the gap, as the dense SVD's backward error does.
    """
    tall = ctx.conditional.shape[0] > ctx.conditional.shape[1]
    null_left, null_right = (sq, sp) if tall else (sp, sq)

    def operator():  # oriented so that w @ w.T is the smaller Gram matrix
        w = _deflated_operator(ctx, sp, sq)
        return w.T if tall else w

    w = operator()
    gram = w @ w.T
    del w  # not alive while eigh runs
    evals, basis = top_eigenpairs(gram, keep)
    del gram
    if not evals[-1] > GRAM_EIG_REL_FLOOR * evals[0]:
        return None
    # an eigenvector of eigenvalue s^2 picks up Gram roundoff along the null
    # vectors that grows as 1/s^2; removing it keeps the functions
    # orthogonal to the constant to roundoff, as the dense SVD's are
    basis -= np.outer(null_left, null_left @ basis)
    w = operator()
    core = basis.T @ w
    core -= np.outer(core @ null_right, null_right)
    rot, s, vt = np.linalg.svd(core, full_matrices=False)
    u, v = basis @ rot, vt.T
    if np.any(_residuals(w, u, s, v) > RITZ_RESIDUAL_TOL):
        return None
    return (v, s, u) if tall else (u, s, v)


def contexture_svd(ctx: FiniteContext, rank: int | None = None) -> ContextureSpectrum:
    """Measure-weighted SVD of the expectation operator.

    Whitens the conditional matrix by the square roots of the marginals so
    a standard SVD yields marginal-orthonormal singular functions. The
    exact constant pair (value 1) is deflated analytically before the SVD
    and re-attached as column 0, which keeps the constant mode exact even
    when further singular values tie with 1. Signs are fixed so each left
    function's largest-magnitude entry is positive.

    A rank-1 request is the constant pair alone and decomposes nothing.
    Two routes give the remaining ``rank - 1`` triplets of the deflated
    matrix W. The dense route, the default and the oracle, is the thin SVD
    of W, every column reflected to be orthogonal to the constants
    (``_reflect_out``). A rank ``r`` request with 2 <= r <= min(n, m) //
    ``GRAM_RANK_DIVISOR`` first tries the Gram route: ``eigh`` of the
    smaller of W W^T and W^T W, with W dropped while it runs, then one
    Rayleigh-Ritz step on its top r - 1 eigenvectors, with the deflated
    constants (null vectors of W) projected out of both sides. Its result is
    kept only if every retained residual |W v - s u| is at most
    ``RITZ_RESIDUAL_TOL`` and the smallest retained Gram eigenvalue exceeds
    ``GRAM_EIG_REL_FLOOR`` times the largest; otherwise the dense SVD runs
    instead. A certified result agrees with the dense one to the dense SVD's
    own backward error, so values move at the ulp level and a span moves by
    at most the residual over its gap.
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

    keep = rank - 1
    triplets = None
    if keep == 0:  # the constant pair alone: nothing to decompose
        triplets = np.empty((n, 0)), np.empty(0), np.empty((m, 0))
    elif rank <= full // GRAM_RANK_DIVISOR:
        triplets = _certified_ritz_triplets(ctx, keep, sp, sq)
    if triplets is None:
        u, s, vt = np.linalg.svd(_deflated_operator(ctx, sp, sq),
                                 full_matrices=False)
        # W's rank is below min(n, m): reflecting each column's constant part
        # (about eps / s from the SVD) into the dropped last one moves no value
        _reflect_out(u, sp)
        _reflect_out(vt.T, sq)
        triplets = u[:, :keep], s[:keep], vt[:keep].T
    u, s, v = triplets
    values = np.concatenate(([1.0], s))
    left = np.concatenate((sp[:, None], u), axis=1) / sp[:, None]
    right = np.concatenate((sq[:, None], v), axis=1) / sq[:, None]

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


def save_spectrum(spec: ContextureSpectrum, path) -> None:
    """Write ``spec.to_json_dict()`` to ``path`` as one line of JSON.

    Every value is kept bit for bit: the lists through float repr, the
    packed ``left`` and ``right`` as their float64 bytes.
    """
    # json.dumps runs the C encoder; json.dump writes the same bytes through
    # the pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(spec.to_json_dict()))
        fh.write("\n")


def load_spectrum(path) -> ContextureSpectrum:
    """Read a spectrum written by ``save_spectrum``, or an older file with
    ``left`` and ``right`` as nested lists; see ``from_json_dict``."""
    with open(path) as fh:
        return ContextureSpectrum.from_json_dict(json.load(fh))
