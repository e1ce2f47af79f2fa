"""Dense linear algebra over finite-measure (weighted) inner products.

Every function space in this package is realized as vectors over a finite
support with a probability weighting, so "functions" are columns of value
matrices and inner products are weighted sums.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# rows per block in ``sq_dists``: bounds the difference tensor it builds
_DIST_BLOCK_ROWS = 256


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    Differences are squared and summed directly, in blocks of rows, rather
    than through the Gram identity |a|^2 + |b|^2 - 2ab, which would turn
    the exact zeros of duplicate rows and exact distance ties into roundoff.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], _DIST_BLOCK_ROWS):
        diff = a[start:start + _DIST_BLOCK_ROWS, None, :] - b[None, :, :]
        out[start:start + _DIST_BLOCK_ROWS] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest column indices; ties go to the lower index."""
    return np.argsort(dists, axis=1, kind="stable")[:, :k]


def fix_signs(columns: np.ndarray, *paired: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry is positive.

    The same columns of every ``paired`` array flip with them. A magnitude
    tie goes to the entry with the lowest row index.
    """
    peaks = np.argmax(np.abs(columns), axis=0)
    flip = columns[peaks, np.arange(columns.shape[1])] < 0
    for arr in (columns, *paired):
        arr[:, flip] = -arr[:, flip]


def weighted_inner(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sum(weights * f * g))


def weighted_norm(f: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * f * f)))


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mean of each column under the weighting distribution."""
    return weights @ values


def weighted_center(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return values - weighted_mean(values, weights)


def weighted_cov(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Covariance matrix of the columns under the weighting distribution."""
    centered = weighted_center(values, weights)
    return centered.T @ (weights[:, None] * centered)


def sym_inv_sqrt(mat: np.ndarray, rel_floor: float = 1e-13) -> np.ndarray:
    """Inverse square root of a symmetric PSD matrix.

    Raises NumericalError if the matrix is numerically rank deficient,
    since a degenerate covariance cannot be whitened.
    """
    mat = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(mat)
    top = float(evals[-1])
    if top <= 0.0 or evals[0] < rel_floor * top:
        raise NumericalError("matrix is numerically singular; cannot whiten")
    return (evecs / np.sqrt(evals)) @ evecs.T


def whiten_columns(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Center columns and transform them to identity covariance."""
    centered = weighted_center(values, weights)
    return centered @ sym_inv_sqrt(weighted_cov(values, weights))


def orthonormal_basis(values: np.ndarray, weights: np.ndarray,
                      rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (in the weighted inner product) of the column span."""
    scaled = np.sqrt(weights)[:, None] * values
    u, s, _ = np.linalg.svd(scaled, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((values.shape[0], 0))
    keep = s > rel_tol * s[0]
    return u[:, keep] / np.sqrt(weights)[:, None]


def principal_angle_cosines(a: np.ndarray, b: np.ndarray, weights: np.ndarray,
                            center: bool = False) -> np.ndarray:
    """Cosines of the principal angles between two column spans.

    Computed in the weighted inner product; with ``center=True`` the spans
    of the centered columns are compared instead.
    """
    if center:
        a = weighted_center(a, weights)
        b = weighted_center(b, weights)
    qa = np.sqrt(weights)[:, None] * orthonormal_basis(a, weights)
    qb = np.sqrt(weights)[:, None] * orthonormal_basis(b, weights)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    cos = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.clip(cos, 0.0, 1.0)


def independent_columns(values: np.ndarray, weights: np.ndarray,
                        rel_tol: float = 1e-10) -> list[int]:
    """Indices of a maximal linearly independent subset of columns.

    Greedy left-to-right Gram-Schmidt in the weighted inner product: a
    column is kept if its residual against the kept ones is non-negligible.
    """
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for j in range(values.shape[1]):
        col = values[:, j].astype(float)
        norm0 = weighted_norm(col, weights)
        if norm0 <= 0.0:
            continue
        resid = col.copy()
        for b in basis:
            resid -= weighted_inner(resid, b, weights) * b
        norm_r = weighted_norm(resid, weights)
        if norm_r > rel_tol * norm0:
            kept.append(j)
            basis.append(resid / norm_r)
    return kept


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-12,
                       max_iter: int = 300) -> float:
    """Golden-section search for the minimizer of a unimodal function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def as_native(obj):
    """Recursively convert numpy scalars/arrays to plain Python objects."""
    if isinstance(obj, np.ndarray):
        return [as_native(v) for v in obj.tolist()] if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: as_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_native(v) for v in obj]
    return obj
