"""Dense linear algebra over finite-measure (weighted) inner products.

Every function space in this package is realized as vectors over a finite
support with a probability weighting, so "functions" are columns of value
matrices and inner products are weighted sums.
"""

from __future__ import annotations

import numpy as np

# rows per block in ``sq_dists``, small enough that a block's three arrays
# stay in cache; each row is summed in one block, so the bits do not change
_DIST_BLOCK_ROWS = 32
# relative size below which a singular value or residual counts as zero
_RANK_REL_TOL = 1e-10


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    Differences are squared and summed directly, in blocks of rows, rather
    than through the Gram identity |a|^2 + |b|^2 - 2ab, which would turn
    the exact zeros of duplicate rows and exact distance ties into roundoff.
    The sum over features has one fixed order: features 0, 2, 4, ... added
    left to right, features 1, 3, 5, ... likewise, then the two partial
    sums. The order is written here rather than left to a reduction kernel,
    so every memory layout of the inputs gives the same bits, and
    ``sq_dists(a, b)`` is ``sq_dists(b, a).T`` exactly. For p <= 7 it is
    the order numpy's ``einsum("ijk,ijk->ij")`` uses; from p = 8 einsum
    unrolls differently, and the two differ by a few ulps.
    """
    p = a.shape[1]
    if b.shape[1] != p:
        raise ValueError(f"feature counts differ: {p} and {b.shape[1]}")
    # one contiguous vector per feature, so each term is a plain broadcast
    a_cols = np.ascontiguousarray(a.T, dtype=float)
    b_cols = np.ascontiguousarray(b.T, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    odd = np.empty((min(a.shape[0], _DIST_BLOCK_ROWS), b.shape[0]))
    term = np.empty_like(odd)
    for start in range(0, a.shape[0], _DIST_BLOCK_ROWS):
        rows = slice(start, start + _DIST_BLOCK_ROWS)
        n_rows = out[rows].shape[0]
        sums = (out[rows], odd[:n_rows])  # even- and odd-indexed features
        for k in range(p):
            dest = sums[k] if k < 2 else term[:n_rows]
            np.subtract(a_cols[k, rows, None], b_cols[k], out=dest)
            dest *= dest
            if k >= 2:
                np.add(sums[k % 2], dest, out=sums[k % 2])
        if p > 1:
            np.add(sums[0], sums[1], out=sums[0])
    return out


def nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest column indices; ties go to the lower index.

    Selects by partition rather than a full sort: ``np.argpartition`` picks
    k columns per row and they are ordered by (distance, index); only a row
    whose k-th distance recurs outside the pick is redone by a stable sort.
    The result equals the first k columns of a stable argsort.
    """
    m = dists.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    picked = np.argpartition(dists, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dists, picked[:, k - 1:], axis=1)
    # more than k entries not above the k-th distance: a tie at the boundary
    tied = np.count_nonzero(dists > kth, axis=1) < m - k
    picked = np.sort(picked, axis=1)
    order = np.argsort(np.take_along_axis(dists, picked, axis=1), axis=1,
                       kind="stable")
    out = np.take_along_axis(picked, order, axis=1)
    if tied.any():
        out[tied] = np.argsort(dists[tied], axis=1, kind="stable")[:, :k]
    return out


def knn_index(points: np.ndarray, k: int) -> np.ndarray:
    """Each point's k nearest other points, ties to the lower index."""
    dists = sq_dists(points, points)
    np.fill_diagonal(dists, np.inf)
    return nearest(dists, k)


def top_eigenpairs(mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric ``mat``, descending, and
    their eigenvectors as C-ordered columns.

    ``mat`` must be symmetric bit for bit (``eigh`` reads one triangle): a
    Gram product ``w @ w.T`` or ``weighted_gram`` is; any other product is
    symmetrised by its caller.
    """
    evals, evecs = np.linalg.eigh(mat)
    # C order: downstream BLAS products round differently by memory layout
    return evals[::-1][:k], np.ascontiguousarray(evecs[:, ::-1][:, :k])


def fix_signs(columns: np.ndarray, *paired: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry is positive.

    The same columns of every ``paired`` array flip with them. A magnitude
    tie goes to the entry with the lowest row index.
    """
    peaks = np.argmax(np.abs(columns), axis=0)
    signs = np.where(columns[peaks, np.arange(columns.shape[1])] < 0, -1.0, 1.0)
    for arr in (columns, *paired):
        arr *= signs


def weighted_norm(f: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * f * f)))


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mean of each column under the weighting distribution."""
    return weights @ values


def weighted_center(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return values - weighted_mean(values, weights)


def weighted_gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``values.T @ diag(weights) @ values``, formed as ``r.T @ r`` with
    ``r = sqrt(weights) * values``. numpy takes that product as a BLAS
    symmetric rank-k update (syrk) and mirrors one triangle, so it is
    symmetric bit for bit."""
    r = np.sqrt(weights)[:, None] * values
    return r.T @ r


def weighted_cov(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Covariance matrix of the columns under the weighting distribution."""
    return weighted_gram(weighted_center(values, weights), weights)


def span_svd(values: np.ndarray, weights: np.ndarray, center: bool = False):
    """Thin SVD ``(u, s, vt)`` of ``sqrt(weights) * values``, cut at its
    numerical rank; an all-zero span keeps no singular triplet.

    With ``center=True`` the columns are centred first and the cut is taken
    relative to the Frobenius norm of the uncentred scaled values: centring
    leaves roundoff of that size, so a constant column keeps no span. That
    norm bounds the top singular value within sqrt(d), so it moves the cut
    only inside the roundoff band and needs no second SVD.
    """
    root = np.sqrt(weights)[:, None]
    scaled = root * values
    if center:
        scale = np.linalg.norm(scaled)
        scaled = root * weighted_center(values, weights)
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    # s is descending, so the kept triplets are a leading slice
    k = np.count_nonzero(s > _RANK_REL_TOL * (scale if center else s[:1]))
    return u[:, :k], s[:k], vt[:k]


def orthonormal_basis(values: np.ndarray, weights: np.ndarray,
                      center: bool = False) -> np.ndarray:
    """Orthonormal basis (in the weighted inner product) of the column span,
    of the centred columns with ``center=True``."""
    return span_svd(values, weights, center)[0] / np.sqrt(weights)[:, None]


def principal_angle_cosines(a: np.ndarray, b: np.ndarray, weights: np.ndarray,
                            center: bool = False) -> np.ndarray:
    """Cosines of the principal angles between two column spans.

    Computed in the weighted inner product; with ``center=True`` the spans
    of the centered columns are compared instead.
    """
    qa = span_svd(a, weights, center)[0]
    qb = span_svd(b, weights, center)[0]
    cos = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.clip(cos, 0.0, 1.0)


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
