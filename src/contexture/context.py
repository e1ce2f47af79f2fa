"""Finite joint distributions linking inputs to a context variable.

A context is a joint distribution over a finite input support and a finite
context support, stored as a row-stochastic conditional matrix plus the
input marginal. Builders cover KNN graphs, RBF kernels, feature-mask
mixtures of either, deterministic labels, and weighted graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import knn_index, sq_dists

# largest |w - w^T| entry a graph adjacency may have
GRAPH_SYMMETRY_ATOL = 1e-10


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability weights over a finite support.

    Weights must be non-negative and finite; they are renormalized on
    construction so the stored vector sums to one exactly up to roundoff.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must have positive total mass")
        object.__setattr__(self, "weights", w / total)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_saved(cls, weights) -> "DiscreteDistribution":
        """A distribution read back from storage. Weights that already sum
        to one to roundoff keep their bits, which a second division by that
        sum can move; others are checked and normalised as on construction."""
        w = np.asarray(weights, dtype=float)
        dist = cls(w)
        if abs(w.sum() - 1.0) <= w.size * np.finfo(float).eps:
            object.__setattr__(dist, "weights", w)
        return dist

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class PointSet:
    """Raw dataset rows: an N x p feature matrix plus optional labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d matrix")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape[0] != pts.shape[0]:
                raise ValueError("labels length must match point count")
            object.__setattr__(self, "labels", lab)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


class FiniteContext:
    """Joint distribution over input x context supports.

    Stores the conditional matrix Q with Q[x, a] = P(a | x) (rows
    renormalized on construction), the input marginal, and the derived
    context marginal. Context points with zero marginal mass are dropped
    at construction; ``context_ids`` records which original columns
    survive. The input marginal must be strictly positive, since support
    points carrying no mass break every weighted inner product downstream.
    """

    def __init__(self, conditional: np.ndarray,
                 input_marginal: DiscreteDistribution,
                 label: str = "",
                 same_support: bool = False,
                 context_ids: np.ndarray | None = None):
        q_mat = np.asarray(conditional, dtype=float)
        if q_mat.ndim != 2:
            raise ValueError("conditional must be a 2-d matrix")
        if same_support and q_mat.shape[0] != q_mat.shape[1]:
            raise ValueError("same_support needs a square conditional, "
                             f"got shape {q_mat.shape}")
        if not np.all(np.isfinite(q_mat)):
            raise ValueError("conditional must be finite")
        if np.any(q_mat < 0):
            raise ValueError("conditional entries must be non-negative")
        n, m = q_mat.shape
        if len(input_marginal) != n:
            raise ValueError("input marginal length must match row count")
        if np.any(input_marginal.weights <= 0):
            raise ValueError("input marginal must be strictly positive")
        row_sums = q_mat.sum(axis=1)
        if np.any(row_sums <= 0):
            raise ValueError("every row must carry positive mass")
        q_mat = q_mat / row_sums[:, None]

        ids = np.arange(m) if context_ids is None else np.asarray(context_ids)
        if ids.shape[0] != m:
            raise ValueError("context_ids length must match column count")

        marg = q_mat.T @ input_marginal.weights
        keep = marg > 0.0
        if not np.all(keep):
            # zero-marginal columns are all-zero (the marginal is positive),
            # so dropping them leaves the rows stochastic; recompute the
            # marginal from the final matrix so consistency is bit-exact
            q_mat = q_mat[:, keep]
            ids = ids[keep]
            marg = q_mat.T @ input_marginal.weights
            same_support = False

        self.conditional = q_mat
        self.input_marginal = input_marginal
        self.context_marginal = DiscreteDistribution(marg)
        self.label = label
        self.same_support = bool(same_support)
        self.context_ids = ids

    @property
    def n_inputs(self) -> int:
        return self.conditional.shape[0]

    @property
    def n_context(self) -> int:
        return self.conditional.shape[1]

    def __repr__(self) -> str:
        return (f"FiniteContext(label={self.label!r}, n_inputs={self.n_inputs}, "
                f"n_context={self.n_context}, same_support={self.same_support})")


# ---------------------------------------------------------------------------
# feature-subset mixtures (every kNN and RBF context is one)
# ---------------------------------------------------------------------------

def _rbf_conditional(points: np.ndarray, gamma: float) -> np.ndarray:
    # every exponent is <= 0 and each row's own is 0, so exp cannot overflow
    # and each row sum is at least 1. In place, so one n x n array is held
    q_mat = sq_dists(points, points)
    q_mat *= -gamma
    np.exp(q_mat, out=q_mat)
    q_mat /= q_mat.sum(axis=1, keepdims=True)
    return q_mat


def _base_param(n: int, kind: str, param) -> int | float:
    """A base kind's parameter for n points, checked and typed.

    ``knn`` takes k in [1, n - 1]; ``rbf`` takes a positive finite gamma.
    """
    if kind == "knn":
        if not 1 <= param <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {param}")
        return int(param)
    if kind == "rbf":
        if not (param > 0 and np.isfinite(param)):
            raise ValueError(f"gamma must be a positive real, got {param}")
        return float(param)
    raise ValueError(f"unknown base builder {kind!r} (expected knn or rbf)")


def _mixture(points: PointSet, kind: str, param,
             subsets: dict[tuple[int, ...], int], label: str) -> FiniteContext:
    """Average of base contexts over feature subsets, weighted by count.

    Each subset is built once; a plain context is all features at count 1.
    kNN adds 1/k once per count, and adding to 0.0 is exact, so it is
    bitwise the one-by-one average; RBF adds each subset's conditional
    times its count, which differs from that only in roundoff.
    """
    n = points.n_points
    param = _base_param(n, kind, param)
    accum = np.zeros((n, n)) if kind == "knn" else None
    for keep, count in subsets.items():
        surviving = points.points[:, list(keep)]
        if kind == "knn":
            idx = knn_index(surviving, param)
            for _ in range(count):
                accum[np.arange(n)[:, None], idx] += 1.0 / param
            del idx  # n * k: held on, it fragments the heap
        else:
            conditional = _rbf_conditional(surviving, param)
            conditional *= count
            if accum is None:
                accum = conditional
            else:
                accum += conditional
            del conditional  # not held while the next subset is built
    accum /= sum(subsets.values())
    return FiniteContext(accum, DiscreteDistribution.uniform(n), label=label,
                         same_support=True)


# ---------------------------------------------------------------------------
# public builders (every input marginal is uniform except the graph's)
# ---------------------------------------------------------------------------

def build_knn_context(points: PointSet, k: int) -> FiniteContext:
    """Uniform distribution over the k nearest neighbors of each point.

    Euclidean distance; a point is never its own neighbor; ties at the
    k-th distance are broken by ascending point index.
    """
    return _mixture(points, "knn", k, {tuple(range(points.n_features)): 1},
                    f"knn:{k}")


def build_rbf_context(points: PointSet, gamma: float) -> FiniteContext:
    """Rows proportional to exp(-gamma * squared distance), self included."""
    return _mixture(points, "rbf", gamma,
                    {tuple(range(points.n_features)): 1}, f"rbf:{gamma:g}")


def build_masked_context(points: PointSet, base: tuple[str, float],
                         mask_fraction: float, n_masks: int,
                         seed: int) -> FiniteContext:
    """Average of base contexts built on random surviving feature subsets.

    ``base`` is a ``(kind, param)`` pair checked as the plain builder of
    that kind checks it. Each mask removes ``round(mask_fraction * p)``
    features drawn without replacement; masks are drawn independently of
    each other, so a feature may be masked in several of them.
    Deterministic in ``seed``.

    All masks are drawn first and each distinct surviving subset is built
    once, so the build cost scales with the number of distinct subsets,
    at most C(p, round(mask_fraction * p)), not with ``n_masks``.
    """
    kind, param = base
    if n_masks < 1:
        raise ValueError("n_masks must be at least 1")
    p = points.n_features
    if not 0 <= mask_fraction < 1:
        raise ValueError(f"mask_fraction must be in [0, 1), got {mask_fraction}")
    n_masked = int(round(mask_fraction * p))
    if n_masked >= p:
        raise ValueError(
            f"mask_fraction={mask_fraction} removes all {p} features")
    rng = np.random.default_rng(seed)
    # surviving feature subset -> number of masks that leave it
    subsets: dict[tuple[int, ...], int] = {}
    for _ in range(n_masks):
        masked = rng.choice(p, size=n_masked, replace=False)
        keep = tuple(np.setdiff1d(np.arange(p), masked).tolist())
        subsets[keep] = subsets.get(keep, 0) + 1
    return _mixture(points, kind, param, subsets,
                    f"{kind}+mask:{param:g}:{mask_fraction:g}:{n_masks}")


def build_label_context(labels: np.ndarray) -> FiniteContext:
    """Deterministic class-label context: one-hot rows over the classes."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 2:
        raise ValueError("labels must be a 1-d vector with at least 2 entries")
    classes, codes = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 distinct classes")
    n = labels.size
    q_mat = np.zeros((n, classes.size))
    q_mat[np.arange(n), codes] = 1.0
    return FiniteContext(q_mat, DiscreteDistribution.uniform(n), label="label",
                         same_support=False)


def build_graph_context(adjacency: np.ndarray) -> FiniteContext:
    """Random-walk context of a weighted undirected graph.

    The input marginal is the degree distribution, and each row is the
    one-step transition distribution from that node.
    """
    w = np.asarray(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError("adjacency must be finite")
    if np.any(w < 0):
        raise ValueError("adjacency weights must be non-negative")
    if np.max(np.abs(w - w.T)) > GRAPH_SYMMETRY_ATOL:
        raise ValueError(
            f"adjacency must be symmetric within {GRAPH_SYMMETRY_ATOL}")
    w = 0.5 * (w + w.T)
    degrees = w.sum(axis=1)
    if np.any(degrees <= 0):
        bad = int(np.argmin(degrees))
        raise ValueError(f"isolated node {bad}: degree must be positive")
    marginal = DiscreteDistribution(degrees / degrees.sum())
    return FiniteContext(w / degrees[:, None], marginal, label="graph",
                         same_support=True)


# ---------------------------------------------------------------------------
# descriptor strings (CLI / config surface)
# ---------------------------------------------------------------------------

def parse_descriptor(descriptor: str) -> dict:
    """Parse a context descriptor string into its kind and parameters.

    Grammar: ``knn:K``, ``rbf:GAMMA``, ``knn+mask:K:FRAC:NMASKS``,
    ``rbf+mask:GAMMA:FRAC:NMASKS``, ``label``, ``graph:PATH``.
    """
    head, _, rest = descriptor.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if head == "knn" and len(parts) == 1:
            return {"kind": "knn", "k": int(parts[0])}
        if head == "rbf" and len(parts) == 1:
            return {"kind": "rbf", "gamma": float(parts[0])}
        if head == "knn+mask" and len(parts) == 3:
            return {"kind": "knn+mask", "k": int(parts[0]),
                    "mask_fraction": float(parts[1]), "n_masks": int(parts[2])}
        if head == "rbf+mask" and len(parts) == 3:
            return {"kind": "rbf+mask", "gamma": float(parts[0]),
                    "mask_fraction": float(parts[1]), "n_masks": int(parts[2])}
        if head == "label" and not parts:
            return {"kind": "label"}
        if head == "graph" and len(parts) >= 1:
            return {"kind": "graph", "path": rest}
    except ValueError as exc:
        raise ValueError(f"bad context descriptor {descriptor!r}: {exc}") from exc
    raise ValueError(f"unrecognized context descriptor {descriptor!r}")


def build_from_descriptor(descriptor: str, points: PointSet | None = None,
                          seed: int = 0) -> FiniteContext:
    """Build the context a descriptor string names."""
    spec = parse_descriptor(descriptor)
    kind = spec["kind"]
    if kind == "graph":
        adjacency = np.loadtxt(spec["path"], delimiter=",", ndmin=2)
        return build_graph_context(adjacency)
    if points is None:
        raise ValueError(f"descriptor {descriptor!r} needs a point set")
    base, _, mask = kind.partition("+")
    if base in ("knn", "rbf"):
        param = spec["k"] if base == "knn" else spec["gamma"]
        if mask:
            return build_masked_context(points, (base, param),
                                        spec["mask_fraction"],
                                        spec["n_masks"], seed)
        # looked up at call time, so a wrapped plain builder is the one called
        plain = build_knn_context if base == "knn" else build_rbf_context
        return plain(points, param)
    # parse_descriptor returns no other kind
    if points.labels is None:
        raise ValueError("label context needs a labeled point set")
    return build_label_context(points.labels)
