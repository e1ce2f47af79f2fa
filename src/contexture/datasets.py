"""Deterministic synthetic tabular datasets for the experiment pipeline.

Small headered CSVs in the shape of public tabular benchmarks: numeric
feature columns plus one target column (categorical targets are written
as strings to exercise integer coding). All generators are pure in their
seed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ._linalg import sq_dists
from .context import PointSet, build_graph_context, build_rbf_context
from .spectral import contexture_svd


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def make_rings(path, n=420, seed=0) -> Path:
    """Three concentric ring bands in 2-d plus noise features; string labels."""
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.2, 3.0, size=n)
    angle = rng.uniform(0, 2 * np.pi, size=n)
    x1 = radius * np.cos(angle) + 0.05 * rng.standard_normal(n)
    x2 = radius * np.sin(angle) + 0.05 * rng.standard_normal(n)
    noise = rng.standard_normal((n, 4))
    names = np.array(["inner", "mid", "outer"])
    label = names[np.digitize(radius, [1.1, 2.1])]
    rows = [[f"{x1[i]:.6f}", f"{x2[i]:.6f}",
             *(f"{v:.6f}" for v in noise[i]), label[i]] for i in range(n)]
    _write_csv(path, ["x1", "x2", "n1", "n2", "n3", "n4", "band"], rows)
    return Path(path)


def make_waves(path, n=400, seed=1) -> Path:
    """Smooth nonlinear regression surface over 5 features."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 5))
    y = (np.sin(1.5 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]
         + 0.3 * x[:, 3] ** 2 + 0.05 * rng.standard_normal(n))
    rows = [[*(f"{v:.6f}" for v in x[i]), f"{y[i]:.6f}"] for i in range(n)]
    _write_csv(path, ["f0", "f1", "f2", "f3", "f4", "y"], rows)
    return Path(path)


def make_blobs(path, n=440, seed=2) -> Path:
    """Gaussian clusters whose identity drives a noisy scalar response."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4, 4, size=(5, 4))
    assign = rng.integers(0, 5, size=n)
    x = centers[assign] + 0.6 * rng.standard_normal((n, 4))
    response = assign * 1.7 + 0.2 * rng.standard_normal(n)
    rows = [[*(f"{v:.6f}" for v in x[i]), f"{response[i]:.6f}"]
            for i in range(n)]
    _write_csv(path, ["a", "b", "c", "d", "value"], rows)
    return Path(path)


def make_planted(path, n=160, seed=3, gamma=0.5) -> Path:
    """Two well-separated blobs whose target is the top nontrivial singular
    function of a moderate-bandwidth RBF context on the standardized rows.

    A grid containing that context should rank it best on this target.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.concatenate([
        rng.standard_normal((half, 3)) * 0.7 + np.array([2.5, 0.0, 0.0]),
        rng.standard_normal((n - half, 3)) * 0.7 - np.array([2.5, 0.0, 0.0]),
    ])
    standardized = (pts - pts.mean(axis=0)) / pts.std(axis=0)
    ctx = build_rbf_context(PointSet(standardized), gamma=gamma)
    spec = contexture_svd(ctx, rank=2)
    target = spec.left_functions[:, 1]
    rows = [[*(f"{v:.8f}" for v in pts[i]), f"{target[i]:.8f}"]
            for i in range(n)]
    _write_csv(path, ["u", "v", "w", "target"], rows)
    return Path(path)


def make_planted_graph(directory, n=160, seed=17, split_seed=0,
                       fractions=(0.7, 0.15, 0.15), latent_gamma=1.0):
    """Dataset whose target is the top singular function of a planted graph.

    The graph's adjacency comes from latent coordinates unrelated to the
    feature columns, so feature-built contexts cannot represent the
    target; held-out rows carry the same 5-nearest-pretrain-rows extension
    the experiment harness applies to encoders. Returns the dataset path,
    the adjacency path, and the planted context descriptor.
    """
    from .harness import extend_encoder, split_dataset, zscore_by_reference

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 3))
    idx_pre, idx_down, idx_test = split_dataset(n, fractions, split_seed)

    latent = rng.standard_normal((len(idx_pre), 2))
    adjacency = np.exp(-latent_gamma * sq_dists(latent, latent))
    np.fill_diagonal(adjacency, 0.0)
    ctx = build_graph_context(adjacency)
    mu1 = contexture_svd(ctx, rank=2).left_functions[:, 1]

    z = zscore_by_reference(feats, idx_pre)
    target = np.zeros(n)
    target[idx_pre] = mu1
    rest = np.concatenate([idx_down, idx_test])
    target[rest] = extend_encoder(z[idx_pre], mu1[:, None], z[rest], k=5)[:, 0]

    adj_path = directory / "planted_adjacency.csv"
    np.savetxt(adj_path, adjacency, delimiter=",")
    csv_path = directory / "planted_graph.csv"
    rows = [[*(f"{v:.8f}" for v in feats[i]), f"{target[i]:.8f}"]
            for i in range(n)]
    _write_csv(csv_path, ["u", "v", "w", "target"], rows)
    return csv_path, adj_path, f"graph:{adj_path}"


def write_benchmark_suite(directory) -> list[Path]:
    """The three benchmark-style tables used by the experiment tests."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        make_rings(directory / "rings.csv"),
        make_waves(directory / "waves.csv"),
        make_blobs(directory / "blobs.csv"),
    ]
