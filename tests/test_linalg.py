import numpy as np
from hypothesis import given, settings, strategies as st

from contexture._linalg import _DIST_BLOCK_ROWS, fix_signs, nearest, sq_dists
from contexture.harness import extend_encoder


def unblocked_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def grid_points(rng, n, p, levels=3):
    """Integer-grid points: duplicate rows and distance ties are common."""
    return rng.integers(0, levels, size=(n, p)).astype(float)


@settings(max_examples=30, deadline=None)
@given(n_a=st.sampled_from([1, _DIST_BLOCK_ROWS - 1, _DIST_BLOCK_ROWS,
                            _DIST_BLOCK_ROWS + 1, 2 * _DIST_BLOCK_ROWS + 7]),
       n_b=st.integers(1, 30), p=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_sq_dists_bitwise_equal_to_unblocked(n_a, n_b, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_a, p)) * rng.uniform(0.01, 100.0)
    b = rng.standard_normal((n_b, p))
    b[: n_b // 2] = a[rng.integers(0, n_a, size=n_b // 2)]  # duplicate rows
    got = sq_dists(a, b)
    assert np.array_equal(got, unblocked_sq_dists(a, b))
    dup_rows, dup_cols = np.nonzero((a[:, None, :] == b[None, :, :]).all(axis=2))
    assert np.all(got[dup_rows, dup_cols] == 0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), p=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_nearest_breaks_ties_by_ascending_index(n, p, seed, data):
    k = data.draw(st.integers(1, n))
    pts = grid_points(np.random.default_rng(seed), n, p)
    dists = sq_dists(pts, pts)
    got = nearest(dists, k)
    for i in range(n):
        oracle = sorted(range(n), key=lambda j: (dists[i, j], j))[:k]
        assert got[i].tolist() == oracle


@settings(max_examples=30, deadline=None)
@given(n_train=st.integers(1, 40), n_query=st.integers(1, 20),
       k=st.integers(1, 8), seed=st.integers(0, 2 ** 31 - 1))
def test_extend_encoder_returns_exact_value_of_duplicate_row(n_train, n_query,
                                                             k, seed):
    rng = np.random.default_rng(seed)
    train = grid_points(rng, n_train, 2)
    values = rng.standard_normal((n_train, 3))
    query = train[rng.integers(0, n_train, size=n_query)]
    out = extend_encoder(train, values, query, k=k)
    for row, q in zip(out, query):
        first_match = int(np.flatnonzero((train == q).all(axis=1))[0])
        assert np.array_equal(row, values[first_match])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(0, 6),
       seed=st.integers(0, 2 ** 31 - 1), integer=st.booleans())
def test_fix_signs_peak_positive_paired_and_idempotent(n, d, seed, integer):
    rng = np.random.default_rng(seed)
    cols = rng.integers(-2, 3, size=(n, d)).astype(float) if integer \
        else rng.standard_normal((n, d))
    other = rng.standard_normal((n + 3, d))
    fixed, fixed_other = cols.copy(), other.copy()
    fix_signs(fixed, fixed_other)
    for j in range(d):
        assert fixed[np.argmax(np.abs(fixed[:, j])), j] >= 0
        flipped = not np.array_equal(fixed[:, j], cols[:, j])
        expected = -other[:, j] if flipped else other[:, j]
        assert np.array_equal(fixed_other[:, j], expected)
        assert np.array_equal(np.abs(fixed[:, j]), np.abs(cols[:, j]))
    again, again_other = fixed.copy(), fixed_other.copy()
    fix_signs(again, again_other)
    assert np.array_equal(again, fixed)
    assert np.array_equal(again_other, fixed_other)
