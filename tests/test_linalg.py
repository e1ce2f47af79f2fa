import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import contexture
from contexture import (DiscreteDistribution, FiniteContext, NumericalError,
                        PointSet, SampleEncoder, build_knn_context,
                        build_label_context, build_masked_context,
                        build_rbf_context, contexture_svd, dual_kernel,
                        estimate_covariances, estimate_spectrum_posthoc,
                        eval_objective, evaluation, kernel_association_measures,
                        positive_pair_kernel, verify_theorems)
from contexture._linalg import (_DIST_BLOCK_ROWS, fix_signs, knn_index, nearest,
                                orthonormal_basis, sq_dists, top_eigenpairs,
                                weighted_center, weighted_cov, weighted_gram)
from contexture.harness import extend_encoder
from contexture.objectives import (_FORMS, ObjectiveKind, _population_loss,
                                   solve_variational)
from contexture.verify import random_graph_context


# points per side of a tile in the tiled reference scan, and the step of
# the sample sizes the Lipschitz tests draw
GAP_BLOCK = 8


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


@settings(max_examples=40, deadline=None)
@given(n_a=st.integers(1, 40), n_b=st.integers(1, 40), p=st.integers(2, 6),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_sq_dists_is_independent_of_memory_layout(n_a, n_b, p, seed, data):
    # a column selection, a strided view, an F-ordered and a C-ordered copy
    # of the same values: the sum over features runs in one order for all
    rng = np.random.default_rng(seed)
    cols = data.draw(st.permutations(range(2 * p)))[:p]
    layouts = []
    for rows in (n_a, n_b):
        wide = rng.standard_normal((rows, 2 * p)) * rng.uniform(0.01, 100.0)
        picked = wide[:, cols]
        wide[:, ::2] = picked
        layouts.append((picked, wide[:, ::2], np.asfortranarray(picked),
                        np.ascontiguousarray(picked)))
    ref = sq_dists(layouts[0][-1], layouts[1][-1])
    for a in layouts[0]:
        for b in layouts[1]:
            assert np.array_equal(sq_dists(a, b), ref)


def even_odd_sq_dists(a, b):
    """Unblocked: the even-indexed features' squared differences summed
    left to right, the odd-indexed ones likewise, then the two sums."""
    terms = [(a[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1])]
    even = terms[0]
    for term in terms[2::2]:
        even = even + term
    if len(terms) == 1:
        return even
    odd = terms[1]
    for term in terms[3::2]:
        odd = odd + term
    return even + odd


@settings(max_examples=60, deadline=None)
@given(n_a=st.sampled_from([1, 7, _DIST_BLOCK_ROWS, _DIST_BLOCK_ROWS + 3]),
       n_b=st.integers(1, 30), p=st.integers(1, 12), grid=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_sq_dists_sums_even_then_odd_features(n_a, n_b, p, grid, seed, data):
    rng = np.random.default_rng(seed)
    if grid:  # ties and duplicate rows
        wide_a, wide_b = grid_points(rng, n_a, 2 * p), grid_points(rng, n_b, 2 * p)
    else:
        scale = 10.0 ** rng.uniform(-3, 3, size=2 * p)
        wide_a = rng.standard_normal((n_a, 2 * p)) * scale
        wide_b = rng.standard_normal((n_b, 2 * p)) * scale
        wide_b[: n_b // 2] = wide_a[rng.integers(0, n_a, size=n_b // 2)]
    cols = data.draw(st.permutations(range(2 * p)))[:p]
    a, b = wide_a[:, cols], wide_b[:, cols]
    ref = even_odd_sq_dists(a, b)
    wide_a[:, ::2], wide_b[:, ::2] = a, b
    for a_view in (a, wide_a[:, ::2], np.asfortranarray(a)):
        for b_view in (b, wide_b[:, ::2], np.asfortranarray(b)):
            assert np.array_equal(sq_dists(a_view, b_view), ref)
    assert np.array_equal(sq_dists(b, a), ref.T)
    dup_rows, dup_cols = np.nonzero((a[:, None, :] == b[None, :, :]).all(axis=2))
    assert np.all(ref[dup_rows, dup_cols] == 0.0)
    assert np.all(ref[(a[:, None, :] != b[None, :, :]).any(axis=2)] > 0.0)


@settings(max_examples=20, deadline=None)
@given(n_a=st.sampled_from([1, _DIST_BLOCK_ROWS + 1]), n_b=st.integers(1, 30),
       seed=st.integers(0, 2 ** 31 - 1))
def test_sq_dists_bitwise_equal_to_einsum_at_seven_features(n_a, n_b, seed):
    # the largest feature count at which einsum sums in the same order
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=7)
    a = rng.standard_normal((n_a, 7)) * scale
    b = rng.standard_normal((n_b, 7)) * scale
    assert np.array_equal(sq_dists(a, b), unblocked_sq_dists(a, b))


def test_sq_dists_rejects_differing_feature_counts():
    with pytest.raises(ValueError, match="feature counts"):
        sq_dists(np.zeros((3, 2)), np.zeros((4, 3)))


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


@settings(max_examples=25, deadline=None)
@given(n_rows=st.integers(1, 12), n_cols=st.integers(1, 300),
       levels=st.sampled_from([2, 3, 5, None]), inf_diagonal=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def test_nearest_equals_stable_argsort_for_every_k(n_rows, n_cols, levels,
                                                    inf_diagonal, seed):
    rng = np.random.default_rng(seed)
    if levels is None:
        dists = rng.exponential(size=(n_rows, n_cols))
    else:  # few distinct values: ties straddle the k-th column for most k
        dists = rng.integers(0, levels, size=(n_rows, n_cols)).astype(float)
    if inf_diagonal:
        diag = np.arange(min(n_rows, n_cols))
        dists[diag, diag] = np.inf
    oracle = np.argsort(dists, axis=1, kind="stable")
    for k in range(1, n_cols + 1):
        assert np.array_equal(nearest(dists, k), oracle[:, :k])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 30), p=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_knn_index_is_nearest_with_self_excluded(n, p, seed, data):
    k = data.draw(st.integers(1, n - 1))
    pts = grid_points(np.random.default_rng(seed), n, p)
    got = knn_index(pts, k)
    dists = sq_dists(pts, pts)
    for i in range(n):
        oracle = sorted((j for j in range(n) if j != i),
                        key=lambda j: (dists[i, j], j))[:k]
        assert got[i].tolist() == oracle


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1),
       repeated=st.booleans(), data=st.data())
def test_top_eigenpairs_is_eigh_reversed_and_sliced(n, seed, repeated, data):
    # top_eigenpairs takes a symmetric matrix, as every Gram product is; the
    # roundoff-asymmetric post-hoc sandwich is symmetrised by its caller
    # (tests/test_estimation.py pins that path to its earlier bits)
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    if repeated:  # a low-rank PSD matrix: a repeated zero eigenvalue
        half = rng.integers(-2, 3, size=(n, max(1, n // 3))).astype(float)
        mat = half @ half.T
    else:  # the weighted product mat @ diag(w) @ mat.T
        mat = rng.standard_normal((n, n))
        mat = weighted_gram(mat.T, rng.uniform(0.1, 2.0, n))
    assert np.array_equal(mat, mat.T)
    evals, evecs = top_eigenpairs(mat, k)
    ref_vals, ref_vecs = np.linalg.eigh(mat)
    assert np.array_equal(evals, ref_vals[::-1][:k])
    assert np.array_equal(evecs, ref_vecs[:, ::-1][:, :k])
    assert evecs.flags.c_contiguous and evecs.shape == (n, k)


def gram_context(kind, rng, data):
    """A context of one kind: ``dense`` Dirichlet rows (tall or wide),
    ``knn`` at k = 1 with the columns of points nobody picks dropped,
    ``masked`` kNN or RBF, ``label`` or ``graph``."""
    n = data.draw(st.integers(3, 60), label="n")
    if kind == "dense":
        m = data.draw(st.integers(2, 60), label="m")
        return FiniteContext(rng.dirichlet(np.full(m, 0.5), size=n),
                             DiscreteDistribution(rng.dirichlet(np.ones(n))))
    if kind == "label":
        labels = rng.integers(0, data.draw(st.integers(2, 6), label="classes"), n)
        labels[:2] = (0, 1)
        return build_label_context(labels)
    if kind == "graph":
        return random_graph_context(rng, n)
    points = PointSet(rng.standard_normal((n, 3)))
    if kind == "knn":
        ctx = build_knn_context(points, 1)
        assume(ctx.n_context < n)
        return ctx
    base = data.draw(st.sampled_from([("knn", 2), ("rbf", 1.0)]), label="base")
    return build_masked_context(points, base, 0.34, 5, int(rng.integers(1000)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dense", "knn", "masked", "label", "graph"]),
       d=st.integers(1, 6), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_weighted_gram_products_are_symmetric_bit_for_bit(kind, d, seed, data):
    rng = np.random.default_rng(seed)
    ctx = gram_context(kind, rng, data)
    p = ctx.input_marginal.weights
    enc = SampleEncoder(rng.standard_normal((ctx.n_inputs, d)), "input",
                        ctx.input_marginal)
    exact = estimate_covariances(enc, ctx)
    sampled = estimate_covariances(enc, ctx, "pair_sampled", 50, seed=seed)
    # the multi-view losses read h = T^T diag(p) T as their second argument
    h = _population_loss(ObjectiveKind.MULTIVIEW_CONTRASTIVE, ctx, None)[0].args[1]
    products = {"dual_kernel": dual_kernel(ctx),
                "positive_pair_kernel": positive_pair_kernel(ctx),
                "weighted_cov": weighted_cov(enc.values, p),
                "exact c_phi": exact.c_phi, "exact b_phi": exact.b_phi,
                "pair_sampled c_phi": sampled.c_phi, "h": h}
    for name, mat in products.items():
        assert np.array_equal(mat, mat.T), name


@pytest.mark.parametrize("seed", [0, 1])
def test_no_caller_hands_top_eigenpairs_an_asymmetric_matrix(seed, monkeypatch):
    calls = []

    def symmetric_only(mat, k):
        assert np.array_equal(mat, mat.T)
        calls.append(mat.shape[0])
        return top_eigenpairs(mat, k)

    bound = [name for name, mod in vars(contexture).items()
             if getattr(mod, "top_eigenpairs", None) is top_eigenpairs]
    assert {"spectral", "estimation", "objectives"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(getattr(contexture, name), "top_eigenpairs",
                            symmetric_only)
    verify_theorems(24, 20, 1, seed)
    assert calls
    rng = np.random.default_rng(seed)
    ctx = build_rbf_context(PointSet(rng.standard_normal((300, 3))), 1.0)
    calls.clear()
    contexture_svd(ctx, rank=65)  # 65 <= 300 // 4: tries the Gram route
    assert calls == [300]
    enc = SampleEncoder(rng.standard_normal((300, 8)), "input",
                        ctx.input_marginal)
    calls.clear()
    estimate_spectrum_posthoc(enc, estimate_covariances(enc, ctx), 4)
    assert calls == [8]


@pytest.mark.parametrize("k", [0, -1, 6])
def test_nearest_rejects_k_outside_the_columns(k):
    with pytest.raises(ValueError, match=r"k must be in \[1, 5\]"):
        nearest(np.ones((3, 5)), k)


def test_extend_encoder_rejects_k_zero_without_a_warning():
    train = np.arange(8.0).reshape(4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k must be in"):
            extend_encoder(train, np.ones((4, 3)), train[:2], k=0)


def per_row_lipschitz(kernel, points, lipschitz_sample):
    """The difference-quotient maximum as a per-anchor loop over rows."""
    n = kernel.shape[0]
    if lipschitz_sample == n:
        idx = np.arange(n)
    else:
        idx = np.unique(np.round(np.linspace(0, n - 1, lipschitz_sample)).astype(int))
    pts = points[idx]
    sub = kernel[np.ix_(idx, idx)]
    best = 0.0
    found_distinct = False
    for a in range(len(idx) - 1):
        diffs = pts[a + 1:] - pts[a]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        ok = dists > 0
        if not np.any(ok):
            continue
        found_distinct = True
        gaps = np.max(np.abs(sub[:, a + 1:] - sub[:, [a]]), axis=0)
        best = max(best, float(np.max(gaps[ok] / dists[ok])))
    return best if found_distinct else None


@settings(max_examples=100, deadline=None)
@given(sample=st.sampled_from([2, GAP_BLOCK - 1, GAP_BLOCK, GAP_BLOCK + 1,
                               2 * GAP_BLOCK + 3]),
       extra=st.integers(0, 9), p=st.integers(1, 3),
       n_duplicates=st.integers(0, 6), seed=st.integers(0, 2 ** 31 - 1))
def test_lipschitz_equals_per_row_loop(sample, extra, p, n_duplicates, seed):
    rng = np.random.default_rng(seed)
    n = sample + extra
    pts = grid_points(rng, n, p, levels=4)
    # coincident pairs on top of the grid's own duplicates
    pts[rng.integers(0, n, n_duplicates)] = pts[rng.integers(0, n, n_duplicates)]
    kernel = rng.standard_normal((n, n)) * rng.uniform(0.01, 100.0)
    expected = per_row_lipschitz(kernel, pts, sample)
    args = (kernel, PointSet(pts), DiscreteDistribution.uniform(n), sample)
    if expected is None:
        with pytest.raises(ValueError, match="coincide"):
            kernel_association_measures(*args)
    else:
        assert kernel_association_measures(*args)[1] == expected


def tiled_lipschitz(kernel, points, lipschitz_sample):
    """The difference-quotient maximum as an unscreened tile scan: every
    tile of every strip of anchors is computed, none is skipped."""
    n = kernel.shape[0]
    idx = np.unique(np.round(np.linspace(0, n - 1, lipschitz_sample)).astype(int))
    cols = kernel.T[np.ix_(idx, idx)]
    pts = points[idx]
    size = len(idx)
    tile = np.empty((GAP_BLOCK, GAP_BLOCK, size))
    best = 0.0
    found_distinct = False
    for a0 in range(0, size, GAP_BLOCK):
        anchors = cols[a0:a0 + GAP_BLOCK, None, :]
        gaps = np.empty((anchors.shape[0], size - a0))
        for b0 in range(a0, size, GAP_BLOCK):
            others = cols[None, b0:b0 + GAP_BLOCK, :]
            diff = tile[:anchors.shape[0], :others.shape[1]]
            np.subtract(anchors, others, out=diff)
            np.abs(diff, out=diff)
            np.max(diff, axis=2, out=gaps[:, b0 - a0:b0 - a0 + GAP_BLOCK])
        dists = np.sqrt(sq_dists(pts[a0:a0 + GAP_BLOCK], pts[a0:]))
        pairs = np.triu(dists > 0, 1)
        if not pairs.any():
            continue
        found_distinct = True
        best = max(best, float(np.max(gaps[pairs] / dists[pairs])))
    return best if found_distinct else None


def knn_product_kernel(pts, k):
    """A nonnegative kNN kernel A A^T (A the row-normalised kNN graph)."""
    n = len(pts)
    graph = np.zeros((n, n))
    np.put_along_axis(graph, knn_index(pts, min(k, n - 1)), 1.0 / k, axis=1)
    return n * graph @ graph.T


def screen_test_kernel(rng, kind, pts):
    n = len(pts)
    if kind == "mixed":
        return rng.standard_normal((n, n))
    if kind == "sparse":
        return rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.1)
    if kind == "knn":
        return knn_product_kernel(pts, 3)
    return 1.0 + 1e-9 * rng.standard_normal((n, n))  # near-constant


@settings(max_examples=200, deadline=None)
@given(sample=st.sampled_from([2, GAP_BLOCK - 1, GAP_BLOCK, GAP_BLOCK + 1,
                               2 * GAP_BLOCK, 3 * GAP_BLOCK + 1,
                               5 * GAP_BLOCK - 1, 6 * GAP_BLOCK]),
       extra=st.integers(0, 9), p=st.integers(1, 3),
       kind=st.sampled_from(["mixed", "sparse", "knn", "flat"]),
       exponent=st.integers(-320, 300), n_duplicates=st.integers(0, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_screened_lipschitz_equals_tiled_scan(sample, extra, p, kind, exponent,
                                              n_duplicates, seed):
    rng = np.random.default_rng(seed)
    n = sample + extra
    pts = grid_points(rng, n, p, levels=4)
    pts[rng.integers(0, n, n_duplicates)] = pts[rng.integers(0, n, n_duplicates)]
    kernel = screen_test_kernel(rng, kind, pts) * 10.0 ** exponent
    expected = tiled_lipschitz(kernel, pts, sample)
    args = (kernel, PointSet(pts), DiscreteDistribution.uniform(n), sample)
    if expected is None:
        with pytest.raises(ValueError, match="coincide"):
            kernel_association_measures(*args)
    else:
        assert kernel_association_measures(*args)[1] == expected


@settings(max_examples=30, deadline=None)
@given(size=st.integers(2, 3 * _DIST_BLOCK_ROWS // 2), p=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_sq_dists_of_a_strip_equal_the_full_matrix(size, p, seed):
    # the screened scan takes all distances at once; the tiled scan took
    # them strip by strip
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, p)) * rng.uniform(0.01, 100.0)
    full = sq_dists(pts, pts)
    for a0 in range(0, size, GAP_BLOCK):
        strip = sq_dists(pts[a0:a0 + GAP_BLOCK], pts[a0:])
        assert np.array_equal(full[a0:a0 + GAP_BLOCK, a0:], strip)


@pytest.mark.parametrize("kind", ["knn", "rbf"])
def test_screened_lipschitz_computes_few_pairs_in_float64(kind, monkeypatch):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 2))
    if kind == "knn":
        kernel = knn_product_kernel(pts, 10)
    else:
        kernel = np.exp(-0.1 * sq_dists(pts, pts))
        kernel /= kernel.sum(axis=1, keepdims=True)
        kernel = kernel @ kernel.T * 200
    # the distinct (anchor, other) pairs each pass computes gaps for
    pairs = {np.dtype(np.int16): set(), np.dtype(np.float64): set()}
    gaps = evaluation._gaps

    def counting(rows, a, others, out=None):
        pairs[rows.dtype].update((a, b) for b in others.tolist())
        return gaps(rows, a, others, out)

    monkeypatch.setattr(evaluation, "_gaps", counting)
    got = kernel_association_measures(kernel, PointSet(pts),
                                      DiscreteDistribution.uniform(200), 200)[1]
    assert got == tiled_lipschitz(kernel, pts, 200)
    n_pairs = 200 * 199 // 2
    assert len(pairs[np.dtype(np.float64)]) <= n_pairs // 100
    if kind == "knn":  # the range bound alone skips most pairs
        assert len(pairs[np.dtype(np.int16)]) <= n_pairs // 2
    else:  # a flat kernel: the range bound leaves the integer bound a large
        # share (45% here), and the integer bound skips nearly all of it
        assert len(pairs[np.dtype(np.int16)]) >= n_pairs * 2 // 5
        assert (len(pairs[np.dtype(np.float64)])
                <= len(pairs[np.dtype(np.int16)]) // 100)


@pytest.mark.parametrize("case", ["step_subnormal", "step_below_normal",
                                  "step_at_normal", "step_above_normal",
                                  "span_overflows", "codes_0_and_32767",
                                  "constant"])
@pytest.mark.parametrize("seed", range(5))
def test_lipschitz_at_the_integer_screen_boundaries(case, seed):
    rng = np.random.default_rng(seed)
    n = 3 * GAP_BLOCK + 1
    pts = grid_points(rng, n, 2, levels=4)
    tiny = np.finfo(float).tiny
    # a step of 3 units of the smallest subnormal would code the largest
    # entry as 38228, outside int16
    spans = {"step_subnormal": 32767 * 3.5 * np.nextafter(0.0, 1.0),
             "step_below_normal": 32767 * np.nextafter(tiny, 0.0),
             "step_at_normal": 32767 * tiny,
             "step_above_normal": 32767 * np.nextafter(tiny, 1.0)}
    if case in spans:
        kernel = rng.random((n, n)) * spans[case]
        kernel.flat[rng.choice(n * n, 2, replace=False)] = 0.0, spans[case]
    elif case == "span_overflows":
        kernel = rng.uniform(-1.0, 1.0, (n, n)) * 1.7e308
    elif case == "codes_0_and_32767":
        kernel = rng.integers(0, 32768, (n, n)).astype(float)
        kernel.flat[rng.choice(n * n, 2, replace=False)] = 0.0, 32767.0
    else:
        kernel = np.full((n, n), rng.standard_normal())
    # the scan's step, and so whether it screens by integer codes
    with np.errstate(over="ignore"):
        step = (kernel.max() - kernel.min()) / 32767
    if case in ("step_subnormal", "step_below_normal"):
        assert 0.0 < step < tiny
    elif case == "span_overflows":
        assert step == np.inf
    elif case == "constant":
        assert step == 0.0
    else:
        assert tiny <= step < np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's overflow
        expected = per_row_lipschitz(kernel, pts, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernel_association_measures(
            kernel, PointSet(pts), DiscreteDistribution.uniform(n), n)[1]
    assert got == expected
    if case == "span_overflows":
        assert got == np.inf


@np.errstate(over="ignore")
def whole_matrix_lipschitz_scan(cols, pts):
    """The earlier two-pass screened scan, kept as the reference. A seed
    pass takes each point against its nearest distinct neighbour; a first
    pass keeps each row's largest upper bound and raises the floor to the
    largest lower bound; a second pass recomputes the bounds of the rows
    that reach the floor and computes their qualifying pairs in float64.
    The seed pass and the int16 coding are each taken over the whole
    matrix at once, as whole-matrix temporaries."""
    size = len(cols)
    dists = np.sqrt(sq_dists(pts, pts))
    distinct = dists > 0
    rows = np.flatnonzero(distinct.any(axis=1))
    near = np.argmin(np.where(distinct[rows], dists[rows], np.inf), axis=1)
    diff = cols[rows] - cols[near]
    seed = float(np.max(np.max(np.abs(diff, out=diff), axis=1) / dists[rows, near]))
    hi, lo = cols.max(axis=1), cols.min(axis=1)
    base = lo.min()
    step = (hi.max() - base) / 32767
    screened = np.finfo(float).tiny <= step < np.inf
    if screened:
        codes = np.empty(cols.shape, dtype=np.int16)
        np.rint((cols - base) / step, out=codes, casting="unsafe")
    slack = 1.0 + 2.0 ** -20

    def bounds(a):
        b = a + 1 + np.flatnonzero(distinct[a, a + 1:])
        d = dists[a, b]
        keep = np.maximum(hi[a] - lo[b], hi[b] - lo[a]) / d > seed
        b, d = b[keep], d[keep]
        if not (screened and len(b)):
            return b, d, np.full(len(b), np.inf), np.zeros(len(b))
        g = evaluation._gaps(codes, a, b)
        return b, d, (g + slack) * step / d, (g - slack) * step / d

    row_upper = np.zeros(size)
    floor = seed
    for a in range(size - 1):
        b, _, upper, lower = bounds(a)
        if len(b):
            row_upper[a] = upper.max()
            floor = max(floor, float(lower.max()))
    best = seed
    for a in np.flatnonzero((row_upper >= floor) & (row_upper > seed)):
        b, d, upper, _ = bounds(a)
        keep = (upper >= floor) & (upper > seed)
        best = max(best, float(np.max(evaluation._gaps(cols, a, b[keep])
                                      / d[keep])))
    return best


def association_test_case(kind, n, rng, data):
    """Points, a kernel and a marginal of one of the association tests'
    kinds: dual kernels of contexts (tall, wide, duplicate points, a
    disconnected kNN graph), which usually peak at a nearest-neighbour
    pair, and random kernels, which lean on the integer screen."""
    if kind in ("mixed", "sparse"):
        pts = grid_points(rng, n, 2, levels=6)
        kernel = screen_test_kernel(rng, kind, pts)
        return pts, kernel, DiscreteDistribution(rng.dirichlet(np.ones(n)))
    if kind in ("tall", "wide"):
        m = n + data.draw(st.integers(1, 40)) if kind == "wide" else max(2, n // 3)
        pts = rng.standard_normal((n, 2))
        ctx = FiniteContext(rng.dirichlet(np.full(m, 0.3), size=n),
                            DiscreteDistribution(rng.dirichlet(np.ones(n))))
    elif kind == "duplicates":
        pts = grid_points(rng, n, 2, levels=5)
        ctx = (build_knn_context(PointSet(pts), min(4, n - 1))
               if data.draw(st.booleans()) else build_rbf_context(PointSet(pts), 1.0))
    else:
        pts = rng.standard_normal((n, 2))
        pts[: n // 2] += 1e3
        ctx = build_knn_context(PointSet(pts), min(3, n - 1))
    return pts, dual_kernel(ctx), ctx.input_marginal


ASSOCIATION_KINDS = ["tall", "wide", "duplicates", "disconnected", "mixed",
                     "sparse"]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(ASSOCIATION_KINDS), n=st.integers(3, 200),
       strided=st.booleans(), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_association_measures_equal_whole_matrix_passes(kind, n, strided, seed,
                                                        data):
    # the deviation with |K - 1| taken in place, and the one-pass scan with
    # its coding in row blocks, give the same floats as whole-matrix
    # temporaries and the two-pass reference; sizes up to 200 cross
    # several row blocks
    rng = np.random.default_rng(seed)
    pts, kernel, marginal = association_test_case(kind, n, rng, data)
    sample = data.draw(st.integers(2, n)) if strided else n
    idx = np.unique(np.round(np.linspace(0, n - 1, sample)).astype(int))
    if not (sq_dists(pts[idx], pts[idx]) > 0).any():
        return  # every sampled point coincides: rejected either way
    w = marginal.weights
    expected = (float(w @ np.abs(kernel - 1.0) @ w),
                whole_matrix_lipschitz_scan(kernel.T[np.ix_(idx, idx)], pts[idx]))
    assert kernel_association_measures(kernel, PointSet(pts), marginal,
                                       sample) == expected


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(ASSOCIATION_KINDS), n=st.integers(3, 200),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_lipschitz_is_unchanged_by_permuting_the_points(kind, n, seed, data):
    # the scan visits the anchor rows in order, with a running floor, so
    # a reordering changes which pairs it skips but not the maximum
    rng = np.random.default_rng(seed)
    pts, kernel, marginal = association_test_case(kind, n, rng, data)
    assume((sq_dists(pts, pts) > 0).any())
    perm = data.draw(st.permutations(range(n)))
    expected = kernel_association_measures(kernel, PointSet(pts), marginal, n)[1]
    got = kernel_association_measures(
        kernel[np.ix_(perm, perm)], PointSet(pts[perm]),
        DiscreteDistribution(marginal.weights[perm]), n)[1]
    assert got == expected


@pytest.mark.parametrize("seed", range(5))
def test_lipschitz_finds_a_steepest_pair_in_the_last_anchor_row(seed):
    # points on a line; every kernel column is flat noise except the last,
    # which stands 1 above the rest, so the steepest pair is the last two
    # points (quotient about 1), and row a's steepest pair, about
    # 1 / (n - 1 - a), leaves the floor at most about 1/2 until the last
    # anchor row
    rng = np.random.default_rng(seed)
    n = 3 * GAP_BLOCK + 1
    pts = np.arange(n, dtype=float)[:, None]
    cols = 1e-3 * rng.random((n, n))
    cols[-1] += 1.0
    kernel = cols.T.copy()
    got = kernel_association_measures(kernel, PointSet(pts),
                                      DiscreteDistribution.uniform(n), n)[1]
    assert got == float(np.max(np.abs(cols[-1] - cols[-2])))
    assert got == whole_matrix_lipschitz_scan(cols, pts)
    assert got == per_row_lipschitz(kernel, pts, n)


def test_lipschitz_floor_rises_by_lower_bounds_only():
    # entries from 0 to 32767 code exactly with step 1. Anchor 0's pairs
    # have gaps 100 at distance 1 and 201 at distance 2: the second is the
    # steeper (100.5 against 100) but has the smaller upper bound
    # (101 + 2^-21 against 101 + 2^-20), so a floor raised by an upper
    # bound would skip it, and the third pair (301 at distance 3) does not
    # reach it
    pts = np.array([[0.0], [1.0], [-2.0]])
    cols = np.full((3, 3), 32767.0)
    cols[:, 0] = 201.0, 301.0, 0.0
    kernel = cols.T.copy()
    got = kernel_association_measures(kernel, PointSet(pts),
                                      DiscreteDistribution.uniform(3), 3)[1]
    assert got == 100.5 == per_row_lipschitz(kernel, pts, 3)


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



def gather_scatter_fix_signs(columns, *paired):
    """``fix_signs`` as a gather and scatter of the flipped columns."""
    peaks = np.argmax(np.abs(columns), axis=0)
    flip = columns[peaks, np.arange(columns.shape[1])] < 0
    for arr in (columns, *paired):
        arr[:, flip] = -arr[:, flip]


@pytest.mark.parametrize("case", ["mixed", "all_flipped", "none_flipped"])
@pytest.mark.parametrize("seed", range(3))
def test_fix_signs_bitwise_equal_to_gather_scatter(case, seed):
    rng = np.random.default_rng(seed)
    # small integers: magnitude ties within a column are common
    cols = rng.integers(-2, 3, size=(7, 40)).astype(float)
    cols[:, 0] = [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0]  # all zero, no flip
    cols[:, 1] = [2.0, -2.0, 0.0, 0.0, 0.0, 0.0, -0.0]  # tie, first kept
    cols[:, 2] = [-2.0, 2.0, 0.0, -0.0, 0.0, 0.0, 1.0]  # tie, first flipped
    if case == "all_flipped":
        cols[:, 0] = -1.0
        cols[:, 1:] = -np.abs(cols[:, 1:]) - (cols[:, 1:] == 0)
    elif case == "none_flipped":
        cols = np.abs(cols)
    other = rng.standard_normal((9, 40))
    other[rng.random(other.shape) < 0.3] = -0.0
    other[rng.random(other.shape) < 0.1] = 0.0
    got, got_other = cols.copy(), other.copy()
    fix_signs(got, got_other)
    want, want_other = cols.copy(), other.copy()
    gather_scatter_fix_signs(want, want_other)
    assert got.tobytes() == want.tobytes()
    assert got_other.tobytes() == want_other.tobytes()
    flipped = not np.array_equal(got, cols)
    assert flipped == (case != "none_flipped")
    if case == "all_flipped":
        assert np.array_equal(got, -cols)

def conditioned_values(rng, weights, d, cond):
    """n x d values whose weighted centred columns have singular values
    log-spaced from 1 down to 1 / cond, plus a constant offset per column."""
    root = np.sqrt(weights)[:, None]
    centred = weighted_center(rng.standard_normal((weights.size, d)), weights)
    basis = np.linalg.qr(root * centred)[0] / root  # weighted-orthonormal
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    scales = np.logspace(0.0, -np.log10(cond), d)
    return basis @ (scales[:, None] * rotation) + rng.uniform(-3.0, 3.0, d)


CONSTRAINED_KINDS = [kind for kind in ObjectiveKind if _FORMS[kind].constrained]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 60), d=st.integers(1, 4), log_cond=st.floats(0.0, 6.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_centred_orthonormal_basis_has_identity_covariance(n, d, log_cond, seed):
    # the basis every constrained iterate and encoder is read through
    rng = np.random.default_rng(seed)
    ctx = random_graph_context(rng, n)
    for kind in CONSTRAINED_KINDS:
        marginal = _FORMS[kind].marginals(ctx)[0]
        w = marginal.weights
        x = conditioned_values(rng, w, d, 10.0 ** log_cond)
        white = orthonormal_basis(x, w, center=True)
        assert white.shape == (n, d)
        assert np.max(np.abs(weighted_cov(white, w) - np.eye(d))) <= 1e-12
        enc = SampleEncoder(white, _FORMS[kind].support, marginal)
        assert np.isfinite(eval_objective(kind, ctx, enc))


class FixedDraw:
    """Stands in for the solver's generator: its first draw is ``values``."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


def first_iterate_raises(kind, ctx, x):
    """Assert that ``solve_variational`` rejects ``x`` as its first
    iterate with its rank-drop error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda seed: FixedDraw(x))
        with pytest.raises(NumericalError, match=f"of {x.shape[1]} dimensions"):
            solve_variational(kind, ctx, x.shape[1])


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["duplicate", "constant", "wide"]),
       n=st.integers(6, 40), d=st.integers(2, 4), seed=st.integers(0, 2 ** 31 - 1))
def test_constrained_solver_rejects_a_rank_deficient_iterate(case, n, d, seed):
    rng = np.random.default_rng(seed)
    ctx = random_graph_context(rng, n)
    for kind in CONSTRAINED_KINDS:
        w = _FORMS[kind].marginals(ctx)[0].weights
        if case == "wide":
            x = rng.standard_normal((n, n))  # the centred span has rank n - 1
        else:
            x = conditioned_values(rng, w, d, 10.0 ** rng.uniform(0.0, 3.0))
        if case == "duplicate":
            x[:, -1] = x[:, 0]
        if case == "constant":
            x[:, -1] = rng.uniform(-3.0, 3.0)
        first_iterate_raises(kind, ctx, x)


def test_constrained_solver_rejects_a_lone_constant_column():
    # centring a constant column leaves roundoff; cut against its own top
    # value instead of the uncentred norm, it would span one dimension of
    # unit-variance noise
    rng = np.random.default_rng(0)
    for _ in range(40):
        ctx = random_graph_context(rng, int(rng.integers(6, 40)))
        x = np.full((ctx.n_inputs, 1), rng.uniform(-3.0, 3.0))
        for kind in CONSTRAINED_KINDS:
            first_iterate_raises(kind, ctx, x)
