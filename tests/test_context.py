import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contexture import (DiscreteDistribution, FiniteContext, PointSet,
                        build_from_descriptor, build_graph_context,
                        build_knn_context, build_label_context,
                        build_masked_context, build_rbf_context,
                        parse_descriptor)
from contexture._linalg import knn_index, sq_dists
from contexture.context import _rbf_conditional


def line_points(*xs):
    return PointSet(np.array(xs, dtype=float)[:, None])


class TestDiscreteDistribution:
    def test_renormalizes(self):
        d = DiscreteDistribution(np.array([2.0, 2.0]))
        assert np.allclose(d.weights, [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, -0.1]))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.zeros(3))


class TestFiniteContext:
    def test_rows_renormalized(self):
        ctx = FiniteContext(np.array([[2.0, 2.0], [1.0, 3.0]]),
                            DiscreteDistribution.uniform(2))
        assert np.allclose(ctx.conditional.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_marginal_column_dropped(self):
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ctx = FiniteContext(rows, DiscreteDistribution.uniform(2))
        assert ctx.n_context == 1
        assert ctx.context_ids.tolist() == [0]

    def test_marginal_consistency_is_exact(self):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(5), size=7)
        ctx = FiniteContext(rows, DiscreteDistribution.uniform(7))
        recomputed = DiscreteDistribution(
            ctx.conditional.T @ ctx.input_marginal.weights)
        assert np.array_equal(recomputed.weights, ctx.context_marginal.weights)

    def test_positive_marginal_required(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteContext(np.eye(2), DiscreteDistribution(np.array([1.0, 0.0])))

    # a shared support indexes context columns by input row (as
    # subsample_support does), which fails or drops columns off the square
    @pytest.mark.parametrize("shape", [(4, 2), (3, 5)])
    def test_shared_support_must_be_square(self, shape):
        rows = np.ones(shape)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            FiniteContext(rows, DiscreteDistribution.uniform(shape[0]),
                          same_support=True)


class TestKnn:
    def test_unique_nearest_neighbor(self):
        # x=0 -> 1, x=1 -> 0, x=10 -> 1; the 10-column carries no mass
        ctx = build_knn_context(line_points(0.0, 1.0, 10.0), k=1)
        assert ctx.context_ids.tolist() == [0, 1]
        expected = np.array([[0, 1], [1, 0], [0, 1]], dtype=float)
        assert np.array_equal(ctx.conditional, expected)

    def test_k2_three_points_uniform_on_others(self):
        ctx = build_knn_context(line_points(0.0, 1.0, 5.0), k=2)
        assert np.allclose(ctx.conditional,
                           (np.ones((3, 3)) - np.eye(3)) / 2)

    def test_collinear_midpoint_splits_evenly(self):
        # oracle: brute-force distance sort around the midpoint
        pts = line_points(0.0, 1.0, 2.0, 3.0, 4.0)
        ctx = build_knn_context(pts, k=2)
        mid = ctx.conditional[2]
        assert mid[1] == 0.5 and mid[3] == 0.5
        assert mid[0] == 0.0 and mid[2] == 0.0 and mid[4] == 0.0

    def test_distance_tie_breaks_by_index(self):
        # both neighbors of x=0 are at distance 1; lower index wins
        ctx = build_knn_context(line_points(0.0, 1.0, -1.0), k=1)
        assert ctx.conditional[0, 1] == 1.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            build_knn_context(line_points(0.0, 1.0), k=2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_rows_have_exactly_k_entries(self, n, k, seed):
        if k >= n:
            k = n - 1
        pts = PointSet(np.random.default_rng(seed).normal(size=(n, 3)))
        raw = build_knn_context(pts, k)
        # inspect the pre-restriction structure via the row values
        nonzero = raw.conditional > 0
        assert (nonzero.sum(axis=1) == k).all()
        assert np.allclose(raw.conditional[nonzero], 1.0 / k)


class TestRbf:
    def test_two_points_gamma_one(self):
        ctx = build_rbf_context(line_points(0.0, 1.0), gamma=1.0)
        z = 1.0 + np.exp(-1.0)
        assert np.allclose(ctx.conditional[0], [1.0 / z, np.exp(-1.0) / z],
                           atol=1e-12)

    def test_tiny_gamma_is_uniform(self):
        ctx = build_rbf_context(line_points(0.0, 1.0, 3.0), gamma=1e-12)
        assert np.max(np.abs(ctx.conditional - 1.0 / 3.0)) < 1e-9

    def test_coincident_points_split_evenly(self):
        for gamma in (1e-3, 1.0, 1e4):
            ctx = build_rbf_context(line_points(2.0, 2.0), gamma=gamma)
            assert np.allclose(ctx.conditional, 0.5)

    def test_large_gamma_stays_finite(self):
        q = _rbf_conditional(np.array([[0.0], [100.0]]), gamma=1e8)
        assert np.all(np.isfinite(q))
        assert np.allclose(q.sum(axis=1), 1.0)
        assert q[0, 0] > 0.999

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            build_rbf_context(line_points(0.0, 1.0), gamma=0.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 300), p=st.integers(1, 5),
           log_gamma=st.floats(-4.0, 3.0), grid=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_conditional_bitwise_equal_to_out_of_place_softmax(
            self, n, p, log_gamma, grid, seed):
        # the row softmax of -gamma * distance, with a new array per step
        rng = np.random.default_rng(seed)
        pts = (rng.integers(0, 3, size=(n, p)).astype(float) if grid
               else rng.standard_normal((n, p)))
        gamma = 10.0 ** log_gamma
        logits = -gamma * sq_dists(pts, pts)
        logits -= logits.max(axis=1, keepdims=True)
        q_mat = np.exp(logits)
        expected = q_mat / q_mat.sum(axis=1, keepdims=True)
        assert np.array_equal(_rbf_conditional(pts, gamma), expected)


class TestMasked:
    def test_zero_masked_features_equals_base(self):
        pts = PointSet(np.random.default_rng(1).normal(size=(6, 5)))
        # round(0.05 * 5) == 0 features masked
        masked = build_masked_context(pts, ("rbf", 0.7), 0.05, 1, seed=3)
        base = build_rbf_context(pts, 0.7)
        assert np.array_equal(masked.conditional, base.conditional)

    def test_average_of_two_masks(self):
        pts = PointSet(np.random.default_rng(2).normal(size=(5, 4)))
        seed = 11
        ctx = build_masked_context(pts, ("rbf", 0.5), 0.25, 2, seed=seed)
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(2):
            drop = rng.choice(4, size=1, replace=False)
            keep = np.setdiff1d(np.arange(4), drop)
            parts.append(build_rbf_context(
                PointSet(pts.points[:, keep]), 0.5).conditional)
        assert np.allclose(ctx.conditional, (parts[0] + parts[1]) / 2,
                           atol=1e-15)

    def test_seeded_rerun_is_bit_exact(self):
        pts = PointSet(np.random.default_rng(3).normal(size=(8, 10)))
        for base in (("knn", 3), ("rbf", 0.3)):
            a = build_masked_context(pts, base, 0.2, 50, seed=123)
            b = build_masked_context(pts, base, 0.2, 50, seed=123)
            assert np.array_equal(a.conditional, b.conditional)

    def test_all_features_masked_is_error(self):
        pts = PointSet(np.random.default_rng(4).normal(size=(5, 4)))
        with pytest.raises(ValueError, match="all 4 features"):
            build_masked_context(pts, ("rbf", 1.0), 0.9, 1, seed=0)

    @pytest.mark.parametrize("frac", [-0.1, -0.5, 1.0, float("nan")])
    def test_mask_fraction_outside_unit_interval_is_error(self, frac):
        pts = PointSet(np.random.default_rng(4).normal(size=(6, 5)))
        with pytest.raises(ValueError, match="mask_fraction"):
            build_masked_context(pts, ("knn", 3), frac, 4, seed=0)

    def test_rows_are_stochastic(self):
        pts = PointSet(np.random.default_rng(5).normal(size=(7, 6)))
        ctx = build_masked_context(pts, ("knn", 2), 0.3, 5, seed=9)
        assert np.max(np.abs(ctx.conditional.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("base", [("knn", 0), ("knn", 6), ("rbf", 0.0),
                                      ("rbf", -1.0), ("rbf", np.inf)],
                             ids=["k=0", "k=n", "gamma=0", "gamma=-1",
                                  "gamma=inf"])
    def test_base_checked_like_plain_builder(self, base):
        pts = PointSet(np.random.default_rng(6).normal(size=(6, 5)))
        plain = {"knn": build_knn_context, "rbf": build_rbf_context}[base[0]]
        with pytest.raises(ValueError) as expected:
            plain(pts, base[1])
        with pytest.raises(ValueError) as raised:
            build_masked_context(pts, base, 0.2, 3, seed=0)
        assert str(raised.value) == str(expected.value)


def raw_knn_conditional(points, k):
    """The dense kNN conditional as built before the one mixture path: a
    zero matrix plus one 1/k scatter per row."""
    n = points.shape[0]
    q_mat = np.zeros((n, n))
    q_mat[np.repeat(np.arange(n), k), knn_index(points, k).ravel()] = 1.0 / k
    return q_mat


RAW_BUILDERS = {"knn": raw_knn_conditional, "rbf": _rbf_conditional}


def per_mask_oracle(points, base, mask_fraction, n_masks, seed):
    """The mask-by-mask mixture: one base build per drawn mask, summed in
    draw order, whatever subsets repeat."""
    p = points.n_features
    n_masked = int(round(mask_fraction * p))
    rng = np.random.default_rng(seed)
    accum = np.zeros((points.n_points, points.n_points))
    for _ in range(n_masks):
        masked = rng.choice(p, size=n_masked, replace=False)
        keep = np.setdiff1d(np.arange(p), masked)
        accum += RAW_BUILDERS[base[0]](
            np.ascontiguousarray(points.points[:, keep]), base[1])
    return FiniteContext(accum / n_masks,
                         DiscreteDistribution.uniform(points.n_points),
                         same_support=True)


@st.composite
def grid_masking(draw):
    """Small-integer grid points (distance ties, duplicate rows), a mask
    fraction removing anywhere from none to all but one feature, and a
    mask count and seed."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, 5))
    coords = draw(st.lists(st.integers(0, 2), min_size=n * p,
                           max_size=n * p))
    points = PointSet(np.array(coords, dtype=float).reshape(n, p))
    n_masked = draw(st.integers(0, p - 1))
    # up to 40 masks, so a subset recurs often enough that summing its
    # 1/k terms one by one and multiplying by the count differ in roundoff
    return (points, n_masked / p, draw(st.integers(1, 40)),
            draw(st.integers(0, 2 ** 32 - 1)))


class TestPlainAgainstRawBuilders:
    @settings(max_examples=80, deadline=None)
    @given(grid_masking(), st.data())
    def test_plain_builders_are_bitwise_the_raw_ones(self, masking, data):
        points = masking[0]
        k = data.draw(st.integers(1, points.n_points - 1))
        gamma = data.draw(st.floats(0.05, 5.0))
        uniform = DiscreteDistribution.uniform(points.n_points)
        for ctx, raw, label in ((build_knn_context(points, k),
                                 raw_knn_conditional(points.points, k),
                                 f"knn:{k}"),
                                (build_rbf_context(points, gamma),
                                 _rbf_conditional(points.points, gamma),
                                 f"rbf:{gamma:g}")):
            ref = FiniteContext(raw, uniform, same_support=True)
            assert np.array_equal(ctx.conditional, ref.conditional)
            assert np.array_equal(ctx.context_ids, ref.context_ids)
            assert ctx.same_support == ref.same_support
            assert ctx.label == label

    def test_plain_builders_use_the_points_as_given(self):
        # a column selection is not C-contiguous; the builders give the raw
        # builders' bits on it (sq_dists sums in one order for every layout)
        raw = np.random.default_rng(7).standard_normal((40, 4))[:, [0, 2, 3]]
        points = PointSet(raw)
        uniform = DiscreteDistribution.uniform(40)
        for ctx, ref in ((build_knn_context(points, 5),
                          raw_knn_conditional(raw, 5)),
                         (build_rbf_context(points, 0.7),
                          _rbf_conditional(raw, 0.7))):
            expected = FiniteContext(ref, uniform, same_support=True)
            assert np.array_equal(ctx.conditional, expected.conditional)


class TestMaskedAgainstPerMaskLoop:
    @settings(max_examples=80, deadline=None)
    @given(grid_masking(), st.data())
    def test_knn_is_bitwise_the_loop(self, masking, data):
        points, frac, n_masks, seed = masking
        k = data.draw(st.integers(1, points.n_points - 1))
        ctx = build_masked_context(points, ("knn", k), frac, n_masks, seed)
        ref = per_mask_oracle(points, ("knn", k), frac, n_masks, seed)
        assert np.array_equal(ctx.conditional, ref.conditional)
        assert np.array_equal(ctx.context_ids, ref.context_ids)

    @settings(max_examples=80, deadline=None)
    @given(grid_masking(), st.floats(0.05, 5.0))
    def test_rbf_matches_the_loop(self, masking, gamma):
        points, frac, n_masks, seed = masking
        ctx = build_masked_context(points, ("rbf", gamma), frac, n_masks, seed)
        ref = per_mask_oracle(points, ("rbf", gamma), frac, n_masks, seed)
        np.testing.assert_allclose(ctx.conditional, ref.conditional,
                                   rtol=1e-14, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(grid_masking(), st.data())
    def test_one_mask_is_the_plain_builder(self, masking, data):
        points, frac, _, seed = masking
        k = data.draw(st.integers(1, points.n_points - 1))
        gamma = data.draw(st.floats(0.05, 5.0))
        p = points.n_features
        masked = np.random.default_rng(seed).choice(
            p, size=int(round(frac * p)), replace=False)
        drawn = PointSet(points.points[:, np.setdiff1d(np.arange(p), masked)])
        for base, plain in ((("knn", k), build_knn_context(drawn, k)),
                            (("rbf", gamma), build_rbf_context(drawn, gamma))):
            ctx = build_masked_context(points, base, frac, 1, seed)
            assert np.array_equal(ctx.conditional, plain.conditional)
            assert np.array_equal(ctx.context_ids, plain.context_ids)


class TestLabel:
    def test_two_balanced_classes(self):
        ctx = build_label_context(np.array([0, 0, 1, 1]))
        assert np.allclose(ctx.context_marginal.weights, [0.5, 0.5])
        assert np.array_equal(ctx.conditional,
                              np.array([[1, 0], [1, 0], [0, 1], [0, 1]],
                                       dtype=float))

    def test_singleton_classes_are_permutation_like(self):
        ctx = build_label_context(np.array([2, 0, 1]))
        assert np.array_equal(ctx.conditional.sum(axis=0), np.ones(3))
        assert set(np.unique(ctx.conditional)) == {0.0, 1.0}

    def test_unbalanced_marginal(self):
        ctx = build_label_context(np.array([0, 0, 0, 1]))
        assert np.allclose(ctx.context_marginal.weights, [0.75, 0.25])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            build_label_context(np.array([3, 3, 3]))


class TestGraph:
    def test_triangle(self):
        w = np.ones((3, 3)) - np.eye(3)
        ctx = build_graph_context(w)
        assert np.allclose(ctx.input_marginal.weights, 1.0 / 3.0)
        assert np.allclose(ctx.conditional, w / 2.0)

    def test_disjoint_edges_pair_endpoints(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        ctx = build_graph_context(w)
        assert np.array_equal(ctx.conditional, w)

    def test_path_graph_degrees(self):
        w = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        ctx = build_graph_context(w)
        assert np.allclose(ctx.input_marginal.weights, [0.25, 0.5, 0.25])
        assert np.allclose(ctx.conditional[1], [0.5, 0.0, 0.5])

    def test_detailed_balance(self):
        rng = np.random.default_rng(8)
        w = rng.random((6, 6))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        ctx = build_graph_context(w)
        flow = ctx.input_marginal.weights[:, None] * ctx.conditional
        assert np.max(np.abs(flow - flow.T)) < 1e-12

    def test_isolated_node_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match="isolated"):
            build_graph_context(w)

    def test_asymmetry_rejected(self):
        w = np.array([[0, 1.0], [1.001, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            build_graph_context(w)


class TestDescriptors:
    def test_parse_all_forms(self):
        assert parse_descriptor("knn:7") == {"kind": "knn", "k": 7}
        assert parse_descriptor("rbf:0.5") == {"kind": "rbf", "gamma": 0.5}
        assert parse_descriptor("knn+mask:5:0.2:50") == {
            "kind": "knn+mask", "k": 5, "mask_fraction": 0.2, "n_masks": 50}
        assert parse_descriptor("rbf+mask:2:0.2:10") == {
            "kind": "rbf+mask", "gamma": 2.0, "mask_fraction": 0.2,
            "n_masks": 10}
        assert parse_descriptor("label") == {"kind": "label"}
        assert parse_descriptor("graph:/tmp/adj.csv") == {
            "kind": "graph", "path": "/tmp/adj.csv"}

    def test_parse_rejects_garbage(self):
        for bad in ("knn", "rbf:abc", "knn+mask:5:0.2", "mystery:1"):
            with pytest.raises(ValueError):
                parse_descriptor(bad)

    def test_build_matches_direct_builders(self):
        pts = PointSet(np.random.default_rng(6).normal(size=(9, 4)))
        via_desc = build_from_descriptor("knn:3", pts)
        direct = build_knn_context(pts, 3)
        assert np.array_equal(via_desc.conditional, direct.conditional)

    def test_graph_descriptor_loads_csv(self, tmp_path):
        w = np.ones((3, 3)) - np.eye(3)
        path = tmp_path / "adj.csv"
        np.savetxt(path, w, delimiter=",")
        ctx = build_from_descriptor(f"graph:{path}")
        assert np.allclose(ctx.conditional, w / 2.0)

    def test_label_descriptor_needs_labels(self):
        pts = PointSet(np.random.default_rng(7).normal(size=(4, 2)))
        with pytest.raises(ValueError, match="label"):
            build_from_descriptor("label", pts)

    def test_label_descriptor_builds_the_label_context(self):
        pts = PointSet(np.random.default_rng(7).normal(size=(5, 2)),
                       labels=np.array(["b", "a", "b", "c", "a"]))
        ctx = build_from_descriptor("label", pts)
        direct = build_label_context(pts.labels)
        assert ctx.label == "label"
        assert np.array_equal(ctx.conditional, direct.conditional)


POINTS = PointSet(np.arange(8.0).reshape(4, 2))
UNIFORM_2 = DiscreteDistribution.uniform(2)
SYMMETRIC = np.ones((3, 3)) - np.eye(3)


@pytest.mark.parametrize("call, args, exc, match", [
    (DiscreteDistribution, (np.ones((2, 2)),), ValueError, "non-empty 1-d"),
    (DiscreteDistribution, (np.array([]),), ValueError, "non-empty 1-d"),
    (DiscreteDistribution, (np.array([1.0, np.nan]),), ValueError, "finite"),
    (PointSet, (np.ones(4),), ValueError, "2-d matrix"),
    (PointSet, (np.ones((1, 3)),), ValueError, "at least 2 points"),
    (PointSet, (np.array([[0.0], [np.inf]]),), ValueError, "finite"),
    (PointSet, (np.ones((3, 1)), np.zeros(2)), ValueError,
     "labels length must match"),
    (FiniteContext, (np.ones(2), UNIFORM_2), ValueError, "2-d matrix"),
    (FiniteContext, (np.array([[1.0, np.nan], [1.0, 1.0]]), UNIFORM_2),
     ValueError, "conditional must be finite"),
    (FiniteContext, (np.array([[1.0, -0.5], [1.0, 1.0]]), UNIFORM_2),
     ValueError, "non-negative"),
    (FiniteContext, (np.ones((3, 2)), UNIFORM_2), ValueError,
     "marginal length must match row count"),
    (FiniteContext, (np.array([[1.0, 1.0], [0.0, 0.0]]), UNIFORM_2),
     ValueError, "positive mass"),
    (FiniteContext, (np.eye(2), UNIFORM_2, "", False, np.arange(3)),
     ValueError, "context_ids length"),
    (build_masked_context, (POINTS, ("gauss", 1.0), 0.5, 2, 0), ValueError,
     "unknown base builder 'gauss'"),
    (build_masked_context, (POINTS, ("knn", 1), 0.5, 0, 0), ValueError,
     "n_masks must be at least 1"),
    (build_label_context, (np.array([[0, 1], [1, 0]]),), ValueError,
     "1-d vector with at least 2 entries"),
    (build_label_context, (np.array([0]),), ValueError,
     "1-d vector with at least 2 entries"),
    (build_graph_context, (np.ones((2, 3)),), ValueError, "square matrix"),
    (build_graph_context, (np.where(SYMMETRIC > 0, np.inf, 0.0),), ValueError,
     "adjacency must be finite"),
    (build_graph_context, (-SYMMETRIC,), ValueError, "non-negative"),
    (build_from_descriptor, ("knn:2",), ValueError, "needs a point set"),
    (build_from_descriptor, ("label", POINTS), ValueError,
     "needs a labeled point set"),
])
def test_typed_input_errors(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)

@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_any_built_context_is_row_stochastic(n, m, seed):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m), size=n) + 1e-9
    ctx = FiniteContext(rows, DiscreteDistribution(rng.dirichlet(np.ones(n)) + 1e-3))
    assert np.max(np.abs(ctx.conditional.sum(axis=1) - 1.0)) <= 1e-12
