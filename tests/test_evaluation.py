import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contexture import (DiscreteDistribution, FiniteContext, PointSet,
                        SampleEncoder, TaskFunction, approx_err,
                        cca_alignment, compatibility, compatible_lift,
                        contexture_svd, correlation_stats, decay_rate,
                        dual_kernel, fisher_discriminant, fit_linear_probe,
                        kernel_association_measures, mutual_knn, ratio_trace,
                        trace_gap_bound, usefulness_metric, worst_case_err)
from contexture.evaluation import UsefulnessReport
from contexture.spectral import ContextureSpectrum


def synthetic_spectrum(values, n=8, seed=0):
    """Spectrum with prescribed nontrivial singular values on a uniform
    support, realized through an actual context so duality holds."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(np.concatenate(
        [np.ones((n, 1)), rng.standard_normal((n, len(values)))], axis=1))
    # columns orthonormal in the uniform weighted product need sqrt(n)
    funcs = basis * np.sqrt(n)
    s = np.concatenate([[1.0], np.asarray(values, dtype=float)])
    left = funcs[:, :len(s)]
    right = funcs[:, :len(s)]
    p = DiscreteDistribution.uniform(n)
    return ContextureSpectrum(singular_values=s, left_functions=left,
                              right_functions=right, input_marginal=p,
                              context_marginal=p)


def dense_context(seed, n, m, concentration=0.5):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m) * concentration, size=n)
    return FiniteContext(rows, DiscreteDistribution.uniform(n))


class TestCompatibility:
    def test_single_mode_equals_singular_value(self):
        spec = synthetic_spectrum([0.8, 0.5])
        f = TaskFunction(spec.left_functions[:, 1], spec.input_marginal)
        assert abs(compatibility(spec, f) - 0.8) < 1e-10

    def test_two_mode_closed_form(self):
        spec = synthetic_spectrum([0.8, 0.5])
        mix = (spec.left_functions[:, 1] + spec.left_functions[:, 2]) / np.sqrt(2)
        f = TaskFunction(mix, spec.input_marginal)
        assert abs(compatibility(spec, f) - np.sqrt(0.445)) < 1e-10

    def test_orthogonal_task_scores_zero(self):
        spec = synthetic_spectrum([0.8], n=8, seed=3)
        rng = np.random.default_rng(4)
        w = spec.input_marginal.weights
        f_vals = rng.standard_normal(8)
        basis = spec.left_functions
        for i in range(basis.shape[1]):
            f_vals -= (w * basis[:, i]) @ f_vals * basis[:, i]
        f = TaskFunction(f_vals, spec.input_marginal)
        assert compatibility(spec, f) < 1e-10

    def test_constant_task_rejected(self):
        spec = synthetic_spectrum([0.5])
        f = TaskFunction(np.ones(8), spec.input_marginal)
        with pytest.raises(ValueError):
            compatibility(spec, f)


class TestWorstCaseErr:
    def test_epsilon_at_lower_bound_gives_zero(self):
        spec = synthetic_spectrum([0.8, 0.5, 0.5])
        assert worst_case_err(spec, 1, 1 - 0.8) == pytest.approx(0.0, abs=1e-12)

    def test_derived_value(self):
        spec = synthetic_spectrum([0.8, 0.5, 0.5])
        # oracle: brute-force max over the two-mode family on a grid
        val = worst_case_err(spec, 1, 0.25)
        assert abs(val - 0.0775 / 0.39) < 1e-12
        b = np.linspace(0, 1, 400001)
        rho_sq = 0.64 * (1 - b) + 0.25 * b
        brute = b[rho_sq >= 0.75 ** 2].max()
        assert abs(val - brute) < 1e-5

    def test_flat_spectrum_is_degenerate(self):
        spec = synthetic_spectrum([0.8, 0.8])
        with pytest.raises(ValueError, match="flat spectrum"):
            worst_case_err(spec, 1, 0.2)

    def test_epsilon_bounds_named(self):
        spec = synthetic_spectrum([0.8, 0.5])
        with pytest.raises(ValueError, match="lower bound"):
            worst_case_err(spec, 1, 0.01)
        with pytest.raises(ValueError, match="upper bound"):
            worst_case_err(spec, 1, 0.9)


class TestApproxErr:
    def test_task_in_span_is_zero(self):
        spec = synthetic_spectrum([0.8, 0.5])
        enc = SampleEncoder(spec.left_functions[:, 1:3], "input",
                            spec.input_marginal)
        f = TaskFunction(2.0 * spec.left_functions[:, 1] - 1.0,
                         spec.input_marginal)
        assert approx_err(enc, f) < 1e-12

    def test_orthogonal_task_errs_one(self):
        spec = synthetic_spectrum([0.8, 0.5])
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            spec.input_marginal)
        f = TaskFunction(spec.left_functions[:, 2], spec.input_marginal)
        assert abs(approx_err(enc, f) - 1.0) < 1e-10

    def test_half_mass_outside(self):
        spec = synthetic_spectrum([0.8, 0.5])
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            spec.input_marginal)
        mix = (spec.left_functions[:, 1] + spec.left_functions[:, 2]) / np.sqrt(2)
        f = TaskFunction(mix, spec.input_marginal)
        assert abs(approx_err(enc, f) - 0.5) < 1e-10

    def test_monotone_in_columns(self):
        rng = np.random.default_rng(5)
        marg = DiscreteDistribution.uniform(10)
        f = TaskFunction(rng.standard_normal(10), marg).normalize()
        cols = rng.standard_normal((10, 4))
        errs = [approx_err(SampleEncoder(cols[:, :j], "input", marg), f)
                for j in range(1, 5)]
        assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))


class TestLinearProbe:
    def test_exact_linear_targets(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.3
        res = fit_linear_probe((x[:30], y[:30]), (x[30:], y[30:]),
                               [1e-8, 1e-2])
        assert res.test_mse <= 1e-10
        assert res.ridge_penalty == 1e-8

    def test_constant_targets(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((25, 2))
        y = np.full(25, 4.0)
        res = fit_linear_probe((x[:20], y[:20]), (x[20:], y[20:]), [1e-4])
        assert np.max(np.abs(res.weights)) < 1e-3
        assert abs(res.bias - 4.0) < 1e-3

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        penalty = 0.37
        res = fit_linear_probe((x, y), (x, y), [penalty])
        design = np.concatenate([x, np.ones((50, 1))], axis=1)
        reg = penalty * np.eye(5)
        reg[-1, -1] = 0.0
        oracle = np.linalg.solve(design.T @ design + reg, design.T @ y)
        assert np.allclose(res.weights, oracle[:-1], atol=1e-8)
        assert abs(res.bias - oracle[-1]) < 1e-8

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_linear_probe((np.ones((5, 1)), np.ones(5)),
                             (np.ones((2, 1)), np.ones(2)), [])


class TestUsefulnessMetric:
    def test_reference_curve(self):
        s = np.sqrt([0.8, 0.5, 0.2])
        frag = usefulness_metric(s, d0=3, beta=1.0)
        assert np.allclose(frag.tau_curve, [2.0 + 0.8 / 1.5,
                                            1.25 + 1.3 / 1.5,
                                            1.0 + 1.0], atol=1e-4)
        assert frag.tau == pytest.approx(2.0, abs=1e-4)
        assert frag.d_star_metric == 3

    def test_degenerate_spectrum(self):
        frag = usefulness_metric(np.zeros(4), d0=4, beta=1.0)
        assert frag.degenerate
        assert np.allclose(frag.tau_curve, 2.0)

    def test_strong_association_diverges_until_d0(self):
        frag = usefulness_metric(np.ones(5), d0=5, beta=1.0)
        assert np.all(np.isinf(frag.tau_curve[:-1]))
        assert frag.d_star_metric == 5
        assert frag.tau == pytest.approx(2.0)

    def test_zero_padding_invariance(self):
        s = np.sqrt([0.7, 0.3])
        a = usefulness_metric(s, d0=6, beta=2.0).tau_curve
        b = usefulness_metric(np.concatenate([s, np.zeros(7)]), d0=6,
                              beta=2.0).tau_curve
        assert np.array_equal(a, b)


class TestDecayRate:
    def test_exact_exponential(self):
        y = np.exp(-0.5 * np.arange(1, 13))
        assert abs(decay_rate(np.sqrt(y)) - 0.5) < 1e-6

    def test_constant_spectrum(self):
        assert decay_rate(np.ones(6)) < 1e-6

    def test_noisy_exponential_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        idx = np.arange(1, 15)
        y = np.exp(-0.3 * idx) + rng.uniform(-1e-3, 1e-3, size=14)
        fitted = decay_rate(np.sqrt(np.clip(y, 1e-12, None)))
        grid = np.linspace(0.0, 2.0, 200001)
        losses = ((y[None, :] - np.exp(-grid[:, None] * idx[None, :])) ** 2).sum(axis=1)
        oracle = grid[np.argmin(losses)]
        assert abs(fitted - oracle) < 1e-4
        assert abs(fitted - 0.3) < 0.02

    def test_needs_three_usable_values(self):
        with pytest.raises(ValueError):
            decay_rate(np.array([0.5, 0.1, 1e-9]))


class TestAssociationMeasures:
    def test_independent_deviation_zero(self, independent_context):
        pts = PointSet(np.arange(8.0).reshape(4, 2))
        dev, _ = kernel_association_measures(
            dual_kernel(independent_context), pts,
            independent_context.input_marginal, lipschitz_sample=4)
        assert dev < 1e-12

    def test_identity_deviation_one(self, identity_context):
        pts = PointSet(np.array([[0.0], [1.0]]))
        dev, _ = kernel_association_measures(
            dual_kernel(identity_context), pts,
            identity_context.input_marginal, lipschitz_sample=2)
        assert abs(dev - 1.0) < 1e-12

    def test_constant_kernel_zero_lipschitz(self):
        pts = PointSet(np.arange(5.0)[:, None])
        _, lips = kernel_association_measures(
            np.ones((5, 5)), pts, DiscreteDistribution.uniform(5),
            lipschitz_sample=5)
        assert lips == 0.0

    def test_lipschitz_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pts = PointSet(rng.standard_normal((6, 2)))
        ctx_rows = rng.dirichlet(np.ones(6), size=6)
        ctx = FiniteContext(ctx_rows, DiscreteDistribution.uniform(6))
        kernel = dual_kernel(ctx)
        _, lips = kernel_association_measures(kernel, pts, ctx.input_marginal,
                                              lipschitz_sample=6)
        best = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                dist = np.linalg.norm(pts.points[i] - pts.points[j])
                for k in range(6):
                    best = max(best, abs(kernel[k, i] - kernel[k, j]) / dist)
        assert abs(lips - best) < 1e-12

    def test_coincident_points_rejected(self):
        pts = PointSet(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="coincide"):
            kernel_association_measures(np.ones((3, 3)), pts,
                                        DiscreteDistribution.uniform(3),
                                        lipschitz_sample=3)


class TestRatioTrace:
    def test_top_functions_attain_sum(self):
        ctx = dense_context(7, 10, 8)
        spec = contexture_svd(ctx)
        d = 2
        enc = SampleEncoder(spec.left_functions[:, 1:d + 1], "input",
                            ctx.input_marginal)
        expected = float(np.sum(spec.nontrivial_values[:d] ** 2))
        assert abs(ratio_trace(enc, ctx) - expected) < 1e-10

    def test_mixing_invariance(self):
        ctx = dense_context(8, 9, 7)
        spec = contexture_svd(ctx)
        base = spec.left_functions[:, 1:3]
        mixer = np.array([[1.0, 0.3], [-0.5, 2.0]])
        enc = SampleEncoder(base @ mixer, "input", ctx.input_marginal)
        expected = float(np.sum(spec.nontrivial_values[:2] ** 2))
        assert abs(ratio_trace(enc, ctx) - expected) < 1e-10

    def test_scale_invariance(self):
        ctx = dense_context(9, 30, 20)
        rng = np.random.default_rng(9)
        values = rng.standard_normal((30, 3))
        base = ratio_trace(SampleEncoder(values, "input", ctx.input_marginal), ctx)
        for scale in (1e4, 1e6):
            enc = SampleEncoder(scale * values, "input", ctx.input_marginal)
            assert abs(ratio_trace(enc, ctx) - base) < 1e-10 * base

    def test_annihilated_encoder_scores_zero(self, independent_context):
        rng = np.random.default_rng(10)
        enc = SampleEncoder(rng.standard_normal((4, 2)), "input",
                            independent_context.input_marginal)
        assert abs(ratio_trace(enc, independent_context)) < 1e-12

    def test_zero_variance_rejected(self, two_state):
        enc = SampleEncoder(np.ones((2, 1)), "input", two_state.input_marginal)
        with pytest.raises(ValueError):
            ratio_trace(enc, two_state)


class TestTraceGapBound:
    def test_top_d_gap_is_next_squared_value(self):
        ctx = dense_context(11, 10, 8)
        spec = contexture_svd(ctx)
        enc = SampleEncoder(spec.left_functions[:, 1:3], "input",
                            ctx.input_marginal)
        s = spec.nontrivial_values
        gap, bound = trace_gap_bound(enc, ctx, spec, epsilon=1 - s[0] + 0.05)
        assert abs(gap - s[2] ** 2) < 1e-10
        expected = (s[0] ** 2 - (1 - (1 - s[0] + 0.05)) ** 2
                    + s[0] * gap) / (s[0] ** 2 - gap ** 2)
        assert abs(bound - expected) < 1e-10

    def test_wrong_span_degenerates(self):
        ctx = dense_context(12, 10, 8)
        spec = contexture_svd(ctx)
        enc = SampleEncoder(spec.left_functions[:, 2:4], "input",
                            ctx.input_marginal)
        s = spec.nontrivial_values
        gap, bound = trace_gap_bound(enc, ctx, spec, epsilon=1 - s[0] + 0.05)
        # missing the top mode costs exactly its squared singular value
        assert abs(gap - s[0] ** 2) < 1e-10

    def test_epsilon_hypothesis_enforced(self):
        ctx = dense_context(13, 8, 6)
        spec = contexture_svd(ctx)
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            ctx.input_marginal)
        with pytest.raises(ValueError, match="epsilon"):
            trace_gap_bound(enc, ctx, spec, epsilon=0.0)


class TestCompatibleLift:
    def test_single_mode_hand_values(self, two_state):
        # s_1 = 0.8: lift norm 1/0.64, two-view stat 1.125, bound 1.25
        spec = contexture_svd(two_state)
        f = TaskFunction(spec.left_functions[:, 1], two_state.input_marginal)
        g, variance_stat, bound = compatible_lift(spec, f)
        assert np.allclose(g, spec.right_functions[:, 1] / 0.8, atol=1e-8)
        assert abs(variance_stat - 1.125) < 1e-10
        assert abs(bound - 1.25) < 1e-10
        assert variance_stat <= bound

    def test_monte_carlo_two_view_oracle(self):
        ctx = dense_context(15, 8, 6)
        spec = contexture_svd(ctx)
        f = TaskFunction(spec.left_functions[:, 1], ctx.input_marginal)
        g, variance_stat, _ = compatible_lift(spec, f)
        # oracle: exact enumeration of the two-view expectation
        p = ctx.input_marginal.weights
        q_rows = ctx.conditional
        total = 0.0
        for x in range(ctx.n_inputs):
            ga = q_rows[x] @ g
            gsq = q_rows[x] @ (g ** 2)
            total += p[x] * 2 * (gsq - ga ** 2)
        assert abs(variance_stat - total) < 1e-8

    def test_perfect_association_zero_variance(self, identity_context):
        spec = contexture_svd(identity_context)
        f = TaskFunction(spec.left_functions[:, 1],
                         identity_context.input_marginal)
        _, variance_stat, _ = compatible_lift(spec, f)
        assert abs(variance_stat) < 1e-10

    def test_mass_on_dead_modes_rejected(self, independent_context):
        spec = contexture_svd(independent_context)
        rng = np.random.default_rng(16)
        f = TaskFunction(rng.standard_normal(4),
                         independent_context.input_marginal)
        with pytest.raises(ValueError):
            compatible_lift(spec, f)


class TestFisherDiscriminant:
    def test_single_top_mode_hand_value(self, two_state):
        # within variance 1, between variance 0.64: J = 2 * 0.64 / 0.36
        spec = contexture_svd(two_state)
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            two_state.input_marginal)
        assert abs(fisher_discriminant(enc, two_state) - 2 * 0.64 / 0.36) < 1e-10

    def test_scale_invariance(self):
        ctx = dense_context(9, 30, 20)
        values = np.random.default_rng(9).standard_normal((30, 3))
        base = fisher_discriminant(
            SampleEncoder(values, "input", ctx.input_marginal), ctx)
        for scale in (1e4, 1e6):
            enc = SampleEncoder(scale * values, "input", ctx.input_marginal)
            assert abs(fisher_discriminant(enc, ctx) - base) < 1e-10 * base

    def test_annihilated_encoder_scores_zero(self, independent_context):
        rng = np.random.default_rng(18)
        enc = SampleEncoder(rng.standard_normal((4, 2)), "input",
                            independent_context.input_marginal)
        assert abs(fisher_discriminant(enc, independent_context)) < 1e-10

    def test_top_d_diagonal_form(self):
        ctx = dense_context(19, 9, 7)
        spec = contexture_svd(ctx)
        enc = SampleEncoder(spec.left_functions[:, 1:3], "input",
                            ctx.input_marginal)
        s = spec.nontrivial_values[:2]
        expected = float(np.sum(2 * s ** 2 / (1 - s ** 2)))
        assert abs(fisher_discriminant(enc, ctx) - expected) < 1e-8


class TestCcaAlignment:
    def test_invariance_under_mixing(self):
        rng = np.random.default_rng(20)
        marg = DiscreteDistribution.uniform(12)
        enc = SampleEncoder(rng.standard_normal((12, 3)), "input", marg)
        mixer = np.array([[2.0, 0.1, 0.0], [0.0, 1.0, -0.4], [0.3, 0.0, 1.5]])
        mixed = SampleEncoder(enc.values @ mixer, "input", marg)
        assert abs(cca_alignment(enc, mixed, marg) - 1.0) < 1e-8

    def test_orthogonal_encoders_score_zero(self):
        spec = synthetic_spectrum([0.9, 0.8, 0.7, 0.6], n=12, seed=21)
        marg = spec.input_marginal
        a = SampleEncoder(spec.left_functions[:, 1:3], "input", marg)
        b = SampleEncoder(spec.left_functions[:, 3:5], "input", marg)
        assert cca_alignment(a, b, marg) < 1e-8

    def test_half_overlap_scores_half(self):
        spec = synthetic_spectrum([0.9, 0.8, 0.7], n=12, seed=22)
        marg = spec.input_marginal
        a = SampleEncoder(spec.left_functions[:, [1, 2]], "input", marg)
        b = SampleEncoder(spec.left_functions[:, [1, 3]], "input", marg)
        assert abs(cca_alignment(a, b, marg) - 0.5) < 1e-8


class TestMutualKnn:
    def test_identical_encoders(self):
        rng = np.random.default_rng(23)
        marg = DiscreteDistribution.uniform(10)
        enc = SampleEncoder(rng.standard_normal((10, 2)), "input", marg)
        assert mutual_knn(enc, enc, k=3) == 1.0

    def test_scrambled_line_disjoint_neighbors(self):
        marg = DiscreteDistribution.uniform(6)
        a = SampleEncoder(np.arange(6.0)[:, None], "input", marg)
        # permute positions so every nearest neighbor changes
        b = SampleEncoder(np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0])[::-1][:, None],
                          "input", marg)
        score = mutual_knn(a, b, k=1)
        brute = _mutual_knn_oracle(a.values, b.values, 1)
        assert score == brute

    def test_one_swapped_pair_matches_enumeration(self):
        marg = DiscreteDistribution.uniform(6)
        a = SampleEncoder(np.arange(6.0)[:, None], "input", marg)
        vals = np.arange(6.0)
        vals[2], vals[3] = 3.0, 2.0
        b = SampleEncoder(vals[:, None], "input", marg)
        assert mutual_knn(a, b, k=1) == _mutual_knn_oracle(a.values, b.values, 1)

    def test_k_bound(self):
        marg = DiscreteDistribution.uniform(4)
        enc = SampleEncoder(np.arange(4.0)[:, None], "input", marg)
        with pytest.raises(ValueError):
            mutual_knn(enc, enc, k=4)


def _mutual_knn_oracle(a, b, k):
    # independent brute force on whitened values (1-d whitening is affine
    # with positive scale, so neighbor structure is unchanged)
    def sets(values):
        out = []
        n = values.shape[0]
        for i in range(n):
            dists = [(np.linalg.norm(values[j] - values[i]), j)
                     for j in range(n) if j != i]
            dists.sort()
            out.append({j for _, j in dists[:k]})
        return out
    sa, sb = sets(a), sets(b)
    return float(np.mean([len(x & y) / len(x | y) for x, y in zip(sa, sb)]))


class TestCorrelationStats:
    def test_affine_dependence(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pearson, dist = correlation_stats(a, 2 * a + 3)
        assert abs(pearson - 1.0) < 1e-12
        assert abs(dist - 1.0) < 1e-12

    def test_negation(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        pearson, dist = correlation_stats(a, -a)
        assert abs(pearson + 1.0) < 1e-12
        assert abs(dist - 1.0) < 1e-12

    def test_against_double_centering_oracle(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 4.0, 9.0, 16.0])
        pearson, dist = correlation_stats(a, b)
        assert abs(pearson - np.corrcoef(a, b)[0, 1]) < 1e-12

        def dmat(v):
            d = np.abs(v[:, None] - v[None, :])
            return d - d.mean(0) - d.mean(1)[:, None] + d.mean()

        da, db = dmat(a), dmat(b)
        oracle = np.sqrt((da * db).mean()
                         / np.sqrt((da * da).mean() * (db * db).mean()))
        assert abs(dist - oracle) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            correlation_stats(np.ones(5), np.arange(5.0))


class TestUsefulnessReportSerialization:
    def test_full_report_assembly(self):
        from contexture import build_rbf_context, make_usefulness_report
        rng = np.random.default_rng(30)
        pts = PointSet(rng.standard_normal((12, 3)))
        ctx = build_rbf_context(pts, gamma=0.6)
        spec = contexture_svd(ctx)
        rep = make_usefulness_report(spec, ctx, pts, d0=8, beta=1.0)
        assert rep.tau == np.min(rep.tau_curve)
        assert np.all(rep.tau_curve > 1.0)
        assert rep.kernel_deviation > 0
        assert rep.lipschitz > 0
        assert np.isfinite(rep.decay_rate)

    def test_json_and_csv(self, tmp_path):
        report = UsefulnessReport(tau_curve=np.array([2.5, 2.1]), tau=2.1,
                                  d_star_metric=2, decay_rate=0.4, beta=1.0,
                                  d0=2, kernel_deviation=0.3, lipschitz=1.2)
        data = report.to_json_dict()
        assert set(data) == {"tau_curve", "tau", "d_star_metric", "decay_rate",
                             "beta", "d0", "kernel_deviation", "lipschitz",
                             "degenerate"}
        path = tmp_path / "curve.csv"
        report.save_tau_curve_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "d,tau_d"
        assert len(lines) == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pearson_sign_follows_slope(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(12)
    if a.std() == 0:
        return
    slope = rng.choice([-3.0, 2.0])
    pearson, dist = correlation_stats(a, slope * a + 1.0)
    assert pearson == pytest.approx(np.sign(slope), abs=1e-9)
    assert dist == pytest.approx(1.0, abs=1e-9)
