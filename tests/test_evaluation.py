import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contexture import (DiscreteDistribution, FiniteContext, NumericalError,
                        PointSet, SampleEncoder, TaskFunction, approx_err,
                        build_rbf_context, cca_alignment, compatibility,
                        compatible_lift,
                        contexture_svd, correlation_stats, decay_rate,
                        dual_kernel, fisher_discriminant, fit_linear_probe,
                        kernel_association_measures, make_usefulness_report,
                        mutual_knn, ratio_trace, trace_gap_bound,
                        usefulness_metric, worst_case_err)
from contexture import evaluation
from contexture._linalg import orthonormal_basis, weighted_gram
from contexture.context import build_from_descriptor, build_label_context
from contexture.datasets import make_waves
from contexture.evaluation import UsefulnessReport, save_tau_curve_csv
from contexture.harness import load_dataset, zscore_by_reference
from contexture.spectral import ContextureSpectrum
from contexture.verify import random_dense_context, worst_compatible_task


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

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_rejected(self, d):
        spec = synthetic_spectrum([0.8, 0.5, 0.5])
        with pytest.raises(ValueError, match="d must be at least 1"):
            worst_case_err(spec, d, 0.25)

    def test_epsilon_bounds_named(self):
        spec = synthetic_spectrum([0.8, 0.5])
        with pytest.raises(ValueError, match="lower bound"):
            worst_case_err(spec, 1, 0.01)
        with pytest.raises(ValueError, match="upper bound"):
            worst_case_err(spec, 1, 0.9)


class TestWorstCompatibleTask:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2, 3]),
           n=st.integers(6, 12), m=st.integers(6, 12), t=st.floats(0.0, 1.0))
    def test_witness_meets_the_bound_and_the_top_functions_attain_it(
            self, seed, d, n, m, t):
        rng = np.random.default_rng(seed)
        spec = contexture_svd(random_dense_context(rng, n, m, 0.35))
        s = spec.nontrivial_values
        assume(s.size > d and s[0] - s[d] > 1e-3)
        lo, hi = 1 - s[0], 1 - np.sqrt((s[0] ** 2 + s[1] ** 2) / 2)
        eps = lo + t * (hi - lo)
        formula = worst_case_err(spec, d, eps)

        def err_and_compat(values):
            task = worst_compatible_task(spec, values, eps, d)
            enc = SampleEncoder(values, "input", spec.input_marginal)
            return approx_err(enc, task), compatibility(spec, task)

        err, compat = err_and_compat(spec.left_functions[:, 1:d + 1])
        assert abs(err - formula) <= 1e-12
        assert abs(compat - (1 - eps)) <= 1e-12
        # modes 2..d+1 miss mode 1 itself: the witness falls back to mode 2
        for values in [spec.left_functions[:, 2:d + 2],
                       *rng.standard_normal((5, n, d))]:
            err, compat = err_and_compat(values)
            assert err >= formula - 1e-12
            assert compat >= 1 - eps - 1e-12

    def test_spectrum_needs_d_plus_one_modes(self):
        spec = synthetic_spectrum([0.8, 0.5])
        values = spec.left_functions[:, 1:3]
        with pytest.raises(ValueError, match="needs 3 nontrivial modes"):
            worst_compatible_task(spec, values, 0.25, 2)


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

    @pytest.mark.parametrize("rows, dependent", [(4, False), (7, True)])
    def test_more_columns_than_the_span_match_lstsq(self, rows, dependent):
        # 5 columns on 4 rows, or on 7 rows with one a mix of two others:
        # the intercept design is singular, and the span's rank cut reads
        # it without a warning
        rng = np.random.default_rng(rows)
        marg = DiscreteDistribution(rng.dirichlet(np.full(rows, 3.0)))
        values = rng.standard_normal((rows, 5))
        if dependent:
            values[:, 4] = values[:, 0] - 2.0 * values[:, 1]
        f = TaskFunction(rng.standard_normal(rows), marg)
        design = np.concatenate([values, np.ones((rows, 1))], axis=1)
        root = np.sqrt(marg.weights)
        coef = np.linalg.lstsq(root[:, None] * design, root * f.values,
                               rcond=None)[0]
        reference = float(marg.weights @ (design @ coef - f.values) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = approx_err(SampleEncoder(values, "input", marg), f)
        assert abs(err - reference) <= 1e-12
        assert (reference > 1e-3) == dependent


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

    def test_nan_penalty_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_linear_probe((np.ones((5, 1)), np.ones(5)),
                             (np.ones((2, 1)), np.ones(2)), [1e-3, np.nan])

    def test_one_dimensional_features_are_one_column(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)
        y = 2.0 * x - 1.0
        flat = fit_linear_probe((x[:24], y[:24]), (x[24:], y[24:]), [1e-3])
        column = fit_linear_probe((x[:24, None], y[:24]),
                                  (x[24:, None], y[24:]), [1e-3])
        assert np.array_equal(flat.weights, column.weights)
        assert flat.bias == column.bias and flat.test_mse == column.test_mse

    def test_one_training_row_validates_on_itself(self):
        # the validation fifth would be that row, which every penalty fits,
        # so no validation runs and the first in the grid is returned
        res = fit_linear_probe(([[2.0, -1.0]], [3.0]), ([[0.0, 0.0]], [1.0]),
                               [0.5, 0.1])
        assert res.ridge_penalty == 0.5
        assert np.max(np.abs(res.weights)) < 1e-12
        assert abs(res.bias - 3.0) < 1e-12 and res.train_mse < 1e-20
        assert abs(res.test_mse - 4.0) < 1e-12
        # roundoff in the exact fits would rank the penalties: 1e-3 won a
        # validation on this row
        res = fit_linear_probe(([[0.4]], [1.5]), ([[0.4]], [1.5]),
                               [1.0, 1e-3, 1e-6])
        assert res.ridge_penalty == 1.0

    def test_infinite_penalty_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_linear_probe((np.ones((5, 1)), np.ones(5)),
                             (np.ones((2, 1)), np.ones(2)), [np.inf])


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

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            usefulness_metric(np.sqrt([0.8, 0.5]), d0=3, beta=float("nan"))

    def test_infinite_beta_rejected(self):
        # inf used to score tau = inf at every d
        with pytest.raises(ValueError, match="finite"):
            usefulness_metric(np.sqrt([0.8, 0.5]), d0=3, beta=float("inf"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, bad):
        # np.clip passes NaN through, so the check must come before it
        with pytest.raises(ValueError, match="finite"):
            usefulness_metric(np.array([0.9, bad, 0.3]), d0=3, beta=1.0)


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

    # a NaN fitted the bracket's top, 50.0, and an inf its bottom, 0.0
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="singular values must be finite"):
            decay_rate(np.array([bad, 0.5, 0.4, 0.3]))

    # 9 is the largest integer rate whose third squared value, e^-27, stays
    # above the 1e-12 floor
    @pytest.mark.parametrize("rate", [1e-3, 0.1, 0.5, 1.3, 3.0, 9.0])
    @pytest.mark.parametrize("size", [13, 64, 1399])
    def test_exact_exponential_to_roundoff(self, rate, size):
        fitted = decay_rate(np.sqrt(np.exp(-rate * np.arange(1, size + 1))))
        assert abs(fitted - rate) <= 1e-14 * rate

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.01, 8.0), size=st.integers(3, 200),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_ulp_noise_moves_rate_by_roundoff(self, rate, size, seed):
        # a noisy exponential below 1 fits a rate well inside the bracket;
        # each of its values then moves by at most 2 ulp
        rng = np.random.default_rng(seed)
        y = np.exp(-rate * np.arange(1, size + 1)) * rng.uniform(0.5, 1.0, size)
        values = np.sort(np.sqrt(y))[::-1]
        nudged = values + rng.integers(-2, 3, size) * np.spacing(values)
        fitted = decay_rate(values)
        assert abs(decay_rate(nudged) - fitted) <= 1e-12 * fitted


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

    @pytest.mark.parametrize("sample", [0, 1])
    def test_sample_below_a_pair_rejected(self, sample):
        pts = PointSet(np.arange(3.0)[:, None])
        with pytest.raises(ValueError, match=f"at least 2.*got {sample}"):
            kernel_association_measures(np.ones((3, 3)), pts,
                                        DiscreteDistribution.uniform(3),
                                        lipschitz_sample=sample)

    def test_coincident_points_rejected(self):
        pts = PointSet(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="coincide"):
            kernel_association_measures(np.ones((3, 3)), pts,
                                        DiscreteDistribution.uniform(3),
                                        lipschitz_sample=3)

    @pytest.mark.parametrize("shape, n_points, n_weights", [
        ((4, 4), 6, 4),  # used to pair kernel rows with the first 4 points
        ((4, 4), 3, 4),  # used to raise an IndexError
        ((4, 5), 4, 4),  # used to raise a matmul error
        ((4, 4), 4, 5),
        ((4,), 4, 4),
    ])
    def test_shape_mismatch_rejected(self, shape, n_points, n_weights):
        pts = PointSet(np.arange(float(n_points))[:, None])
        with pytest.raises(ValueError, match="kernel must be n x n"):
            kernel_association_measures(np.ones(shape), pts,
                                        DiscreteDistribution.uniform(n_weights),
                                        lipschitz_sample=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        # a NaN used to give Lipschitz 0.0, an inf (inf, inf) and a warning
        kernel = np.ones((4, 4))
        kernel[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                kernel_association_measures(kernel,
                                            PointSet(np.arange(4.0)[:, None]),
                                            DiscreteDistribution.uniform(4))

    def test_report_decay_rate_is_nan_below_three_values(self):
        # a 3-class label context has 2 nontrivial values, too few to fit
        labels = np.arange(9) % 3
        ctx = build_label_context(labels)
        pts = PointSet(np.arange(9.0)[:, None])
        rep = make_usefulness_report(contexture_svd(ctx), ctx, pts, d0=2,
                                     beta=1.0)
        assert np.isnan(rep.decay_rate)
        assert np.isfinite(rep.tau)

    def test_report_holds_few_square_arrays(self):
        # the kernel K and the distances, with int16 codes: 2.59 arrays of
        # n x n doubles traced at n = 400 (numpy 2.4); a transposed copy of
        # K for the scan took it to 3.59, and whole-matrix temporaries for
        # |K - 1|, the coding and a nearest-neighbour pass to 5.45
        n = 400
        pts = PointSet(np.random.default_rng(6).standard_normal((n, 3)))
        ctx = build_rbf_context(pts, 0.5)
        spec = contexture_svd(ctx, rank=10)
        make_usefulness_report(spec, ctx, pts, d0=5, beta=1.0)
        tracemalloc.start()
        try:
            make_usefulness_report(spec, ctx, pts, d0=5, beta=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * n * n * 8

    @pytest.mark.parametrize("descriptor", ["rbf+mask:0.1:0.2:50",
                                            "knn+mask:20:0.4:50"])
    def test_report_scans_the_dual_kernel_itself(self, tmp_path, monkeypatch,
                                                 descriptor):
        # the scoring benchmark's two contexts, at a size where the stride
        # keeps every point: the report's statistics equal the public
        # function's, and its scan reads the dual kernel it formed
        path = make_waves(tmp_path / "waves.csv", n=200, seed=2)
        raw, _ = load_dataset(path, "y")
        pts = PointSet(zscore_by_reference(raw.points, np.arange(200)))
        ctx = build_from_descriptor(descriptor, pts, seed=3)
        kernel = dual_kernel(ctx)
        assert np.array_equal(kernel, kernel.T)
        deviation, lips = kernel_association_measures(
            kernel, pts, ctx.input_marginal, lipschitz_sample=200)

        seen = {}
        scan = evaluation._lipschitz_scan
        form = evaluation.dual_kernel

        def recording_scan(cols, points):
            seen["scanned"] = cols
            return scan(cols, points)

        def recording_kernel(c):
            seen["kernel"] = form(c)
            return seen["kernel"]

        monkeypatch.setattr(evaluation, "_lipschitz_scan", recording_scan)
        monkeypatch.setattr(evaluation, "dual_kernel", recording_kernel)
        rep = make_usefulness_report(contexture_svd(ctx, rank=10), ctx, pts,
                                     d0=5, beta=1.0)
        assert seen["scanned"] is seen["kernel"]
        assert rep.kernel_deviation == deviation and rep.lipschitz == lips

    def test_dual_kernel_scan_holds_few_square_arrays(self):
        # the distances and two int16 code arrays: 1.59 arrays of n x n
        # doubles traced at n = 400 (numpy 2.4); a transposed copy of the
        # kernel for the scan took it to 2.59
        n = 400
        pts = PointSet(np.random.default_rng(6).standard_normal((n, 3)))
        ctx = build_rbf_context(pts, 0.5)
        kernel = dual_kernel(ctx)
        # a first call also traces numpy's lazy imports
        kernel_association_measures(kernel, pts, ctx.input_marginal, n)
        tracemalloc.start()
        try:
            kernel_association_measures(kernel, pts, ctx.input_marginal, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * 8

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["gram", "positive"]), n=st.integers(2, 40),
           n_duplicates=st.integers(0, 6), subsample=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_statistics_equal_a_transposed_copy_scan(self, kind, n,
                                                     n_duplicates, subsample,
                                                     seed):
        # a bit-symmetric kernel is scanned in place; the floats are those
        # of a scan of the transposed copy, which any other kernel gets
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        if kind == "gram":
            values = rng.standard_normal((int(rng.integers(1, 8)), n))
            # a duplicated point has a duplicated kernel row and column
            dup_from = rng.integers(0, n, n_duplicates)
            dup_to = rng.integers(0, n, n_duplicates)
            pts[dup_to] = pts[dup_from]
            values[:, dup_to] = values[:, dup_from]
            kernel = weighted_gram(values, rng.dirichlet(np.ones(len(values))))
            assert np.array_equal(kernel, kernel.T)
        else:
            kernel = rng.exponential(size=(n, n))
            assume(not np.array_equal(kernel, kernel.T))
        marginal = DiscreteDistribution(rng.dirichlet(np.ones(n)))
        sample = int(rng.integers(2, n)) if subsample and n > 2 else n

        w = marginal.weights
        idx = np.unique(np.round(np.linspace(0, n - 1, sample)).astype(int))
        assume(np.ptp(pts[idx], axis=0).any())  # not every sampled point coincides
        expected = (float(w @ np.abs(kernel - 1.0) @ w),
                    evaluation._lipschitz_scan(kernel.T[np.ix_(idx, idx)],
                                               pts[idx]))
        got = kernel_association_measures(kernel, PointSet(pts), marginal,
                                          sample)
        assert got == expected

    def test_report_rejects_points_off_the_support(self):
        rng = np.random.default_rng(5)
        ctx = FiniteContext(rng.dirichlet(np.ones(6), size=6),
                            DiscreteDistribution.uniform(6))
        spec = contexture_svd(ctx)
        pts = PointSet(rng.standard_normal((8, 2)))
        with pytest.raises(ValueError, match="8 points"):
            make_usefulness_report(spec, ctx, pts, d0=2, beta=1.0)


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
        # the last scaling spreads the column norms over six decades
        for scale in (1e4, 1e6, np.array([1e6, 1.0, 1.0])):
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

    def test_repeated_column_adds_nothing(self):
        # the singular-value sum follows the span's rank, not the column
        # count: [v1, v2, v1] used to add s_4^2 (gap 0.299, not 0.196)
        ctx = random_dense_context(np.random.default_rng(11), 10, 8)
        spec = contexture_svd(ctx)
        s = spec.nontrivial_values
        eps = 1 - s[0] + 0.05
        v = spec.left_functions
        results = [trace_gap_bound(SampleEncoder(v[:, cols], "input",
                                                 ctx.input_marginal),
                                   ctx, spec, epsilon=eps)
                   for cols in ([1, 2], [1, 2, 1])]
        np.testing.assert_allclose(results[1], results[0], rtol=1e-12)
        assert abs(results[0][0] - s[2] ** 2) < 1e-10

    def test_surrogate_past_s1_has_no_finite_bound(self):
        # two nearly separate blocks give s_1 near 1; the last singular
        # function alone misses s_1^2 + s_2^2, past s_1
        rows = np.full((6, 6), 1e-3)
        rows[:3, :3] = rows[3:, 3:] = 1.0
        rows[[0, 3], [1, 4]] = 3.0
        ctx = FiniteContext(rows / rows.sum(axis=1, keepdims=True),
                            DiscreteDistribution.uniform(6))
        spec = contexture_svd(ctx)
        s = spec.nontrivial_values
        enc = SampleEncoder(spec.left_functions[:, -1:], "input",
                            ctx.input_marginal)
        gap, bound = trace_gap_bound(enc, ctx, spec, epsilon=1 - s[0] + 0.05)
        assert gap >= s[0] and bound == float("inf")

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

    def test_repeated_column_adds_nothing(self):
        ctx = dense_context(9, 30, 20)
        values = np.random.default_rng(9).standard_normal((30, 2))
        base = fisher_discriminant(
            SampleEncoder(values, "input", ctx.input_marginal), ctx)
        enc = SampleEncoder(values[:, [0, 1, 0]], "input", ctx.input_marginal)
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
        # the same columns, or the same span with a column repeated
        repeated = SampleEncoder(enc.values[:, [0, 1, 2, 0]], "input", marg)
        for other in (enc, repeated):
            assert abs(cca_alignment(other, enc, marg) - 1.0) < 1e-14

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

    def test_repeated_column_adds_nothing(self):
        # a dependent column leaves the centred span, and so CCA, unchanged
        rng = np.random.default_rng(18)
        marg = DiscreteDistribution.uniform(12)
        v = rng.standard_normal((12, 2))
        repeated = SampleEncoder(v[:, [0, 1, 0]], "input", marg)
        plain = SampleEncoder(v, "input", marg)
        assert abs(cca_alignment(repeated, plain, marg) - 1.0) < 1e-14
        assert mutual_knn(repeated, plain, 3) == 1.0

    def test_constant_encoder_rejected_as_by_cca(self):
        marg = DiscreteDistribution.uniform(8)
        flat = SampleEncoder(np.ones((8, 2)), "input", marg)
        enc = SampleEncoder(np.arange(16.0).reshape(8, 2) ** 2, "input", marg)
        for a, b in ((flat, enc), (enc, flat)):
            with pytest.raises(ValueError, match="zero-variance"):
                mutual_knn(a, b, 2)
            with pytest.raises(ValueError, match="zero-variance"):
                cca_alignment(a, b, marg)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 59), d1=st.integers(1, 5), d2=st.integers(1, 5),
           dirichlet=st.booleans(), seed=st.integers(0, 2 ** 31 - 1),
           data=st.data())
    def test_full_rank_matches_whitened_neighbors(self, n, d1, d2, dirichlet,
                                                  seed, data):
        k = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        marg = (DiscreteDistribution(rng.dirichlet(np.ones(n))) if dirichlet
                else DiscreteDistribution.uniform(n))
        a = SampleEncoder(rng.standard_normal((n, d1)), "input", marg)
        b = SampleEncoder(rng.standard_normal((n, d2)), "input", marg)
        assert mutual_knn(a, b, k) == _whitened_mutual_knn(a, b, k)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 30), levels=st.integers(2, 6),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_one_column_keeps_exact_ties(self, n, levels, seed, data):
        # integer values on a uniform support: many exact distance ties,
        # which must go to the lower index as in the raw-value enumeration
        k = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        marg = DiscreteDistribution.uniform(n)
        cols = rng.integers(0, levels, size=(n, 2)).astype(float)
        cols[:2, :] = [[0.0, 0.0], [1.0, 1.0]]  # neither column constant
        a, b = (SampleEncoder(cols[:, [j]], "input", marg) for j in (0, 1))
        assert mutual_knn(a, b, k) == _mutual_knn_oracle(a.values, b.values, k)


class TestConstantEncoders:
    """A constant column centres to roundoff, not always to zero; the span
    cut is taken relative to the uncentred scale, so it keeps no span."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(3, 59), d=st.integers(1, 3), dirichlet=st.booleans(),
           consts=st.lists(st.sampled_from([0.3, 0.1, 1 / 3, 2.7, -1234.5678]),
                           min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_no_span_and_rejected(self, n, d, dirichlet, consts, seed):
        rng = np.random.default_rng(seed)
        marg = (DiscreteDistribution(rng.dirichlet(np.ones(n))) if dirichlet
                else DiscreteDistribution.uniform(n))
        flat = SampleEncoder(np.tile(consts[:d], (n, 1)), "input", marg)
        other = SampleEncoder(np.arange(float(n))[:, None] ** 2, "input", marg)
        assert orthonormal_basis(flat.values, marg.weights, center=True).shape[1] == 0
        for a, b in ((flat, other), (other, flat)):
            with pytest.raises(ValueError, match="zero-variance"):
                cca_alignment(a, b, marg)
            with pytest.raises(ValueError, match="zero-variance"):
                mutual_knn(a, b, 2)
        ctx = FiniteContext(rng.dirichlet(np.ones(5), size=n), marg)
        with pytest.raises(ValueError, match="no non-constant"):
            ratio_trace(flat, ctx)

    @pytest.mark.parametrize("const", [0.3, -1234.5678])
    def test_small_variation_keeps_its_span(self, const):
        # a millionth of the scale is far above the 1e-10 relative cut
        marg = DiscreteDistribution.uniform(7)
        x = np.arange(7.0)[:, None] ** 2
        near = SampleEncoder(const + 1e-6 * abs(const) * x, "input", marg)
        plain = SampleEncoder(x, "input", marg)
        assert abs(cca_alignment(near, plain, marg) - 1.0) < 1e-8
        assert mutual_knn(near, plain, 2) == 1.0


def _whitened_mutual_knn(enc1, enc2, k):
    # mutual k-NN on the centred encoders whitened by the inverse square
    # root of their covariance: a rotation of the centred-span coordinates
    # for a full-rank encoder, so the same neighbors up to roundoff
    def whiten(values, w):
        centered = values - w @ values
        cov = centered.T @ (w[:, None] * centered)
        evals, evecs = np.linalg.eigh(0.5 * (cov + cov.T))
        assert evals[0] >= 1e-13 * evals[-1] > 0.0
        return centered @ ((evecs / np.sqrt(evals)) @ evecs.T)

    sets = []
    for enc in (enc1, enc2):
        white = whiten(enc.values, enc.marginal.weights)
        dists = np.sum((white[:, None] - white[None]) ** 2, axis=2)
        np.fill_diagonal(dists, np.inf)
        order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        sets.append([set(row) for row in order.tolist()])
    return float(np.mean([len(x & y) / len(x | y) for x, y in zip(*sets)]))


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

    # a NaN entry gave (nan, nan) rather than an error
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            correlation_stats([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            correlation_stats([1.0, 2.0, 3.0], [1.0, bad, 3.0])


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
        save_tau_curve_csv(report.tau_curve, path)
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


UNIFORM_3 = DiscreteDistribution.uniform(3)
IDENTITY_3 = FiniteContext(np.eye(3), UNIFORM_3, same_support=True)
ENC_3 = SampleEncoder(np.array([[1.0, -1.0, 0.3], [0.2, 0.5, 1.0]]).T,
                      "input", UNIFORM_3)
ENC_4 = SampleEncoder(np.arange(8.0).reshape(4, 2) ** 2, "input",
                      DiscreteDistribution.uniform(4))
# a rank-2 spectrum of a 6-point context spans 2 of its 6 dimensions
SPEC_RANK_2 = contexture_svd(dense_context(4, 6, 6), rank=2)


@pytest.mark.parametrize("call, args, exc, match", [
    (TaskFunction, (np.ones((3, 1)), UNIFORM_3), ValueError,
     "1-d vector matching the marginal"),
    (TaskFunction, (np.ones(2), UNIFORM_3), ValueError,
     "1-d vector matching the marginal"),
    (TaskFunction, (np.array([0.0, np.nan, 1.0]), UNIFORM_3), ValueError,
     "task values must be finite"),
    (approx_err, (ENC_4, TaskFunction(np.arange(3.0), UNIFORM_3)), ValueError,
     "share a support"),
    (fit_linear_probe, ((np.zeros((0, 1)), np.zeros(0)),
                        (np.ones((2, 1)), np.ones(2)), [1.0]),
     ValueError, "splits must be nonempty"),
    (usefulness_metric, ([0.5, 0.2], 0, 1.0), ValueError,
     "d0 must be at least 1"),
    (kernel_association_measures, (np.ones((3, 3)),
                                   PointSet(np.arange(3.0)[:, None]),
                                   UNIFORM_3, 4),
     ValueError, "must not exceed the support size"),
    (ratio_trace, (SampleEncoder(np.arange(3.0), "context", UNIFORM_3),
                   IDENTITY_3),
     ValueError, "expected an input-support encoder"),
    (compatible_lift, (SPEC_RANK_2, TaskFunction(
        np.random.default_rng(5).standard_normal(6),
        DiscreteDistribution.uniform(6))),
     ValueError, "mass outside the spectrum span"),
    (fisher_discriminant, (ENC_3, IDENTITY_3), NumericalError,
     "within-minus-between covariance is singular"),
    (cca_alignment, (ENC_3, ENC_4, UNIFORM_3), ValueError,
     "encoders must share a support"),
    (mutual_knn, (ENC_3, ENC_4, 1), ValueError,
     "encoders must share a support"),
    (correlation_stats, ([1.0, 2.0], [2.0, 1.0]), ValueError,
     "at least 3 entries"),
    (correlation_stats, ([1.0, 2.0, 3.0], [2.0, 1.0]), ValueError,
     "at least 3 entries"),
])
def test_typed_input_errors(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)
