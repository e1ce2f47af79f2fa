"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from contexture import (DiscreteDistribution, ExperimentConfig,
                        SampleEncoder, build_rbf_context,
                        cca_alignment, contexture_svd, decay_rate, dual_kernel,
                        estimate_covariances, estimate_spectrum_posthoc,
                        eval_objective, mutual_knn, operator_matrices,
                        reconstruct_joint, run_experiment, solve_spectral,
                        subsample_support, usefulness_metric, verify_theorems,
                        write_report)
from contexture.datasets import (make_planted_graph, write_benchmark_suite)
from contexture.harness import REFERENCE_MEDIANS
from contexture.verify import (_perturbation_context, equivalence_residuals,
                               random_dense_context, random_invertible,
                               worstcase_residuals)
from contexture.objectives import ObjectiveKind
from contexture.context import PointSet
from contexture._linalg import weighted_norm


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


class TestCriterion1SpectralCore:
    def test_duality_and_reconstruction_on_200_contexts(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst_duality = 0.0
        worst_joint = 0.0
        for _ in range(200):
            n = int(rng.integers(4, 61))
            m = int(rng.integers(4, 61))
            ctx = random_dense_context(rng, n, m,
                                       concentration=float(rng.uniform(0.3, 1.5)))
            spec = contexture_svd(ctx)
            op = operator_matrices(ctx)
            p = ctx.input_marginal.weights
            q = ctx.context_marginal.weights
            for i in range(spec.rank):
                s = spec.singular_values[i]
                if s <= 1e-10:
                    continue
                mu = spec.left_functions[:, i]
                nu = spec.right_functions[:, i]
                worst_duality = max(
                    worst_duality,
                    weighted_norm(mu - op.forward @ nu / s, p),
                    weighted_norm(nu - op.adjoint @ mu / s, q))
            joint = p[:, None] * ctx.conditional
            worst_joint = max(worst_joint,
                              float(np.max(np.abs(reconstruct_joint(spec)
                                                  - joint))))
        elapsed = time.perf_counter() - start
        assert worst_duality <= 1e-8, worst_duality
        assert worst_joint <= 1e-8, worst_joint
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        report(1, f"duality residual {worst_duality:.2e} and reconstruction "
                  f"residual {worst_joint:.2e} over 200 contexts "
                  f"({elapsed:.1f}s)")


class TestCriterion2ObjectiveEquivalence:
    def test_all_nine_objectives_on_20_contexts_each(self, two_state):
        start = time.perf_counter()
        worst_span = 0.0
        worst_value = 0.0
        for kind_index, kind in enumerate(ObjectiveKind):
            rng = np.random.default_rng(2000 + kind_index)
            for _ in range(20):
                n = int(rng.integers(8, 41))
                m = int(rng.integers(8, 41))
                span_gap, value_gap = equivalence_residuals(
                    kind, rng, n, m, d=2)
                worst_span = max(worst_span, span_gap)
                worst_value = max(worst_value, value_gap)
        # the stated closed-form reference point for the constrained loss
        enc = solve_spectral("multiview_noncontrastive", two_state, 1)
        assert abs(eval_objective("multiview_noncontrastive", two_state, enc)
                   - 0.72) < 1e-12
        elapsed = time.perf_counter() - start
        assert worst_span <= 1 - 0.99, worst_span
        assert worst_value <= 1e-3, worst_value
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
        report(2, f"9 objectives x 20 contexts: min principal cosine "
                  f"{1 - worst_span:.6f}, value residual {worst_value:.2e} "
                  f"({elapsed:.1f}s)")


class TestCriterion3WorstCaseOracle:
    def test_formula_vs_brute_force_and_encoder_lower_bounds(self):
        rng = np.random.default_rng(3003)
        worst_formula = 0.0
        worst_shortfall = 0.0
        for _ in range(20):
            gap_formula, shortfall = worstcase_residuals(rng, 16, 12, d=1,
                                                         n_encoders=5)
            worst_formula = max(worst_formula, gap_formula)
            worst_shortfall = max(worst_shortfall, shortfall)
        assert worst_formula <= 1e-4, worst_formula
        assert worst_shortfall <= 1e-6, worst_shortfall
        report(3, f"two-mode brute force matches within {worst_formula:.2e}; "
                  f"100 encoder witnesses within {worst_shortfall:.2e}")


class TestCriterion4MetricArithmetic:
    def test_reference_curve_and_independent_context(self,
                                                     independent_context):
        frag = usefulness_metric(np.sqrt([0.8, 0.5, 0.2]), d0=3, beta=1.0)
        assert abs(frag.tau_curve[0] - 2.5333) < 1e-4
        assert abs(frag.tau_curve[1] - 2.1167) < 1e-4
        assert abs(frag.tau_curve[2] - 2.0) < 1e-12
        assert frag.tau == frag.tau_curve[2]
        assert frag.d_star_metric == 3

        spec = contexture_svd(independent_context)
        frag_ind = usefulness_metric(spec.nontrivial_values, d0=3, beta=1.0)
        assert frag_ind.degenerate
        assert np.all(frag_ind.tau_curve == 2.0)
        report(4, "tau curve (2.5333, 2.1167, 2.0) reproduced; independent "
                  "context scores beta + 1 exactly")


class TestCriterion5AssociationMeasures:
    def test_decay_rate_recovery(self):
        worst = 0.0
        for rate in (0.1, 0.5, 1.3, 3.0):
            fitted = decay_rate(np.sqrt(np.exp(-rate * np.arange(1, 14))))
            worst = max(worst, abs(fitted - rate))
        assert worst <= 1e-6, worst
        report(5, f"decay rates recovered within {worst:.2e} "
                  "(weak-association bound checked below)")

    def test_weak_association_bound_100_trials(self):
        rng = np.random.default_rng(5005)
        violations = 0
        for _ in range(100):
            n = int(rng.integers(6, 30))
            m = int(rng.integers(6, 30))
            ctx = _perturbation_context(rng, n, m,
                                        delta=float(rng.uniform(1e-4, 3e-2)))
            kx = dual_kernel(ctx)
            eps = float(np.max(np.abs(kx - 1.0))) + 1e-15
            mass = float(np.sum(contexture_svd(ctx).nontrivial_values ** 2))
            if not mass < eps:
                violations += 1
        assert violations == 0
        report(5, "weak-association mass bound held in 100/100 randomized "
                  "perturbation contexts")


class TestCriterion6Estimation:
    def test_exact_covariances_and_mixing(self):
        rng = np.random.default_rng(6006)
        worst = 0.0
        for _ in range(10):
            ctx = random_dense_context(rng, 20, 16)
            spec = contexture_svd(ctx)
            d = 3
            mixer = random_invertible(rng, d)
            enc = SampleEncoder(spec.left_functions[:, 1:d + 1] @ mixer,
                                "input", ctx.input_marginal)
            cov = estimate_covariances(enc, ctx)
            evals, _ = estimate_spectrum_posthoc(enc, cov, top=d)
            worst = max(worst, float(np.max(np.abs(
                evals - spec.nontrivial_values[:d] ** 2))))
        assert worst <= 1e-8, worst
        report(6, f"mixed top-d eigenvalues recovered within {worst:.2e}")

    def test_pair_sampled_chains_on_channel(self, two_state):
        spec = contexture_svd(two_state)
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            two_state.input_marginal)
        cov = estimate_covariances(enc, two_state, mode="pair_sampled",
                                   n_pairs=100_000, seed=60)
        err = abs(cov.b_phi[0, 0] - 0.64)
        assert err < 0.01, err
        report(6, f"pair-sampled pushed covariance 0.64 recovered within "
                  f"{err:.4f} (100k chains)")

    def test_monotone_refinement_in_m(self):
        rng = np.random.default_rng(6060)
        pts = PointSet(rng.standard_normal((64, 3)))
        ctx = build_rbf_context(pts, gamma=0.8)
        truth = contexture_svd(ctx).nontrivial_values[:8] ** 2
        errors = []
        for m in (8, 16, 32, 64):
            per_seed = []
            for seed in range(20):
                sub = subsample_support(ctx, m, seed=seed)
                vals = contexture_svd(sub).nontrivial_values[:8] ** 2
                est = np.zeros(8)
                est[:vals.size] = vals
                per_seed.append(np.mean(np.abs(est - truth)))
            errors.append(float(np.mean(per_seed)))
        assert all(b <= a + 0.01 for a, b in zip(errors, errors[1:])), errors
        report(6, "mean eigenvalue error non-increasing in m "
                  f"({', '.join(f'{e:.4f}' for e in errors)}; reference "
                  "trend 0.157 -> 0.088 from m=100 to full)")


class TestCriterion7EndToEnd:
    def test_planted_context_wins_and_metric_correlates(self, tmp_path):
        csv_path, _, planted = make_planted_graph(tmp_path, n=160, seed=17,
                                                  split_seed=0)
        grid = [planted]
        grid += [f"rbf:{g:g}" for g in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01,
                                        0.1, 0.5, 1, 2, 5, 20, 100)]
        grid += [f"knn:{k}" for k in (1, 2, 4, 8, 16, 32)]
        cfg = ExperimentConfig(dataset_path=str(csv_path),
                               target_column="target", context_grid=grid,
                               ridge_grid=[1e-6, 1e-4, 1e-2],
                               d_grid=[1, 2, 4, 8], d0=32, seed=0)
        rep = run_experiment(cfg)
        assert not rep["failures"], rep["failures"]
        best = min(rep["per_context"], key=lambda e: e["err_d_star"])
        assert best["descriptor"] == planted
        pearson = rep["summary"]["pearson"]
        assert pearson is not None and pearson > 0, pearson
        report(7, f"planted context ranks first (err {best['err_d_star']:.4f})"
                  f"; tau-vs-err pearson {pearson:.3f} > 0 over a 20-context "
                  "grid")

    def test_benchmark_suite_completes(self, tmp_path):
        paths = write_benchmark_suite(tmp_path)
        targets = {"rings.csv": "band", "waves.csv": "y", "blobs.csv": "value"}
        grid = [f"rbf:{g:g}" for g in (1e-4, 1e-2, 0.1, 0.5, 2.0)]
        grid += ["knn:4", "knn:16", "knn:64", "rbf+mask:0.5:0.2:8",
                 "knn+mask:8:0.2:8"]
        lines = []
        for path in paths:
            cfg = ExperimentConfig(dataset_path=str(path),
                                   target_column=targets[path.name],
                                   context_grid=grid,
                                   ridge_grid=[1e-5, 1e-3, 1e-1],
                                   d_grid=[1, 2, 4, 8, 16], d0=32, seed=1)
            rep = run_experiment(cfg)
            summary = rep["summary"]
            assert summary["pearson"] is not None
            assert summary["distance_corr"] is not None
            lines.append(f"{path.name}: pearson={summary['pearson']:.3f}, "
                         f"distance={summary['distance_corr']:.3f}")
        report(7, "3 benchmark tables completed -- " + "; ".join(lines)
               + f" (reference medians: pearson "
                 f"{REFERENCE_MEDIANS['pearson']}, distance "
                 f"{REFERENCE_MEDIANS['distance_corr']})")


class TestCriterion8AlignmentMetrics:
    def test_cca_and_mutual_knn(self):
        rng = np.random.default_rng(8008)
        marg = DiscreteDistribution.uniform(24)
        enc = SampleEncoder(rng.standard_normal((24, 3)), "input", marg)
        worst = 0.0
        for _ in range(50):
            mixed = SampleEncoder(enc.values @ random_invertible(rng, 3),
                                  "input", marg)
            worst = max(worst, abs(1.0 - cca_alignment(enc, mixed, marg)))
        assert worst <= 1e-8, worst

        assert mutual_knn(enc, enc, k=5) == 1.0

        ctx = random_dense_context(np.random.default_rng(88), 24, 24)
        spec = contexture_svd(ctx)
        a = SampleEncoder(spec.left_functions[:, [1, 2]], "input",
                          ctx.input_marginal)
        b = SampleEncoder(spec.left_functions[:, [1, 3]], "input",
                          ctx.input_marginal)
        half = cca_alignment(a, b, ctx.input_marginal)
        assert abs(half - 0.5) <= 1e-8, half
        report(8, f"CCA mixing invariance within {worst:.2e}; identical "
                  f"whitened encoders share all neighbors; partial overlap "
                  f"scores {half:.9f}")


class TestCriterion9Determinism:
    def test_verify_and_experiment_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        write_report(verify_theorems(n=14, m=12, trials=1, seed=9), out1)
        write_report(verify_theorems(n=14, m=12, trials=1, seed=9), out2)
        assert out1.read_bytes() == out2.read_bytes()

        csv_path, _, planted = make_planted_graph(tmp_path, n=60, seed=4,
                                                  split_seed=2)
        cfg = ExperimentConfig(dataset_path=str(csv_path),
                               target_column="target",
                               context_grid=[planted, "rbf:0.5", "knn:4"],
                               ridge_grid=[1e-4, 1e-2], d_grid=[1, 2],
                               d0=8, seed=2)
        e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
        write_report(run_experiment(cfg), e1)
        write_report(run_experiment(cfg), e2)
        assert e1.read_bytes() == e2.read_bytes()
        report(9, "verify and experiment reports byte-identical across "
                  "seeded reruns")
