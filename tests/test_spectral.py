import dataclasses
import json

import numpy as np
import pytest

from contexture import (DiscreteDistribution,
                        FiniteContext, apply_operator, build_label_context,
                        contexture_svd, dual_kernel, load_spectrum,
                        operator_matrices, positive_pair_kernel,
                        reconstruct_joint, save_spectrum)
from contexture._linalg import weighted_norm
from contexture.spectral import CLAMP_TOL


def random_context(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m) * 0.7, size=n)
    return FiniteContext(rows, DiscreteDistribution(rng.dirichlet(np.ones(n) * 5)))


class TestOperatorMatrices:
    def test_independent_context(self, independent_context):
        op = operator_matrices(independent_context)
        assert np.allclose(op.forward,
                           np.tile([0.2, 0.3, 0.5], (4, 1)))
        assert np.allclose(op.adjoint, np.tile(0.25, (3, 4)))

    def test_identity_context(self, identity_context):
        op = operator_matrices(identity_context)
        assert np.allclose(op.forward, np.eye(2))
        assert np.allclose(op.adjoint, np.eye(2))

    def test_channel_adjoint_is_symmetric_case(self, two_state):
        op = operator_matrices(two_state)
        # uniform marginals and symmetric conditional: Bayes gives Q back
        assert np.allclose(op.adjoint, two_state.conditional)

    def test_adjoint_identity_random_probes(self):
        ctx = random_context(0, 7, 5)
        op = operator_matrices(ctx)
        rng = np.random.default_rng(1)
        p = ctx.input_marginal.weights
        q = ctx.context_marginal.weights
        for _ in range(20):
            f, g = rng.standard_normal(7), rng.standard_normal(5)
            lhs = float(p @ (f * (op.forward @ g)))
            rhs = float(q @ ((op.adjoint @ f) * g))
            assert abs(lhs - rhs) < 1e-10


class TestKernels:
    def test_independent_dual_kernel_all_ones(self, independent_context):
        assert np.allclose(dual_kernel(independent_context), 1.0)

    def test_identity_dual_kernel(self, identity_context):
        assert np.allclose(dual_kernel(identity_context),
                           [[2.0, 0.0], [0.0, 2.0]])

    def test_channel_dual_kernel(self, two_state):
        kx = dual_kernel(two_state)
        assert np.allclose(kx, [[1.64, 0.36], [0.36, 1.64]])
        # cross-check against the singular expansion
        spec = contexture_svd(two_state)
        s2 = spec.singular_values ** 2
        rebuilt = (spec.left_functions * s2) @ spec.left_functions.T
        assert np.allclose(kx, rebuilt, atol=1e-12)

    def test_dual_kernel_unit_row_average(self):
        ctx = random_context(2, 8, 6)
        kx = dual_kernel(ctx)
        assert np.allclose(kx @ ctx.input_marginal.weights, 1.0, atol=1e-12)
        assert np.all(kx >= 0)
        assert np.allclose(kx, kx.T)

    def test_independent_positive_pair_all_ones(self, independent_context):
        assert np.allclose(positive_pair_kernel(independent_context), 1.0)

    def test_balanced_label_positive_pair(self):
        ctx = build_label_context(np.array([0, 0, 1, 1]))
        assert np.allclose(positive_pair_kernel(ctx), 2.0 * np.eye(2))

    def test_channel_kernels_coincide(self, two_state):
        assert np.allclose(positive_pair_kernel(two_state),
                           dual_kernel(two_state))


class TestContextureSvd:
    def test_independent_only_constant_survives(self, independent_context):
        spec = contexture_svd(independent_context)
        assert spec.singular_values[0] == 1.0
        assert np.all(spec.singular_values[1:] == 0.0)
        assert np.all(spec.clamped[1:])

    def test_identity_context_flat_spectrum(self):
        ctx = FiniteContext(np.eye(5), DiscreteDistribution.uniform(5),
                            same_support=True)
        spec = contexture_svd(ctx)
        assert np.allclose(spec.singular_values, 1.0, atol=1e-8)

    def test_two_state_channel(self, two_state):
        spec = contexture_svd(two_state)
        assert np.allclose(spec.singular_values, [1.0, 0.8])
        assert np.allclose(spec.left_functions[:, 1], [1.0, -1.0])
        assert np.allclose(spec.right_functions[:, 1], [1.0, -1.0])

    def test_constant_mode_and_orthonormality(self):
        ctx = random_context(3, 9, 7)
        spec = contexture_svd(ctx)
        p = ctx.input_marginal.weights
        q = ctx.context_marginal.weights
        assert np.allclose(spec.left_functions[:, 0], 1.0, atol=1e-8)
        assert np.allclose(spec.right_functions[:, 0], 1.0, atol=1e-8)
        gram_left = spec.left_functions.T @ (p[:, None] * spec.left_functions)
        gram_right = spec.right_functions.T @ (q[:, None] * spec.right_functions)
        assert np.allclose(gram_left, np.eye(spec.rank), atol=1e-10)
        assert np.allclose(gram_right, np.eye(spec.rank), atol=1e-10)

    def test_duality_both_directions(self):
        ctx = random_context(4, 10, 8)
        spec = contexture_svd(ctx)
        op = operator_matrices(ctx)
        p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
        for i in range(spec.rank):
            s = spec.singular_values[i]
            if s <= 1e-10:
                continue
            mu = spec.left_functions[:, i]
            nu = spec.right_functions[:, i]
            assert weighted_norm(mu - op.forward @ nu / s, p) < 1e-8
            assert weighted_norm(nu - op.adjoint @ mu / s, q) < 1e-8

    def test_rank_validation(self, two_state):
        with pytest.raises(ValueError):
            contexture_svd(two_state, rank=3)
        assert contexture_svd(two_state, rank=1).rank == 1

    def test_sign_convention(self):
        ctx = random_context(5, 8, 8)
        spec = contexture_svd(ctx)
        for i in range(1, spec.rank):
            col = spec.left_functions[:, i]
            assert col[np.argmax(np.abs(col))] > 0


class TestApplyOperator:
    def test_stochastic_rows_preserve_ones(self, two_state):
        op = operator_matrices(two_state)
        assert np.allclose(apply_operator(op, "forward", np.ones(2)), 1.0)
        assert np.allclose(apply_operator(op, "adjoint", np.ones(2)), 1.0)

    def test_duality_application(self, two_state):
        spec = contexture_svd(two_state)
        op = operator_matrices(two_state)
        nu1 = spec.right_functions[:, 1]
        mu1 = spec.left_functions[:, 1]
        assert np.allclose(apply_operator(op, "forward", nu1), 0.8 * mu1)

    def test_adjoint_then_forward_scales_by_squared_value(self, two_state):
        spec = contexture_svd(two_state)
        op = operator_matrices(two_state)
        mu1 = spec.left_functions[:, 1]
        roundtrip = apply_operator(op, "forward",
                                   apply_operator(op, "adjoint", mu1))
        assert np.allclose(roundtrip, 0.64 * mu1)

    def test_dimension_mismatch(self, two_state):
        op = operator_matrices(two_state)
        with pytest.raises(ValueError):
            apply_operator(op, "forward", np.ones(3))


class TestReconstructJoint:
    def test_independent_rank_one(self, independent_context):
        spec = contexture_svd(independent_context, rank=1)
        p = independent_context.input_marginal.weights
        q = independent_context.context_marginal.weights
        assert np.allclose(reconstruct_joint(spec), np.outer(p, q))

    def test_channel_exact(self, two_state):
        spec = contexture_svd(two_state)
        joint = 0.5 * two_state.conditional
        assert np.max(np.abs(reconstruct_joint(spec) - joint)) < 1e-12

    def test_rank_one_truncation_gives_product(self):
        ctx = random_context(6, 7, 5)
        spec = contexture_svd(ctx, rank=1)
        p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
        assert np.allclose(reconstruct_joint(spec), np.outer(p, q))

    def test_full_rank_exact_random(self):
        ctx = random_context(7, 9, 6)
        spec = contexture_svd(ctx)
        joint = ctx.input_marginal.weights[:, None] * ctx.conditional
        assert np.max(np.abs(reconstruct_joint(spec) - joint)) < 1e-8


class TestSpectrumInvariants:
    def test_jensen_bound_and_trace_identity(self):
        for seed in range(5):
            ctx = random_context(seed + 10, 11, 9)
            spec = contexture_svd(ctx)
            assert np.max(spec.singular_values) <= 1.0 + 1e-10
            kx = dual_kernel(ctx)
            p = ctx.input_marginal.weights
            assert abs(np.sum(spec.singular_values ** 2)
                       - float(p @ np.diag(kx))) < 1e-8

    def test_eigen_consistency(self):
        ctx = random_context(20, 8, 8)
        spec = contexture_svd(ctx)
        p = ctx.input_marginal.weights
        kx = dual_kernel(ctx)
        lam = spec.singular_values ** 2
        resid = kx @ (p[:, None] * spec.left_functions) - spec.left_functions * lam
        for i in range(spec.rank):
            assert weighted_norm(resid[:, i], p) < 1e-8


class TestSerialization:
    def test_round_trip(self, tmp_path, two_state):
        spec = contexture_svd(two_state)
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert np.array_equal(loaded.singular_values, spec.singular_values)
        assert np.array_equal(loaded.left_functions, spec.left_functions)
        assert np.array_equal(loaded.right_functions, spec.right_functions)

    def test_clamped_survives_round_trip_at_tolerance(self, tmp_path, two_state):
        spec = dataclasses.replace(contexture_svd(two_state),
                                   singular_values=np.array([1.0, CLAMP_TOL]))
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert spec.clamped.tolist() == [False, False]
        assert np.array_equal(loaded.clamped, spec.clamped)

    def test_schema_fields(self, tmp_path, two_state):
        path = tmp_path / "spec.json"
        save_spectrum(contexture_svd(two_state), path, estimated=True, m=2)
        data = json.loads(path.read_text())
        assert set(data) == {"singular_values", "left", "right", "p_x", "p_a",
                             "estimated", "m"}
        assert data["estimated"] is True and data["m"] == 2
