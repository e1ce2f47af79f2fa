import base64
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from contexture import (DiscreteDistribution, FiniteContext, PointSet,
                        SampleEncoder, adjoint_matrix, build_knn_context,
                        build_label_context, build_masked_context,
                        build_rbf_context, contexture_svd, dual_kernel,
                        estimate_covariances, load_spectrum,
                        positive_pair_kernel, reconstruct_joint,
                        save_spectrum, spectral, verify, verify_theorems)
from contexture._linalg import fix_signs, weighted_norm
from contexture.spectral import (CLAMP_TOL, GRAM_EIG_REL_FLOOR,
                                GRAM_RANK_DIVISOR, RITZ_RESIDUAL_TOL,
                                ContextureSpectrum, singular_residuals)

# backward error of the dense SVD oracle, about n * eps * |W|: what Wedin's
# bound grants a certified rank-r spectrum over the dense one
SVD_ETA = 1e-13


def random_context(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m) * 0.7, size=n)
    return FiniteContext(rows, DiscreteDistribution(rng.dirichlet(np.ones(n) * 5)))


# a spectrum file written before left/right were packed, by save_spectrum on
# list_format_context()
LIST_FORMAT_FILE = Path(__file__).parent / "data" / "spectrum-list-format.json"


def list_format_context():
    counts = np.arange(1, 21, dtype=float).reshape(5, 4) % 7 + 1
    return FiniteContext(counts / counts.sum(axis=1, keepdims=True),
                         DiscreteDistribution(np.arange(1.0, 6.0)))


def unpack(text, rows):
    """A packed matrix field as float64, read from its documented form."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(rows, -1)


def pack(matrix):
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode()


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]))


@st.composite
def spectra(draw):
    """A spectrum of arbitrary finite entries: n inputs, m contexts, r values."""
    n, m, r = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values, left, right = (
        np.array(draw(st.lists(finite_floats, min_size=size, max_size=size)))
        for size in (r, n * r, m * r))
    return ContextureSpectrum(values, left.reshape(n, r), right.reshape(m, r),
                              DiscreteDistribution.uniform(n),
                              DiscreteDistribution.uniform(m))


class TestOperatorMatrices:
    def test_independent_context(self, independent_context):
        assert np.allclose(independent_context.conditional,
                           np.tile([0.2, 0.3, 0.5], (4, 1)))
        assert np.allclose(adjoint_matrix(independent_context),
                           np.tile(0.25, (3, 4)))

    def test_identity_context(self, identity_context):
        assert np.allclose(identity_context.conditional, np.eye(2))
        assert np.allclose(adjoint_matrix(identity_context), np.eye(2))

    def test_channel_adjoint_is_symmetric_case(self, two_state):
        # uniform marginals and symmetric conditional: Bayes gives Q back
        assert np.allclose(adjoint_matrix(two_state), two_state.conditional)

    def test_adjoint_identity_random_probes(self):
        ctx = random_context(0, 7, 5)
        adj = adjoint_matrix(ctx)
        rng = np.random.default_rng(1)
        p = ctx.input_marginal.weights
        q = ctx.context_marginal.weights
        for _ in range(20):
            f, g = rng.standard_normal(7), rng.standard_normal(5)
            lhs = float(p @ (f * (ctx.conditional @ g)))
            rhs = float(q @ ((adj @ f) * g))
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
        adj = adjoint_matrix(ctx)
        p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
        for i in range(spec.rank):
            s = spec.singular_values[i]
            if s <= 1e-10:
                continue
            mu = spec.left_functions[:, i]
            nu = spec.right_functions[:, i]
            assert weighted_norm(mu - ctx.conditional @ nu / s, p) < 1e-8
            assert weighted_norm(nu - adj @ mu / s, q) < 1e-8

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
        assert np.allclose(two_state.conditional @ np.ones(2), 1.0)
        assert np.allclose(adjoint_matrix(two_state) @ np.ones(2), 1.0)

    def test_duality_application(self, two_state):
        spec = contexture_svd(two_state)
        nu1 = spec.right_functions[:, 1]
        mu1 = spec.left_functions[:, 1]
        assert np.allclose(two_state.conditional @ nu1, 0.8 * mu1)

    def test_adjoint_then_forward_scales_by_squared_value(self, two_state):
        spec = contexture_svd(two_state)
        mu1 = spec.left_functions[:, 1]
        roundtrip = two_state.conditional @ (adjoint_matrix(two_state) @ mu1)
        assert np.allclose(roundtrip, 0.64 * mu1)


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

    def test_saved_bytes_equal_json_dump(self, tmp_path):
        # the C encoder behind json.dumps writes what json.dump wrote
        spec = contexture_svd(random_context(7, 60, 50))
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        old = io.StringIO()
        json.dump(spec.to_json_dict(), old)
        old.write("\n")
        assert path.read_bytes() == old.getvalue().encode()

    def test_schema_fields(self, tmp_path, two_state):
        path = tmp_path / "spec.json"
        save_spectrum(contexture_svd(two_state), path)
        data = json.loads(path.read_text())
        assert set(data) == {"singular_values", "left", "right", "p_x", "p_a"}

    def test_packed_fields_hold_little_endian_float64_bytes(self, two_state):
        spec = contexture_svd(two_state)
        data = spec.to_json_dict()
        for key in ("singular_values", "p_x", "p_a"):
            assert isinstance(data[key], list)
        assert np.array_equal(unpack(data["left"], 2), spec.left_functions)
        assert np.array_equal(unpack(data["right"], 2), spec.right_functions)

    @pytest.mark.parametrize("field, row", [("singular_values", None),
                                            ("left", 0), ("right", 1)])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, two_state, field, row, bad):
        data = contexture_svd(two_state).to_json_dict()
        if row is None:
            data[field][-1] = bad
        else:  # through the packed encoding
            matrix = unpack(data[field], 2).copy()
            matrix[row, -1] = bad
            data[field] = pack(matrix)
        with pytest.raises(ValueError, match="finite"):
            ContextureSpectrum.from_json_dict(data)

    def test_non_finite_entry_in_nested_list_rejected(self, two_state):
        spec = contexture_svd(two_state)
        data = spec.to_json_dict()
        data["left"] = spec.left_functions.tolist()
        data["left"][1][-1] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            ContextureSpectrum.from_json_dict(data)

    @pytest.mark.parametrize("field", ["left", "right"])
    @pytest.mark.parametrize("bad, match", [
        ("not base64!", "not base64"),
        ("AAAA", "holds 3 bytes.*need 32"),
        (pack(np.zeros(3)), "holds 24 bytes.*need 32"),
        (17, "got int"),
        (None, "got NoneType"),
        ({"data": ""}, "got dict"),
        ([["a", "b"], ["c", "d"]], "not a matrix of numbers"),
        ([[1.0, 2.0], [3.0]], "not a matrix of numbers"),
    ], ids=["alphabet", "short", "one-value-short", "int", "null", "object",
            "strings", "ragged"])
    def test_malformed_matrix_field_names_the_field(self, two_state, field,
                                                    bad, match):
        data = contexture_svd(two_state).to_json_dict()
        data[field] = bad
        with pytest.raises(ValueError, match=f"{field!r}.*{match}"):
            ContextureSpectrum.from_json_dict(data)

    @pytest.mark.parametrize("field", ["singular_values", "p_x", "p_a"])
    @pytest.mark.parametrize("bad, match", [
        ({"a": 1}, "got dict"),
        (None, "got NoneType"),
        ("abc", "got str"),
        (["a", 1.0], "not a list of numbers"),
    ], ids=["object", "null", "string", "strings"])
    def test_malformed_list_field_names_the_field(self, two_state, field,
                                                  bad, match):
        data = contexture_svd(two_state).to_json_dict()
        data[field] = bad
        with pytest.raises(ValueError, match=f"{field!r}.*{match}"):
            ContextureSpectrum.from_json_dict(data)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=spectra())
    @example(spec=ContextureSpectrum(
        np.array([1.7e308]), np.array([[-0.0], [5e-324], [-1.7e308]]),
        np.array([[2.2e-308]]), DiscreteDistribution.uniform(3),
        DiscreteDistribution.uniform(1)))
    def test_save_load_keeps_every_bit(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        for field in ("singular_values", "left_functions", "right_functions"):
            got, want = getattr(loaded, field), getattr(spec, field)
            assert got.shape == want.shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here

    def test_list_format_file_loads(self, tmp_path):
        saved = json.loads(LIST_FORMAT_FILE.read_text())
        assert isinstance(saved["left"], list)
        loaded = load_spectrum(LIST_FORMAT_FILE)
        assert np.array_equal(loaded.left_functions, saved["left"])
        assert np.array_equal(loaded.right_functions, saved["right"])
        # the file holds exactly what contexture_svd returns; across LAPACK
        # builds the fresh result may move by roundoff
        fresh = contexture_svd(list_format_context())
        for field in ("singular_values", "left_functions", "right_functions"):
            np.testing.assert_allclose(getattr(loaded, field),
                                       getattr(fresh, field),
                                       rtol=0, atol=1e-13)
        assert np.array_equal(loaded.input_marginal.weights,
                              fresh.input_marginal.weights)
        # written again, it is packed and keeps every bit
        path = tmp_path / "spec.json"
        save_spectrum(loaded, path)
        assert isinstance(json.loads(path.read_text())["left"], str)
        again = load_spectrum(path)
        assert np.array_equal(again.left_functions, loaded.left_functions)
        assert np.array_equal(again.right_functions, loaded.right_functions)

    @pytest.mark.parametrize("field, shape", [
        ("singular_values", (3,)), ("singular_values", (1, 2)),
        ("left", (2, 1)), ("left", (3, 2)), ("right", (2, 3)), ("right", (1, 2))])
    def test_function_shapes_must_match_values_and_marginals(
            self, two_state, field, shape):
        # two_state: 2 values, 2 input and 2 context points
        data = contexture_svd(two_state).to_json_dict()
        data[field] = np.full(shape, 0.5).tolist()
        with pytest.raises(ValueError, match="shape|values"):
            ContextureSpectrum.from_json_dict(data)

    @pytest.mark.parametrize("make", [
        lambda: build_rbf_context(PointSet(
            np.random.default_rng(0).standard_normal((1000, 3))), 0.5),
        lambda: build_rbf_context(PointSet(
            np.random.default_rng(1).standard_normal((7, 2))), 0.5),
        lambda: verify.random_graph_context(np.random.default_rng(2), 15),
    ], ids=["uniform-1000", "uniform-7", "graph-degrees"])
    def test_marginals_keep_their_bits(self, tmp_path, make):
        # a second division by the sum of saved weights moves the uniform
        # marginal at 7 and at 1000 points by an ulp
        ctx = make()
        spec = contexture_svd(ctx, rank=3)
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert np.array_equal(loaded.input_marginal.weights,
                              ctx.input_marginal.weights)
        assert np.array_equal(loaded.context_marginal.weights,
                              ctx.context_marginal.weights)
        enc = SampleEncoder(loaded.left_functions[:, 1:], "input",
                            loaded.input_marginal)
        estimate_covariances(enc, ctx)

    def test_unnormalised_saved_marginal_is_normalised(self, two_state):
        data = contexture_svd(two_state).to_json_dict()
        data["p_x"] = [1.0, 3.0]
        loaded = ContextureSpectrum.from_json_dict(data)
        assert loaded.input_marginal.weights.tolist() == [0.25, 0.75]
        data["p_x"] = [1.0, -1.0]
        with pytest.raises(ValueError, match="non-negative"):
            ContextureSpectrum.from_json_dict(data)

    def test_truncated_spectrum_round_trips(self):
        # fewer value columns than points, and 9 inputs against 6 contexts
        spec = contexture_svd(random_context(3, 9, 6), rank=4)
        back = ContextureSpectrum.from_json_dict(spec.to_json_dict())
        for field in ("singular_values", "left_functions", "right_functions"):
            assert np.array_equal(getattr(back, field), getattr(spec, field))


# ---------------------------------------------------------------------------
# the certified Gram route of a rank-r request, against the dense oracle
# ---------------------------------------------------------------------------

def svd_with_route(ctx, rank):
    """``contexture_svd(ctx, rank)`` and the routes it took: one entry per
    Gram attempt, True if it was certified."""
    routes = []
    attempt = spectral._certified_ritz_triplets

    def recording(*args):
        got = attempt(*args)
        routes.append(got is not None)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_certified_ritz_triplets", recording)
        return contexture_svd(ctx, rank=rank), routes


def assert_matches_dense(ctx, spec, certified):
    """A rank-r spectrum against the rank-free dense SVD.

    A fallback is the dense result itself. For a certified one, Wedin's
    bound turns the residual certificate into the checks: each value within
    it of the dense one, the duality residual within it on both sides, and
    at every cut d the sine of the angle between the top-d left spans times
    the gap s_d - s_(d+1) within it; both sides are orthonormal to it too.
    The dense SVD's own error is at roundoff level besides.
    """
    dense = contexture_svd(ctx)
    r = spec.rank
    if not certified:
        assert np.array_equal(spec.singular_values, dense.singular_values[:r])
        assert np.array_equal(spec.left_functions, dense.left_functions[:, :r])
        assert np.array_equal(spec.right_functions, dense.right_functions[:, :r])
        return
    p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
    assert np.all(np.abs(spec.singular_values - dense.singular_values[:r])
                  <= SVD_ETA)
    for funcs, w in ((spec.left_functions, p), (spec.right_functions, q)):
        gram = funcs.T @ (w[:, None] * funcs)
        assert np.max(np.abs(gram - np.eye(r))) <= SVD_ETA
    s = spec.singular_values
    forward = ctx.conditional @ spec.right_functions - spec.left_functions * s
    backward = adjoint_matrix(ctx) @ spec.left_functions - spec.right_functions * s
    for i in range(1, r):
        assert weighted_norm(forward[:, i], p) <= SVD_ETA
        assert weighted_norm(backward[:, i], q) <= SVD_ETA
    a = np.sqrt(p)[:, None] * spec.left_functions[:, 1:]
    b = np.sqrt(p)[:, None] * dense.left_functions[:, 1:r]
    values = dense.nontrivial_values
    for d in range(1, r):
        sine = np.linalg.norm(a[:, :d] - b[:, :d] @ (b[:, :d].T @ a[:, :d]), 2)
        assert sine * (values[d - 1] - values[d]) <= SVD_ETA


def request_rank(data, ctx, lowest=2):
    full = min(ctx.conditional.shape)
    return data.draw(st.integers(lowest, full // GRAM_RANK_DIVISOR), label="rank")


def deflated_operator(ctx):
    """The whitened conditional matrix minus its constant pair, and the
    square roots of the two marginals."""
    sp = np.sqrt(ctx.input_marginal.weights)
    sq = np.sqrt(ctx.context_marginal.weights)
    w = sp[:, None] * ctx.conditional / sq[None, :]
    w -= np.outer(sp, sq)
    return w, sp, sq


def direct_ritz_triplets(w, keep, null_left, null_right):
    """The Gram route written directly: W kept throughout, and ``eigh`` of
    the symmetrised copy 0.5 (G + G^T) of its smaller Gram matrix G."""
    tall = w.shape[0] > w.shape[1]
    if tall:
        w, null_left, null_right = w.T, null_right, null_left
    gram = w @ w.T
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    evals = evals[::-1][:keep]
    basis = np.ascontiguousarray(evecs[:, ::-1][:, :keep])
    if not evals[-1] > GRAM_EIG_REL_FLOOR * evals[0]:
        return None
    basis -= np.outer(null_left, null_left @ basis)
    core = basis.T @ w
    core -= np.outer(core @ null_right, null_right)
    rot, s, vt = np.linalg.svd(core, full_matrices=False)
    u, v = basis @ rot, vt.T
    if np.any(np.linalg.norm(w @ v - u * s, axis=0) > RITZ_RESIDUAL_TOL):
        return None
    return (v, s, u) if tall else (u, s, v)


def full_matrices_spectrum(ctx):
    """The dense route through ``np.linalg.svd(W)`` with its default
    ``full_matrices=True``: max(n, m) singular vectors on the longer side,
    of which min(n, m) - 1 are kept."""
    w, sp, sq = deflated_operator(ctx)
    u, s, vt = np.linalg.svd(w)
    keep = min(w.shape) - 1
    values = np.concatenate(([1.0], s[:keep]))
    left = np.concatenate((sp[:, None], u[:, :keep]), axis=1) / sp[:, None]
    right = np.concatenate((sq[:, None], vt[:keep].T), axis=1) / sq[:, None]
    fix_signs(left, right)
    return ContextureSpectrum(np.where(values < CLAMP_TOL, 0.0, values), left,
                              right, ctx.input_marginal, ctx.context_marginal)


def function_errors(spec, ctx):
    """The largest orthonormality error of a spectrum's functions (both
    sides) and the largest weighted duality residual of its columns."""
    p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
    ortho = max(np.max(np.abs(f.T @ (w[:, None] * f) - np.eye(spec.rank)))
                for f, w in ((spec.left_functions, p), (spec.right_functions, q)))
    s = spec.singular_values
    forward = ctx.conditional @ spec.right_functions - spec.left_functions * s
    backward = adjoint_matrix(ctx) @ spec.left_functions - spec.right_functions * s
    residual = max(max(weighted_norm(forward[:, i], p),
                       weighted_norm(backward[:, i], q)) for i in range(spec.rank))
    return ortho, residual


def assert_orthonormal_singular_system(spec, ctx):
    """Both sides' functions orthonormal, clamped columns included, and every
    duality residual of ``singular_residuals`` at most 1e-12."""
    assert function_errors(spec, ctx)[0] <= 1e-12
    assert max(np.max(r) for r in singular_residuals(spec, ctx)) <= 1e-12


def assert_thin_matches_full(ctx, spec, full):
    """A thin dense spectrum against the ``full_matrices=True`` one.

    Values are bitwise equal. The functions of a value clamped to zero are
    any vectors of W's null space, which holds the deflated constant too,
    so only the unclamped columns are compared: orthonormality and duality
    residual no worse than the full SVD's own by more than ``SVD_ETA``
    (both degrade as a value nears zero), and at every cut d the sine of
    the angle between the top-d left spans times the gap s_d - s_(d+1)
    within ``SVD_ETA``, a clamped or missing next value counting as zero.
    """
    assert np.array_equal(spec.singular_values, full.singular_values)
    r = np.count_nonzero(~spec.clamped)

    def leading(sp):
        return dataclasses.replace(
            sp, singular_values=sp.singular_values[:r],
            left_functions=sp.left_functions[:, :r],
            right_functions=sp.right_functions[:, :r])

    got, ref = function_errors(leading(spec), ctx), function_errors(leading(full), ctx)
    assert all(g <= e + SVD_ETA for g, e in zip(got, ref))
    sp = np.sqrt(ctx.input_marginal.weights)[:, None]
    a, b = sp * spec.left_functions[:, 1:r], sp * full.left_functions[:, 1:r]
    values = np.append(full.nontrivial_values[:r - 1], 0.0)
    for d in range(1, r):
        sine = np.linalg.norm(a[:, :d] - b[:, :d] @ (b[:, :d].T @ a[:, :d]), 2)
        assert sine * (values[d - 1] - values[d]) <= SVD_ETA


def traced_peak(func, *args, **kwargs):
    """Peak bytes numpy allocates in ``func(*args, **kwargs)``, measured on
    a second call so one-time allocations are not counted. LAPACK's own
    workspaces and input copies are not traced."""
    func(*args, **kwargs)
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drawn_context(kind, seed, data):
    """A context of one of the kinds the spectrum routes must agree on:
    ``tall`` or ``wide`` dense Dirichlet rows, points with ``duplicates``
    under a kNN or RBF context, a ``disconnected`` kNN graph, or a
    ``near_independent`` one, whose rows all lie near one distribution."""
    rng = np.random.default_rng(seed)
    if kind == "near_independent":
        n = data.draw(st.integers(8, 160), label="n")
        m = data.draw(st.integers(8, 160), label="m")
        return verify._perturbation_context(rng, n, m)
    if kind in ("tall", "wide"):
        side = data.draw(st.integers(8, 160), label="side")
        n, m = side + data.draw(st.integers(1, 60), label="extra"), side
        if kind == "wide":
            n, m = m, n
        alpha = data.draw(st.sampled_from([0.05, 0.3, 2.0]), label="alpha")
        return FiniteContext(rng.dirichlet(np.full(m, alpha), size=n),
                             DiscreteDistribution(rng.dirichlet(np.ones(n))))
    if kind == "duplicates":
        size = data.draw(st.integers(8, 150), label="size")
        copies = data.draw(st.integers(1, 60), label="copies")
        base = rng.standard_normal((size, 2))
        points = PointSet(np.concatenate([base, base[rng.integers(0, size, copies)]]))
        if data.draw(st.booleans(), label="knn"):
            return build_knn_context(points, 5)
        return build_rbf_context(points, 1.0)
    clusters = data.draw(st.integers(2, 4), label="clusters")
    size = data.draw(st.integers(10, 60), label="size")
    points = np.concatenate([rng.standard_normal((size, 2)) + 1e3 * c
                             for c in range(clusters)])
    return build_knn_context(PointSet(points), data.draw(st.integers(1, 6),
                                                          label="k"))


class TestGramRoute:
    @settings(max_examples=12, deadline=None)
    @given(tall=st.booleans(), side=st.integers(8, 256), extra=st.integers(0, 60),
           alpha=st.sampled_from([0.05, 0.3, 2.0]), dirichlet=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_dense_context_either_orientation(self, tall, side, extra, alpha,
                                              dirichlet, seed, data):
        rng = np.random.default_rng(seed)
        n, m = side + extra, side
        if not tall:
            n, m = m, n
        marginal = (DiscreteDistribution(rng.dirichlet(np.ones(n)))
                    if dirichlet else DiscreteDistribution.uniform(n))
        ctx = FiniteContext(rng.dirichlet(np.full(m, alpha), size=n), marginal)
        spec, routes = svd_with_route(ctx, request_rank(data, ctx))
        assert routes == [True]
        assert_matches_dense(ctx, spec, certified=True)

    @settings(max_examples=8, deadline=None)
    @given(clusters=st.integers(2, 4), k=st.integers(2, 8),
           size=st.integers(10, 128), seed=st.integers(0, 2 ** 31 - 1),
           data=st.data())
    def test_disconnected_knn_graph(self, clusters, k, size, seed, data):
        # far-apart clusters: s = 1 once for each component past the first
        rng = np.random.default_rng(seed)
        points = np.concatenate([rng.standard_normal((size, 2)) + 1e3 * c
                                 for c in range(clusters)])
        ctx = build_knn_context(PointSet(points), k)
        spec, routes = svd_with_route(ctx, request_rank(data, ctx, clusters + 1))
        assert routes == [True]
        assert np.all(np.abs(spec.singular_values[:clusters] - 1.0)
                      <= SVD_ETA)
        assert_matches_dense(ctx, spec, certified=True)

    @settings(max_examples=10, deadline=None)
    @given(knn=st.booleans(), size=st.integers(8, 300),
           copies=st.integers(1, 200), seed=st.integers(0, 2 ** 31 - 1),
           data=st.data())
    def test_duplicate_points(self, knn, size, copies, seed, data):
        # a kNN spectrum decays slowly and is certified; an RBF one with
        # duplicate rows is certified or falls back, by the rank asked for
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((size, 2))
        points = PointSet(np.concatenate(
            [base, base[rng.integers(0, len(base), copies)]]))
        ctx = (build_knn_context(points, 5) if knn
               else build_rbf_context(points, 1.0))
        spec, routes = svd_with_route(ctx, request_rank(data, ctx))
        if knn:
            assert routes == [True]
        assert_matches_dense(ctx, spec, certified=routes == [True])

    @settings(max_examples=10, deadline=None)
    @given(gamma=st.sampled_from([1e-4, 1e-3]), low=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_fast_decaying_rbf(self, gamma, low, seed, data):
        # s_1 is about gamma and the spectrum falls by orders per step, so
        # from rank 9 on s_8 / s_1 is far below sqrt(GRAM_EIG_REL_FLOOR) and
        # the request falls back; a low rank may still be certified
        rng = np.random.default_rng(seed)
        # a rank from 9 up needs 36 points; ranks 2 to 4 need 16
        size = data.draw(st.integers(16 if low else 36, 316), label="size")
        points = PointSet(rng.standard_normal((size, 2)))
        ctx = build_rbf_context(points, gamma)
        full = min(ctx.conditional.shape)
        rank = data.draw(st.integers(2, 4) if low
                         else st.integers(9, full // GRAM_RANK_DIVISOR), label="rank")
        spec, routes = svd_with_route(ctx, rank)
        if not low:
            assert routes == [False]
        assert_matches_dense(ctx, spec, certified=routes == [True])

    def test_smooth_rbf_certified_then_falls_back(self):
        # on a line the spectrum decays fast but smoothly: low ranks are
        # certified, and past about 12 the residual or the eigenvalue floor
        # sends the request to the dense SVD
        points = PointSet(np.random.default_rng(0).standard_normal((300, 1)))
        ctx = build_rbf_context(points, 1.0)
        taken = []
        for rank in range(2, 21):
            spec, routes = svd_with_route(ctx, rank)
            taken.append(routes == [True])
            assert_matches_dense(ctx, spec, certified=routes == [True])
        assert taken[:8] == [True] * 8 and taken[-1] is False

    def test_outside_the_gate_is_dense(self):
        # a rank above min(n, m) // GRAM_RANK_DIVISOR, and no rank at all
        ctx = random_context(9, 256, 256)
        for rank in (256 // GRAM_RANK_DIVISOR + 1, None):
            spec, routes = svd_with_route(ctx, rank)
            assert routes == []
            assert_matches_dense(ctx, spec, certified=False)

    def test_small_context_takes_the_route(self):
        ctx = random_context(8, 255, 266)
        spec, routes = svd_with_route(ctx, 4)
        assert routes == [True]
        assert_matches_dense(ctx, spec, certified=True)

    def test_near_independent_context(self):
        # every nontrivial value is of the order of the perturbation, 1e-3
        ctx = verify._perturbation_context(np.random.default_rng(5), 120, 90)
        spec, routes = svd_with_route(ctx, 12)
        assert routes == [True]
        assert np.all(spec.nontrivial_values < 1e-2)
        assert_matches_dense(ctx, spec, certified=True)

    def test_rank_one_keeps_nothing_and_equals_dense(self):
        # only the constant pair is kept, so no route is tried
        ctx = random_context(12, 24, 20)
        spec, routes = svd_with_route(ctx, 1)
        assert routes == []
        assert_matches_dense(ctx, spec, certified=False)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["tall", "wide", "duplicates", "disconnected",
                                 "near_independent"]),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_route_equals_the_direct_gram_route(self, kind, seed, data):
        # dropping W during eigh and the symmetrised copy of an exactly
        # symmetric Gram matrix changes no bit, certified or not
        ctx = drawn_context(kind, seed, data)
        # a kNN context drops the points no one picks as a neighbour
        assume(min(ctx.conditional.shape) >= 2 * GRAM_RANK_DIVISOR)
        keep = request_rank(data, ctx) - 1
        w, sp, sq = deflated_operator(ctx)
        expected = direct_ritz_triplets(w, keep, sp, sq)
        got = spectral._certified_ritz_triplets(ctx, keep, sp, sq)
        if expected is None:
            assert got is None
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_route_holds_few_square_arrays(self):
        # W while the Gram matrix G is formed, then G and the eigenvectors:
        # two n x n arrays at a time, where keeping W and a symmetrised
        # copy of G through eigh held four
        n = 400
        ctx = random_context(21, n, n)
        assert svd_with_route(ctx, 20)[1] == [True]
        assert traced_peak(contexture_svd, ctx, rank=20) <= 2.5 * n * n * 8

    def test_rank_one_decomposes_nothing(self, monkeypatch):
        ctx = random_context(13, 40, 30)
        dense = contexture_svd(ctx)

        def refuse(*args, **kwargs):
            raise AssertionError("a rank-1 spectrum needs no decomposition")

        monkeypatch.setattr(spectral.np.linalg, "eigh", refuse)
        monkeypatch.setattr(spectral.np.linalg, "svd", refuse)
        spec = contexture_svd(ctx, rank=1)
        assert spec.singular_values.tolist() == [1.0]
        for field in ("left_functions", "right_functions"):
            assert np.array_equal(getattr(spec, field), getattr(dense, field)[:, :1])


class TestDenseRoute:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["label", "knn", "random"]),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_thin_svd_matches_full_matrices(self, kind, seed, data):
        # label contexts are tall; a kNN context drops the points no one
        # picks as a neighbour, so it is tall too; random ones go both ways
        rng = np.random.default_rng(seed)
        if kind == "label":
            n = data.draw(st.integers(4, 300), label="n")
            labels = np.arange(n) % data.draw(st.integers(2, 8), label="classes")
            ctx = build_label_context(rng.permutation(labels))
        elif kind == "knn":
            points = PointSet(rng.standard_normal(
                (data.draw(st.integers(10, 200), label="n"), 2)))
            ctx = build_knn_context(points, data.draw(st.integers(1, 4),
                                                      label="k"))
        else:
            n = data.draw(st.integers(3, 120), label="n")
            m = data.draw(st.integers(3, 120).filter(lambda m: m != n),
                          label="m")
            ctx = FiniteContext(rng.dirichlet(np.full(m, 0.5), size=n),
                                DiscreteDistribution(rng.dirichlet(np.ones(n))))
        assert_thin_matches_full(ctx, contexture_svd(ctx),
                                 full_matrices_spectrum(ctx))

    def test_tall_label_context_keeps_the_full_svd_residual(self):
        # 272 rows, 5 classes: the thin left basis holds 1.5e-3 of the
        # constant, and reflecting it into that column alone gave column 3
        # a duality residual of 1.4e-13
        labels = np.arange(272) % 5
        ctx = build_label_context(
            np.random.default_rng(111832).permutation(labels))
        spec = contexture_svd(ctx)
        assert_thin_matches_full(ctx, spec, full_matrices_spectrum(ctx))
        assert_orthonormal_singular_system(spec, ctx)

    def test_clamped_columns_are_orthogonal_to_the_constants(self):
        # six points, each listed twice: six values clamp to zero, and the
        # SVD mixes the deflated constants into their columns
        points = PointSet(np.repeat(np.arange(6.0)[:, None], 2, axis=0))
        ctx = build_rbf_context(points, 0.5)
        spec = contexture_svd(ctx)
        assert np.count_nonzero(spec.clamped) == 6
        assert_orthonormal_singular_system(spec, ctx)

    @pytest.mark.parametrize("n, m", [(5, 8), (8, 5)])
    def test_clamped_columns_in_either_orientation(self, n, m):
        # every row and every column listed twice: a wide or a tall operator
        # with null vectors past the constants on both sides
        rng = np.random.default_rng(1)
        rows = np.repeat(rng.dirichlet(np.ones(m), size=n), 2, axis=0)
        ctx = FiniteContext(np.repeat(rows, 2, axis=1) / 2.0,
                            DiscreteDistribution(rng.dirichlet(np.ones(2 * n))))
        spec = contexture_svd(ctx)
        assert spec.clamped.any()
        assert_orthonormal_singular_system(spec, ctx)

    @settings(max_examples=30, deadline=None)
    @given(disconnected=st.booleans(), size=st.integers(6, 80),
           copies=st.integers(1, 60), k=st.integers(1, 6),
           seed=st.integers(0, 2 ** 31 - 1))
    # a last value of 1.9e-5: an unclamped column near the null space
    @example(disconnected=True, size=49, copies=1, k=5, seed=91)
    def test_knn_null_spaces_keep_an_orthonormal_system(self, disconnected,
                                                        size, copies, k, seed):
        rng = np.random.default_rng(seed)
        if disconnected:
            points = np.concatenate([rng.standard_normal((size, 2)) + 1e3 * c
                                     for c in range(3)])
        else:
            base = rng.standard_normal((size, 2))
            points = np.concatenate([base, base[rng.integers(0, size, copies)]])
        ctx = build_knn_context(PointSet(points), k)
        assert_orthonormal_singular_system(contexture_svd(ctx), ctx)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), size=st.integers(6, 80),
           log_gamma=st.floats(-2.0, 2.0))
    # values just above CLAMP_TOL, whose columns the SVD leaves about
    # eps / s off orthogonal to the constants
    @example(seed=27, size=40, log_gamma=0.0)
    def test_duplicate_point_rbf_columns_are_orthogonal_to_the_constants(
            self, seed, size, log_gamma):
        base = np.random.default_rng(seed).standard_normal((size, 2))
        ctx = build_rbf_context(PointSet(np.concatenate([base, base[:5]])),
                                10.0 ** log_gamma)
        spec = contexture_svd(ctx)
        for f, w in ((spec.left_functions, ctx.input_marginal.weights),
                     (spec.right_functions, ctx.context_marginal.weights)):
            assert np.max(np.abs(w @ f[:, 1:])) <= 1e-14
        assert function_errors(spec, ctx)[0] <= 1e-12
        for r in singular_residuals(spec, ctx):
            assert np.max(r[~spec.clamped], initial=0.0) <= 1e-12
            assert np.max(r[spec.clamped], initial=0.0) <= CLAMP_TOL

    def test_tall_context_allocates_no_square_array(self):
        # a 3000-point label context has 3 classes: the thin SVD forms no
        # 3000 x 3000 singular-vector matrix
        n = 3000
        ctx = build_label_context(np.arange(n) % 3)
        assert traced_peak(contexture_svd, ctx) <= 0.1 * n * n * 8


# ---------------------------------------------------------------------------
# the duality residuals of a singular system, and verify's check on them
# ---------------------------------------------------------------------------

def looped_residuals(spec, ctx):
    """Per-column |T nu - s mu|_p and |A mu - s nu|_q, one column at a time."""
    adj = adjoint_matrix(ctx)
    p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
    forward, backward = [], []
    for mu, s, nu in zip(spec.left_functions.T, spec.singular_values,
                         spec.right_functions.T):
        forward.append(weighted_norm(ctx.conditional @ nu - s * mu, p))
        backward.append(weighted_norm(adj @ mu - s * nu, q))
    return np.array(forward), np.array(backward)


def residual_contexts():
    rng = np.random.default_rng(11)
    # each point listed twice: half the masked context's values clamp to 0
    points = PointSet(np.repeat(rng.standard_normal((15, 4)), 2, axis=0))
    return {"dense": random_context(10, 12, 9),
            "graph": verify.random_graph_context(rng, 15),
            "masked": build_masked_context(points, ("rbf", 0.5), 0.25, 4, 3),
            "label": build_label_context(rng.integers(0, 4, size=20))}


def duality_check(n, m, seed, mutate=None):
    """verify's ``singular_duality`` on one trial, with every spectrum it
    takes passed through ``mutate`` first."""
    svd = verify.contexture_svd
    with pytest.MonkeyPatch.context() as mp:
        if mutate is not None:
            rng = np.random.default_rng(seed)
            mp.setattr(verify, "contexture_svd", lambda ctx: mutate(svd(ctx), rng))
        checks = verify.spectral_checks(np.random.default_rng(seed), n, m, 1)
    return next(c for c in checks if c["name"] == "singular_duality")


def smallest_kept(spec):
    """The column of the smallest value at least 1e-3."""
    return int(np.flatnonzero(spec.singular_values >= 1e-3)[-1])


def flip_one_side(spec, rng):
    left = spec.left_functions.copy()
    left[:, smallest_kept(spec)] *= -1.0
    return dataclasses.replace(spec, left_functions=left)


def perturb_one_vector(side):
    def mutate(spec, rng):
        funcs = getattr(spec, side).copy()
        col = funcs[:, smallest_kept(spec)]
        noise = rng.standard_normal(col.size)
        col += 1e-6 * np.linalg.norm(col) / np.linalg.norm(noise) * noise
        return dataclasses.replace(spec, **{side: funcs})
    return mutate


def swap_two_columns(spec, rng):
    right = spec.right_functions.copy()
    right[:, [1, 2]] = right[:, [2, 1]]
    return dataclasses.replace(spec, right_functions=right)


class TestSingularResiduals:
    @pytest.mark.parametrize("kind", ["dense", "graph", "masked", "label"])
    def test_equal_to_a_per_column_loop(self, kind):
        ctx = residual_contexts()[kind]
        spec = contexture_svd(ctx)
        got = singular_residuals(spec, ctx)
        for residual, looped in zip(got, looped_residuals(spec, ctx)):
            assert residual.shape == (spec.rank,)
            assert np.allclose(residual, looped, rtol=0.0, atol=1e-14)
        # functions that are not singular: residuals of order one, which
        # the loop must match to roundoff in every column, clamped or not
        rng = np.random.default_rng(2)
        wrong = dataclasses.replace(
            spec, left_functions=rng.standard_normal(spec.left_functions.shape),
            right_functions=rng.standard_normal(spec.right_functions.shape))
        for residual, looped in zip(singular_residuals(wrong, ctx),
                                    looped_residuals(wrong, ctx)):
            assert np.allclose(residual, looped, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mutate", [
        flip_one_side, perturb_one_vector("left_functions"),
        perturb_one_vector("right_functions"), swap_two_columns],
        ids=["flip", "perturb_left", "perturb_right", "swap"])
    @pytest.mark.parametrize("n, m", [(24, 20), (80, 80)])
    @pytest.mark.parametrize("seed", range(4))
    def test_singular_duality_fails_a_mutated_spectrum(self, mutate, n, m, seed):
        assert duality_check(n, m, seed)["passed"]
        check = duality_check(n, m, seed, mutate)
        assert check["max_residual"] > check["tolerance"] == 1e-8

    @pytest.mark.parametrize("seed", [0, 3])
    def test_singular_duality_passes_at_80_for_small_values(self, seed):
        # both draws hold a value near 3e-5, where dividing the residual by
        # s gave 1.6e-7 and 2.7e-8 against the 1e-8 tolerance
        checks = verify_theorems(n=80, m=80, trials=3, seed=seed)["checks"]
        duality = next(c for c in checks if c["name"] == "singular_duality")
        assert duality["passed"], duality
