import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contexture import (CovariancePair, DiscreteDistribution, FiniteContext,
                        NumericalError, PointSet, SampleEncoder,
                        build_rbf_context, contexture_svd,
                        estimate_covariances, estimate_spectrum_posthoc,
                        subsample_support)
from contexture._linalg import fix_signs, principal_angle_cosines, weighted_norm
from contexture.estimation import _hop
from contexture.spectral import adjoint_matrix
from contexture.verify import random_graph_context


def dense_context(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m) * 0.5, size=n)
    return FiniteContext(rows, DiscreteDistribution.uniform(n))


def top_encoder(ctx, d, mixer=None):
    spec = contexture_svd(ctx)
    values = spec.left_functions[:, 1:d + 1]
    if mixer is not None:
        values = values @ mixer
    return SampleEncoder(values, "input", ctx.input_marginal), spec


class TestEstimateCovariances:
    def test_exact_on_singular_functions(self):
        ctx = dense_context(0, 10, 8)
        enc, spec = top_encoder(ctx, 2)
        cov = estimate_covariances(enc, ctx)
        assert np.allclose(cov.c_phi, np.eye(2), atol=1e-10)
        assert np.allclose(cov.b_phi,
                           np.diag(spec.nontrivial_values[:2] ** 2),
                           atol=1e-10)

    def test_independent_context_annihilates(self, independent_context):
        rng = np.random.default_rng(1)
        enc = SampleEncoder(rng.standard_normal((4, 2)), "input",
                            independent_context.input_marginal)
        cov = estimate_covariances(enc, independent_context)
        assert np.max(np.abs(cov.b_phi)) < 1e-12

    def test_pair_sampled_converges(self, two_state):
        spec = contexture_svd(two_state)
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            two_state.input_marginal)
        cov = estimate_covariances(enc, two_state, mode="pair_sampled",
                                   n_pairs=100_000, seed=7)
        assert cov.mode == "pair_sampled"
        assert cov.n_pairs == 100_000
        assert abs(cov.b_phi[0, 0] - 0.64) < 0.01

    def test_pair_sampled_seeded_and_validated(self, two_state):
        spec = contexture_svd(two_state)
        enc = SampleEncoder(spec.left_functions[:, 1:2], "input",
                            two_state.input_marginal)
        a = estimate_covariances(enc, two_state, "pair_sampled", 500, seed=3)
        b = estimate_covariances(enc, two_state, "pair_sampled", 500, seed=3)
        assert np.array_equal(a.b_phi, b.b_phi)
        with pytest.raises(ValueError):
            estimate_covariances(enc, two_state, "pair_sampled", 0)

    def test_encoder_marginal_must_be_the_input_marginal(self):
        # a graph context's input marginal is its degree distribution; an
        # encoder loaded without one is weighted uniformly, and centring
        # the pair under two weightings would skew the eigenvalues
        ctx = random_graph_context(np.random.default_rng(0), 30)
        values = contexture_svd(ctx).left_functions[:, 1:4] + 0.5
        uniform = SampleEncoder(values, "input", DiscreteDistribution.uniform(30))
        for mode, n_pairs in (("exact", 0), ("pair_sampled", 100)):
            with pytest.raises(ValueError, match="input marginal"):
                estimate_covariances(uniform, ctx, mode, n_pairs)
        enc = SampleEncoder(values, "input", ctx.input_marginal)
        evals, _ = estimate_spectrum_posthoc(enc, estimate_covariances(enc, ctx), 3)
        assert np.allclose(evals, contexture_svd(ctx).nontrivial_values[:3] ** 2,
                           atol=1e-10)

    def test_psd_order_validated_in_exact_mode(self):
        with pytest.raises(ValueError, match="PSD order"):
            CovariancePair(c_phi=np.eye(2), b_phi=2 * np.eye(2), mode="exact")


def per_key_draws(ctx, n_pairs, seed):
    """The pair-sampled chain starts and ends drawn group by group: one
    scan of all pairs per distinct key, drawing in ascending key order."""
    adj = adjoint_matrix(ctx)
    rng = np.random.default_rng(seed)
    xs = rng.choice(ctx.n_inputs, size=n_pairs, p=ctx.input_marginal.weights)
    mids = np.empty(n_pairs, dtype=int)
    for x in np.unique(xs):
        where = np.nonzero(xs == x)[0]
        mids[where] = rng.choice(ctx.n_context, size=where.size,
                                 p=ctx.conditional[x])
    ends = np.empty(n_pairs, dtype=int)
    for a in np.unique(mids):
        where = np.nonzero(mids == a)[0]
        ends[where] = rng.choice(ctx.n_inputs, size=where.size, p=adj[a])
    return xs, ends


def per_key_pair_sampled(enc, ctx, n_pairs, seed):
    """The pair-sampled ``b_phi`` of the per-key draws, reduced as
    ``estimate_covariances`` reduces them: end values summed per start."""
    centered = enc.centered()
    xs, ends = per_key_draws(ctx, n_pairs, seed)
    sums = np.stack([np.bincount(xs, weights=col[ends], minlength=ctx.n_inputs)
                     for col in centered.T], axis=1)
    b_raw = centered.T @ sums / n_pairs
    return 0.5 * (b_raw + b_raw.T)


def random_pair_setup(n, m, d, sparse, seed):
    # small supports repeat every key; sparse rows draw from few points
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m), size=n)
    if sparse:
        rows[rng.random((n, m)) < 0.6] = 0.0
        rows[np.arange(n), rng.integers(0, m, n)] += 1.0
        rows /= rows.sum(axis=1, keepdims=True)
    ctx = FiniteContext(rows, DiscreteDistribution(rng.dirichlet(np.ones(n))))
    enc = SampleEncoder(rng.standard_normal((n, d)), "input",
                        ctx.input_marginal)
    return ctx, enc


class TestHop:
    @staticmethod
    def per_key_choice(rows, keys, rng):
        """A weighted ``rng.choice`` per distinct key, ascending."""
        out = np.empty(keys.size, dtype=int)
        for key in np.unique(keys):
            where = np.flatnonzero(keys == key)
            out[where] = rng.choice(rows.shape[1], size=where.size, p=rows[key])
        return out

    @settings(max_examples=80, deadline=None)
    @given(n_rows=st.integers(1, 12), m=st.integers(1, 12),
           n_keys=st.integers(1, 300), sparse=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    @example(n_rows=1, m=1, n_keys=1, sparse=False, seed=0)  # one key, one pair
    @example(n_rows=1, m=5, n_keys=40, sparse=True, seed=1)  # one key
    @example(n_rows=6, m=4, n_keys=1, sparse=True, seed=2)   # one pair
    def test_draws_and_state_equal_per_key_choice(self, n_rows, m, n_keys,
                                                  sparse, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(m), size=n_rows)
        if sparse:  # rows with zero entries
            rows[rng.random((n_rows, m)) < 0.6] = 0.0
            rows[np.arange(n_rows), rng.integers(0, m, n_rows)] += 1.0
            rows /= rows.sum(axis=1, keepdims=True)
        # the last row's key stays absent whenever there are two or more
        keys = rng.integers(0, max(n_rows - 1, 1), size=n_keys)
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _hop(rows, keys, got_rng)
        assert np.array_equal(got, self.per_key_choice(rows, keys, ref_rng))
        assert got_rng.random() == ref_rng.random()


class TestPairSampledGrouping:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 12), d=st.integers(1, 3),
           n_pairs=st.integers(1, 400), sparse=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    @example(n=1, m=1, d=1, n_pairs=1, sparse=False, seed=0)  # one key, one pair
    @example(n=1, m=6, d=2, n_pairs=50, sparse=False, seed=1)  # one input key
    @example(n=6, m=1, d=2, n_pairs=50, sparse=False, seed=2)  # one context key
    @example(n=9, m=7, d=2, n_pairs=1, sparse=True, seed=3)
    def test_b_phi_bitwise_equal_to_per_key_loop(self, n, m, d, n_pairs,
                                                 sparse, seed):
        ctx, enc = random_pair_setup(n, m, d, sparse, seed)
        cov = estimate_covariances(enc, ctx, "pair_sampled", n_pairs, seed=seed)
        assert np.array_equal(cov.b_phi,
                              per_key_pair_sampled(enc, ctx, n_pairs, seed))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), m=st.integers(1, 12), d=st.integers(1, 5),
           n_pairs=st.integers(1, 2000), sparse=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_b_phi_matches_gathered_pair_product(self, n, m, d, n_pairs,
                                                 sparse, seed):
        # the per-start sums reorder the pair product sum_p c[x_p]^T c[e_p]
        ctx, enc = random_pair_setup(n, m, d, sparse, seed)
        centered = enc.centered()
        xs, ends = per_key_draws(ctx, n_pairs, seed)
        b_raw = centered[xs].T @ centered[ends] / n_pairs
        gathered = 0.5 * (b_raw + b_raw.T)
        cov = estimate_covariances(enc, ctx, "pair_sampled", n_pairs, seed=seed)
        scale = np.max(np.abs(centered)) ** 2
        assert np.max(np.abs(cov.b_phi - gathered)) <= 1e-12 * scale


def earlier_posthoc(enc, cov, top):
    """``estimate_spectrum_posthoc`` as it was when ``top_eigenpairs``
    symmetrised any matrix that was not already symmetric bit for bit."""
    d = enc.d
    reg = cov.c_phi + 1e-10 * np.trace(cov.c_phi) * np.eye(d)
    evals, evecs = np.linalg.eigh(reg)
    half = (evecs / np.sqrt(evals)) @ evecs.T
    core = half @ cov.b_phi @ half
    if not np.array_equal(core, core.T):
        core = 0.5 * (core + core.T)
    evals, evecs = np.linalg.eigh(core)
    eigenvalues = evals[::-1][:top]
    evecs = np.ascontiguousarray(evecs[:, ::-1][:, :top])
    funcs = enc.centered() @ (half @ evecs)
    w = enc.marginal.weights
    for j in range(funcs.shape[1]):
        scale = weighted_norm(funcs[:, j], w)
        if scale > 0:
            funcs[:, j] /= scale
    fix_signs(funcs)
    return eigenvalues, funcs


class TestEstimateSpectrumPosthoc:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), m=st.integers(2, 40), d=st.integers(1, 60),
           repeated=st.booleans(), sampled=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_pencil_path_equals_the_earlier_bits(self, n, m, d, repeated,
                                                 sampled, seed, data):
        # wide encoders (d >= n) and a repeated column make c_phi singular,
        # so the ridge sets the whitening; the core is symmetric to roundoff
        rng = np.random.default_rng(seed)
        ctx = dense_context(seed, n, m)
        values = rng.standard_normal((n, d))
        if repeated and d > 1:
            values[:, -1] = values[:, 0]
        enc = SampleEncoder(values, "input", ctx.input_marginal)
        cov = (estimate_covariances(enc, ctx, "pair_sampled", 200, seed=seed)
               if sampled else estimate_covariances(enc, ctx))
        top = data.draw(st.integers(1, d), label="top")
        evals, funcs = estimate_spectrum_posthoc(enc, cov, top)
        ref_evals, ref_funcs = earlier_posthoc(enc, cov, top)
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(funcs.values, ref_funcs)

    def test_consistency_on_exact_functions(self):
        ctx = dense_context(2, 12, 9)
        enc, spec = top_encoder(ctx, 3)
        cov = estimate_covariances(enc, ctx)
        evals, funcs = estimate_spectrum_posthoc(enc, cov, top=3)
        assert np.allclose(evals, spec.nontrivial_values[:3] ** 2, atol=1e-10)
        cos = principal_angle_cosines(funcs.values,
                                      spec.left_functions[:, 1:4],
                                      ctx.input_marginal.weights)
        assert np.min(cos) > 1 - 1e-8

    def test_mixing_invariance(self):
        ctx = dense_context(3, 10, 8)
        mixer = np.array([[1.2, -0.3, 0.1],
                          [0.4, 0.9, -0.2],
                          [0.0, 0.5, 1.1]])
        enc, spec = top_encoder(ctx, 3, mixer=mixer)
        cov = estimate_covariances(enc, ctx)
        evals, _ = estimate_spectrum_posthoc(enc, cov, top=3)
        assert np.allclose(evals, spec.nontrivial_values[:3] ** 2, atol=1e-8)

    def test_noise_column_adds_zero_eigenvalue(self, independent_context):
        ctx = dense_context(4, 10, 8)
        spec = contexture_svd(ctx)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((10, 1))
        # orthogonalize the noise against the signal columns so the pencil
        # splits into exact blocks
        w = ctx.input_marginal.weights
        signal = spec.left_functions[:, 1:3]
        for j in range(signal.shape[1]):
            col = signal[:, j]
            noise[:, 0] -= float((w * col) @ noise[:, 0]) * col
        dead = noise - (w @ noise)
        dead = dead @ np.linalg.inv(np.sqrt(dead.T @ (w[:, None] * dead)))
        # replace the "1"-direction content so its pushed image vanishes
        values = np.concatenate([signal, dead], axis=1)
        enc = SampleEncoder(values, "input", ctx.input_marginal)
        cov = estimate_covariances(enc, ctx)
        base = spec.nontrivial_values[:2] ** 2
        evals, _ = estimate_spectrum_posthoc(enc, cov, top=3)
        assert np.allclose(np.sort(evals)[::-1][:2], base, atol=1e-6)

    def test_top_validated(self):
        ctx = dense_context(6, 8, 6)
        enc, _ = top_encoder(ctx, 2)
        cov = estimate_covariances(enc, ctx)
        with pytest.raises(ValueError):
            estimate_spectrum_posthoc(enc, cov, top=3)

    def test_eigenvalues_bounded_by_one(self):
        for seed in range(5):
            ctx = dense_context(seed + 10, 9, 7)
            rng = np.random.default_rng(seed)
            enc = SampleEncoder(rng.standard_normal((9, 3)), "input",
                                ctx.input_marginal)
            cov = estimate_covariances(enc, ctx)
            evals, _ = estimate_spectrum_posthoc(enc, cov, top=3)
            assert np.max(evals) <= 1.0 + 1e-8


class TestSubsampleSupport:
    def test_full_restriction_is_identity(self):
        pts = PointSet(np.random.default_rng(7).normal(size=(12, 3)))
        ctx = build_rbf_context(pts, gamma=0.5)
        sub = subsample_support(ctx, m=12, seed=1)
        assert np.array_equal(sub.conditional, ctx.conditional)
        assert np.array_equal(sub.input_marginal.weights,
                              ctx.input_marginal.weights)

    def test_single_row_has_trivial_spectrum(self):
        pts = PointSet(np.random.default_rng(8).normal(size=(6, 2)))
        ctx = build_rbf_context(pts, gamma=1.0)
        sub = subsample_support(ctx, m=1, seed=2)
        spec = contexture_svd(sub)
        assert spec.rank == 1
        assert spec.singular_values[0] == 1.0

    def test_seeded_rerun_is_bit_exact(self):
        pts = PointSet(np.random.default_rng(9).normal(size=(16, 3)))
        ctx = build_rbf_context(pts, gamma=0.8)
        a = subsample_support(ctx, m=8, seed=5)
        b = subsample_support(ctx, m=8, seed=5)
        assert np.array_equal(a.conditional, b.conditional)

    def test_dead_row_is_error(self):
        # knn rows lose all mass when every neighbor is dropped
        pts = PointSet(np.array([[0.0], [1.0], [100.0], [101.0]]))
        from contexture import build_knn_context
        ctx = build_knn_context(pts, k=1)
        with pytest.raises(ValueError, match="loses all context mass"):
            # keep rows {0, 2}: each points at its dropped twin
            subsample_support(ctx, m=2, seed=193)

    def test_label_context_restricts_rows_only(self):
        from contexture import build_label_context
        ctx = build_label_context(np.array([0, 0, 1, 1, 2, 2]))
        sub = subsample_support(ctx, m=3, seed=4)
        assert sub.n_inputs == 3
        assert np.allclose(sub.conditional.sum(axis=1), 1.0)

    def test_monotone_refinement_in_m(self):
        rng = np.random.default_rng(11)
        pts = PointSet(rng.normal(size=(48, 3)))
        ctx = build_rbf_context(pts, gamma=0.8)
        truth = contexture_svd(ctx).nontrivial_values[:6] ** 2
        errors = []
        for m in (6, 12, 24, 48):
            per_seed = []
            for seed in range(20):
                sub = subsample_support(ctx, m, seed=seed)
                vals = contexture_svd(sub).nontrivial_values[:6] ** 2
                est = np.zeros(6)
                est[:vals.size] = vals
                per_seed.append(np.mean(np.abs(est - truth)))
            errors.append(float(np.mean(per_seed)))
        assert all(b <= a + 0.01 for a, b in zip(errors, errors[1:]))


CHANNEL = FiniteContext(np.array([[0.9, 0.1], [0.1, 0.9]]),
                        DiscreteDistribution.uniform(2), same_support=True)
CHANNEL_ENC = SampleEncoder(np.array([1.0, -1.0]), "input",
                            CHANNEL.input_marginal)


@pytest.mark.parametrize("call, args, exc, match", [
    (CovariancePair, (np.array([[1.0, 0.0], [1.0, 1.0]]), np.eye(2), "exact"),
     ValueError, "c_phi must be symmetric"),
    # an unknown mode would skip the exact mode's PSD-order check
    (CovariancePair, (np.eye(2), 2 * np.eye(2), "exactt"),
     ValueError, "mode must be 'exact' or 'pair_sampled'"),
    (estimate_covariances, (CHANNEL_ENC, CHANNEL, "sampled"),
     ValueError, "mode must be 'exact' or 'pair_sampled'"),
    (estimate_covariances, (SampleEncoder(np.array([1.0, -1.0]), "context",
                                          CHANNEL.context_marginal), CHANNEL),
     ValueError, "input-support encoder"),
    (estimate_spectrum_posthoc, (CHANNEL_ENC, CovariancePair(
        np.zeros((1, 1)), np.zeros((1, 1)), "exact"), 1),
     NumericalError, "zero covariance"),
    (subsample_support, (CHANNEL, 0, 0), ValueError, r"m must be in \[1, 2\]"),
    (subsample_support, (CHANNEL, 3, 0), ValueError, r"m must be in \[1, 2\]"),
])
def test_typed_input_errors(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)
