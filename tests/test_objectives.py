import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contexture import (ConstraintViolationError, DiscreteDistribution,
                        DivergenceError, FiniteContext, NumericalError,
                        SampleEncoder, VariationalOptions, average_encoder,
                        build_graph_context, build_label_context,
                        cca_alignment, contexture_svd, eval_objective,
                        load_encoder, loss_kernel_matrix,
                        operator_eigenvalues, save_encoder, solve_spectral,
                        solve_variational)
from contexture import objectives, verify
from contexture._linalg import (fix_signs, orthonormal_basis,
                                principal_angle_cosines, weighted_cov,
                                weighted_norm)
from contexture.objectives import (_FORMS, LossKernelKind, ObjectiveKind,
                                   _least_squares_form, _resolve_aux,
                                   _sandwiched_operator)


# the kinds whose loss is a weighted least-squares fit on the encoder
LEAST_SQUARES_KINDS = [k for k in ObjectiveKind if _FORMS[k].kernel is not None
                       or k is ObjectiveKind.SUPERVISED_BALANCED]
# the kinds whose encoder must have identity covariance
CONSTRAINED_KINDS = [k for k in ObjectiveKind if _FORMS[k].constrained]


def channel_as_label_context():
    """Randomized 2-class labels matching the noisy channel conditional."""
    return FiniteContext(np.array([[0.9, 0.1], [0.1, 0.9]]),
                         DiscreteDistribution.uniform(2), same_support=False)


def top_weighted_eigenfunctions(op_core, weights, d):
    """The kernel-kind closed form as one function: top-d eigenvectors of
    the symmetrised operator, descending, scaled to weighted-orthonormal
    functions in C order, signs fixed."""
    sym = 0.5 * (op_core + op_core.T)
    _, evecs = np.linalg.eigh(sym)
    top = np.ascontiguousarray(evecs[:, ::-1][:, :d] / np.sqrt(weights)[:, None])
    fix_signs(top)
    return top


class TestLossKernelMatrix:
    def test_indicator_on_distinct_one_hots(self):
        vecs = np.eye(3)
        k = loss_kernel_matrix("indicator", vecs, DiscreteDistribution.uniform(3))
        assert np.array_equal(k, np.eye(3))

    def test_indicator_groups_equal_rows(self):
        marg = DiscreteDistribution.uniform(4)
        vecs = np.array([[0.0, 1.0], [2.0, 0.0], [-0.0, 1.0], [2.0, 0.0]])
        k = loss_kernel_matrix("indicator", vecs, marg)
        assert np.array_equal(k, np.all(vecs[:, None] == vecs[None], axis=2))
        codes = np.array([0.0, 2.0, 0.0, 2.0])
        assert np.array_equal(loss_kernel_matrix("indicator", codes, marg), k)

    def test_linear_on_orthonormal_rows(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = loss_kernel_matrix("linear", vecs, DiscreteDistribution.uniform(2))
        assert np.array_equal(k, np.eye(2))

    def test_centered_linear_on_scalars(self):
        # values (0, 2) center to (-1, 1); outer product
        k = loss_kernel_matrix("centered_linear", np.array([0.0, 2.0]),
                               DiscreteDistribution.uniform(2))
        assert np.allclose(k, [[1.0, -1.0], [-1.0, 1.0]])

    def test_indicator_without_vectors_is_identity(self):
        k = loss_kernel_matrix("indicator", None, DiscreteDistribution.uniform(4))
        assert np.array_equal(k, np.eye(4))

    def test_linear_requires_vectors(self):
        with pytest.raises(ValueError):
            loss_kernel_matrix("linear", None, DiscreteDistribution.uniform(2))


class TestSandwichedOperator:
    """The operator the loss-kernel kinds diagonalize equals its definition,
    the loss kernel sandwiched by the whitened expectation operator."""

    @staticmethod
    def _definition(kind, ctx, aux):
        p = ctx.input_marginal.weights
        q = ctx.context_marginal.weights
        if _FORMS[kind].support == "input":
            b = np.sqrt(p)[:, None] * ctx.conditional
            other = ctx.context_marginal
        else:  # sqrt(q_a) P(x | a), from Bayes' rule
            b = np.sqrt(q)[:, None] * (p[:, None] * ctx.conditional / q).T
            other = ctx.input_marginal
        vecs = np.eye(len(other)) if aux is None else aux
        return b @ loss_kernel_matrix(_FORMS[kind].kernel, vecs, other) @ b.T

    @pytest.mark.parametrize("aux_kind", ["none", "real", "grouped"])
    @pytest.mark.parametrize("kind", [k for k in ObjectiveKind
                                      if _FORMS[k].kernel is not None])
    def test_matches_kernel_definition(self, kind, aux_kind):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ctx = FiniteContext(rng.dirichlet(np.ones(7), size=9),
                                DiscreteDistribution(rng.dirichlet(np.ones(9))))
            size = 7 if _FORMS[kind].support == "input" else 9
            # integer codes in {0, 1, 2}: rows repeat, so classes group
            aux = {"none": None,
                   "real": rng.standard_normal((size, 2)),
                   "grouped": rng.integers(0, 3, (size, 1)).astype(float),
                   }[aux_kind]
            op = _sandwiched_operator(kind, ctx, aux)
            ref = self._definition(kind, ctx, aux)
            assert op.shape == ref.shape
            assert np.linalg.norm(op - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", [k for k in ObjectiveKind
                                      if _FORMS[k].kernel is not None])
    def test_absent_aux_is_one_hot_without_a_product(self, kind):
        rng = np.random.default_rng(12)
        ctx = FiniteContext(rng.dirichlet(np.ones(7), size=9),
                            DiscreteDistribution(rng.dirichlet(np.ones(9))))
        before = ctx.conditional.copy()
        ls = _least_squares_form(kind, ctx, _resolve_aux(kind, ctx, None))
        one_hot = _least_squares_form(kind, ctx, np.eye(ls.targets.shape[1]))
        assert np.array_equal(ls.targets, one_hot.targets)
        assert ls.offset == one_hot.offset
        # input-support targets alias the conditional, so the solvers and
        # the loss must leave it untouched
        aliased = _FORMS[kind].support == "input"
        assert np.shares_memory(ls.targets, ctx.conditional) == aliased
        enc = solve_spectral(kind, ctx, 2)
        eval_objective(kind, ctx, enc)
        solve_variational(kind, ctx, 2, VariationalOptions(steps=5))
        assert np.array_equal(ctx.conditional, before)


class TestSolveSpectral:
    def test_balanced_on_channel_labels(self):
        ctx = channel_as_label_context()
        enc = solve_spectral("supervised_balanced", ctx, 1)
        cos = principal_angle_cosines(enc.values, np.array([[1.0], [-1.0]]),
                                      ctx.input_marginal.weights)
        assert cos[0] > 1 - 1e-10

    def test_noncontrastive_matches_right_functions(self, two_state):
        spec = contexture_svd(two_state)
        enc = solve_spectral("multiview_noncontrastive", two_state, 1)
        assert enc.support == "context"
        cos = principal_angle_cosines(enc.values, spec.right_functions[:, 1:2],
                                      two_state.context_marginal.weights)
        assert cos[0] > 1 - 1e-8

    def test_node_embedding_on_triangle(self):
        ctx = build_graph_context(np.ones((3, 3)) - np.eye(3))
        enc = solve_spectral("node_embedding", ctx, 1)
        p = ctx.input_marginal.weights
        phi = enc.values[:, 0]
        assert abs(float(p @ phi)) < 1e-8          # orthogonal to constants
        assert abs(weighted_norm(phi, p) - 1.0) < 1e-8
        spec = contexture_svd(ctx)
        assert abs(spec.singular_values[1] - 0.5) < 1e-10

    @pytest.mark.parametrize("aux_kind", ["none", "real", "grouped"])
    @pytest.mark.parametrize("kind", [k for k in ObjectiveKind
                                      if _FORMS[k].kernel is not None])
    def test_kernel_kinds_bitwise_equal_to_eigenfunction_oracle(self, kind,
                                                                aux_kind):
        rng = np.random.default_rng(13)
        for d in (1, 2, 5):
            ctx = FiniteContext(rng.dirichlet(np.ones(7), size=9),
                                DiscreteDistribution(rng.dirichlet(np.ones(9))))
            size = 7 if _FORMS[kind].support == "input" else 9
            aux = {"none": None,
                   "real": rng.standard_normal((size, 2)),
                   "grouped": rng.integers(0, 3, (size, 1)).astype(float),
                   }[aux_kind]
            enc = solve_spectral(kind, ctx, d, aux)
            weights = _FORMS[kind].marginals(ctx)[0].weights
            oracle = top_weighted_eigenfunctions(
                _sandwiched_operator(kind, ctx, aux), weights, d)
            assert np.array_equal(enc.values, oracle)
            assert enc.values.flags.c_contiguous

    def test_d_exceeding_rank(self, two_state):
        with pytest.raises(ValueError):
            solve_spectral("supervised_balanced", two_state, 2)


class TestAverageEncoder:
    def test_pushes_right_function_to_left(self, two_state):
        spec = contexture_svd(two_state)
        psi = SampleEncoder(spec.right_functions[:, 1:2], "context",
                            two_state.context_marginal)
        phi = average_encoder(two_state, psi)
        assert np.allclose(phi.values[:, 0], 0.8 * spec.left_functions[:, 1])

    def test_constant_stays_constant(self, two_state):
        psi = SampleEncoder(np.full((2, 1), 3.0), "context",
                            two_state.context_marginal)
        assert np.allclose(average_encoder(two_state, psi).values, 3.0)

    def test_top_two_right_functions_span_top_left(self):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(6) * 0.5, size=6)
        ctx = FiniteContext(rows, DiscreteDistribution.uniform(6))
        spec = contexture_svd(ctx)
        psi = SampleEncoder(spec.right_functions[:, 1:3], "context",
                            ctx.context_marginal)
        phi = average_encoder(ctx, psi)
        cos = principal_angle_cosines(phi.values, spec.left_functions[:, 1:3],
                                      ctx.input_marginal.weights, center=True)
        assert np.min(cos) > 1 - 1e-8

    def test_requires_context_support(self, two_state):
        phi = SampleEncoder(np.ones((2, 1)), "input", two_state.input_marginal)
        with pytest.raises(ValueError):
            average_encoder(two_state, phi)


class TestEvalObjective:
    def test_noncontrastive_optimum_value(self, two_state):
        enc = solve_spectral("multiview_noncontrastive", two_state, 1)
        assert abs(eval_objective("multiview_noncontrastive", two_state, enc)
                   - 0.72) < 1e-12

    def test_node_constant_violates_constraint(self):
        ctx = build_graph_context(np.ones((3, 3)) - np.eye(3))
        enc = SampleEncoder(np.ones((3, 1)), "input", ctx.input_marginal)
        with pytest.raises(ConstraintViolationError):
            eval_objective("node_embedding", ctx, enc)

    def test_perfect_linear_fit_has_zero_loss(self):
        ctx = build_label_context(np.array([0, 0, 1, 1]))
        one_hot = np.eye(2)[[0, 0, 1, 1]]
        enc = SampleEncoder(one_hot, "input", ctx.input_marginal)
        assert eval_objective("supervised_unbiased", ctx, enc) < 1e-12

    def test_contrastive_optimum_value(self, two_state):
        enc = solve_spectral("multiview_contrastive", two_state, 1)
        value = eval_objective("multiview_contrastive", two_state, enc)
        assert abs(value - (-0.5 * 0.8 ** 4)) < 1e-12

    @pytest.mark.parametrize("kind", LEAST_SQUARES_KINDS)
    def test_least_squares_value_is_the_pair_fit(self, kind):
        # the definition: min over (W, b) of the weighted mean of
        # ||W phi(i) + b - v(j)||^2 over the pairs (i on the encoder's
        # support, j on the other), weighted by the joint (balanced
        # supervision also by 1 / sqrt(q_j)), solved here by lstsq on every
        # pair; the encoder's third column is a mix of the other two
        rng = np.random.default_rng(21)
        ctx = FiniteContext(rng.dirichlet(np.ones(5), size=6),
                            DiscreteDistribution(rng.dirichlet(np.ones(6))))
        form = _FORMS[kind]
        own, other = form.marginals(ctx)
        joint = ctx.input_marginal.weights[:, None] * ctx.conditional
        pair = joint if form.support == "input" else joint.T
        if kind is ObjectiveKind.SUPERVISED_BALANCED:
            pair = pair / np.sqrt(ctx.context_marginal.weights)
        aux = (rng.standard_normal((len(other), 2))
               if form.kernel in (LossKernelKind.LINEAR,
                                  LossKernelKind.CENTERED_LINEAR) else None)
        vecs = np.eye(len(other)) if aux is None else aux
        values = rng.standard_normal((len(own), 3))
        values[:, 2] = values[:, 0] - 2.0 * values[:, 1]
        i, j = np.divmod(np.arange(pair.size), pair.shape[1])
        design = values[i]
        if form.biased:
            design = np.concatenate([design, np.ones((pair.size, 1))], axis=1)
        root = np.sqrt(pair.ravel())
        coef = np.linalg.lstsq(root[:, None] * design, root[:, None] * vecs[j],
                               rcond=None)[0]
        reference = float(pair.ravel()
                          @ np.sum((design @ coef - vecs[j]) ** 2, axis=1))
        value = eval_objective(kind, ctx, SampleEncoder(values, form.support,
                                                        own), aux)
        assert abs(value - reference) <= 1e-12 * max(1.0, reference)

    def test_verify_minimality_builds_each_loss_once(self, monkeypatch):
        # verify's minimality check reads its 200 random draws per kind
        # through one loss and its basis; each value is the loss at the
        # draw's basis, bit for bit, and eval_objective's at that basis
        built, seen = [], []

        def spy(kind, ctx, aux):
            loss, basis = objectives._population_loss(kind, ctx, aux)
            built.append(kind)
            read = []

            def record_basis(values):
                read.append((values, basis(values)))
                return read[-1][1]

            def record(values):
                out = loss(values)
                seen.append((kind, ctx, aux, *read[-1], out[0]))
                return out
            return record, record_basis

        monkeypatch.setattr(verify, "_population_loss", spy)
        checks = verify.minimality_checks(np.random.default_rng(0), 24, 20, 3)
        assert checks[0]["passed"]
        assert len(built) == 3 and len(seen) == 600
        for kind, ctx, aux, draw, spanned, value in seen:
            loss, basis = objectives._population_loss(kind, ctx, aux)
            assert loss(basis(draw))[0] == value
            form = _FORMS[kind]
            enc = SampleEncoder(spanned, form.support, form.marginals(ctx)[0])
            assert (abs(eval_objective(kind, ctx, enc, aux) - value)
                    <= 1e-12 * max(1.0, abs(value)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(LEAST_SQUARES_KINDS), n=st.integers(3, 12),
       m=st.integers(3, 12), d=st.integers(1, 4),
       seed=st.integers(0, 2 ** 31 - 1))
def test_least_squares_losses_read_only_the_span(kind, n, m, d, seed):
    # the fit's head absorbs any invertible mixing of the columns, and its
    # intercept any constant shift of them
    rng = np.random.default_rng(seed)
    ctx = verify.random_dense_context(rng, n, m)
    own, other = _FORMS[kind].marginals(ctx)
    aux = None
    if _FORMS[kind].kernel in (LossKernelKind.LINEAR,
                               LossKernelKind.CENTERED_LINEAR):
        aux = rng.standard_normal((len(other), 2))
    values = rng.standard_normal((len(own), d))
    variants = [values @ verify.random_invertible(rng, d)]
    if _FORMS[kind].biased:
        variants.append(values + rng.uniform(-3.0, 3.0, d))
    base = eval_objective(kind, ctx, SampleEncoder(values, _FORMS[kind].support,
                                                   own), aux)
    for moved in variants:
        value = eval_objective(kind, ctx, SampleEncoder(
            moved, _FORMS[kind].support, own), aux)
        assert abs(value - base) <= 1e-12 * max(1.0, abs(base))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CONSTRAINED_KINDS), n=st.integers(4, 16),
       d=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
def test_constrained_losses_read_only_the_span(kind, n, d, seed):
    # an identity-covariance encoder is any orthonormal basis of its centred
    # span: the loss does not see a rotation or a constant shift of it
    rng = np.random.default_rng(seed)
    ctx = verify.random_graph_context(rng, n)
    own = _FORMS[kind].marginals(ctx)[0]
    loss = objectives._population_loss(kind, ctx, None)[0]
    values = orthonormal_basis(rng.standard_normal((n, d)), own.weights,
                               center=True)
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    base = loss(values)[0]
    for moved in (values @ rotation, values + rng.uniform(-3.0, 3.0, d)):
        assert abs(loss(moved)[0] - base) <= 1e-12 * max(1.0, abs(base))
        value = eval_objective(kind, ctx, SampleEncoder(
            moved, _FORMS[kind].support, own))
        assert abs(value - base) <= 1e-12 * max(1.0, abs(base))


def test_variational_rank_drop_raises():
    # a biased fit reads the centred span, of rank n - 1 on n inputs
    ctx = verify.random_dense_context(np.random.default_rng(0), 5, 6)
    with pytest.raises(NumericalError, match="spans 4 of 5"):
        solve_variational("regression_biased", ctx, 5)


def test_node_embedding_rank_drop_raises():
    # an identity-covariance encoder spans centred functions, at most n - 1
    ctx = verify.random_graph_context(np.random.default_rng(0), 5)
    with pytest.raises(NumericalError, match="spans 4 of 5"):
        solve_variational("node_embedding", ctx, 5)


def solve_with_fifty_tie_steps(kind, ctx, d, opts):
    """solve_variational's loop as it was when a run ended only after 50
    ties in a row, each of which re-evaluated the same candidate."""
    weights = _FORMS[ObjectiveKind(kind)].marginals(ctx)[0].weights
    value_grad, project = objectives._population_loss(ObjectiveKind(kind), ctx,
                                                      None)
    current = project(np.random.default_rng(opts.seed).standard_normal(
        (len(weights), d)))
    value, grad = value_grad(current)
    lr, rejected, quiet_steps = opts.learning_rate, 0, 0
    for _ in range(opts.steps):
        candidate = project(current - lr * grad / weights[:, None])
        cand_value, cand_grad = value_grad(candidate)
        drop = (value - cand_value) / (1.0 + abs(value))
        if drop > 1e-11:
            current, value, grad = candidate, cand_value, cand_grad
            rejected = quiet_steps = 0
            lr = min(lr * 1.05, opts.learning_rate * 1e6)
        elif drop >= -1e-11:
            rejected = 0
            quiet_steps += 1
            if quiet_steps >= 50:
                break
        else:
            rejected += 1
            lr *= 0.5
            assert rejected < 100
    return current


class TestSolveVariational:
    def test_noncontrastive_reaches_optimum(self, two_state):
        enc = solve_variational("multiview_noncontrastive", two_state, 1)
        value = eval_objective("multiview_noncontrastive", two_state, enc)
        assert abs(value - 0.72) < 1e-3

    def test_supervised_matches_spectral_loss(self):
        ctx = build_label_context(np.array([0, 0, 1, 1, 2, 2]))
        var = solve_variational("supervised_unbiased", ctx, 2)
        spectral = solve_spectral("supervised_unbiased", ctx, 2)
        v_var = eval_objective("supervised_unbiased", ctx, var)
        v_spec = eval_objective("supervised_unbiased", ctx, spectral)
        assert abs(v_var - v_spec) < 1e-6

    def test_contrastive_alignment_with_closed_form(self):
        rng = np.random.default_rng(1)
        rows = rng.dirichlet(np.ones(6) * 0.5, size=6)
        ctx = FiniteContext(rows, DiscreteDistribution.uniform(6))
        var = solve_variational("multiview_contrastive", ctx, 2,
                                VariationalOptions(seed=4))
        spectral = solve_spectral("multiview_contrastive", ctx, 2)
        score = cca_alignment(var, spectral, ctx.context_marginal)
        assert score >= 0.999

    def test_supervised_class_codes_equal_one_hot(self):
        # the indicator loss only sees which rows share a class, so raw
        # codes must score and solve exactly as their one-hot encoding
        rng = np.random.default_rng(0)
        ctx = FiniteContext(rng.dirichlet(np.ones(6), size=8),
                            DiscreteDistribution.uniform(8))
        codes = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        one_hot = np.eye(3)[codes.astype(int)]
        spectral = solve_spectral("supervised_unbiased", ctx, 2, codes)
        var = solve_variational("supervised_unbiased", ctx, 2, aux=codes)
        for enc in (spectral, var):
            assert abs(eval_objective("supervised_unbiased", ctx, enc, codes)
                       - eval_objective("supervised_unbiased", ctx, enc,
                                        one_hot)) < 1e-12
        assert (eval_objective("supervised_unbiased", ctx, spectral, codes)
                <= eval_objective("supervised_unbiased", ctx, var, codes) + 1e-9)

    def test_divergence_raises_with_trace(self, two_state):
        opts = VariationalOptions(learning_rate=1e40, steps=200, seed=0)
        with pytest.raises(DivergenceError) as excinfo:
            solve_variational("multiview_contrastive", two_state, 1, opts)
        assert len(excinfo.value.trace) > 100

    @pytest.mark.parametrize("rate", [0.0, -0.05, np.nan, np.inf])
    def test_learning_rate_must_be_positive_and_finite(self, two_state, rate):
        opts = VariationalOptions(learning_rate=rate, steps=10)
        with pytest.raises(ValueError, match="learning_rate"):
            solve_variational("multiview_noncontrastive", two_state, 1, opts)

    def test_deterministic_given_seed(self, two_state):
        a = solve_variational("multiview_contrastive", two_state, 1,
                              VariationalOptions(seed=9, steps=200))
        b = solve_variational("multiview_contrastive", two_state, 1,
                              VariationalOptions(seed=9, steps=200))
        assert np.array_equal(a.values, b.values)

    @pytest.fixture
    def loss_calls(self, monkeypatch):
        """Every encoder the population loss is evaluated at, in order."""
        calls = []
        population_loss = objectives._population_loss

        def counted(*args):
            value_grad, basis = population_loss(*args)

            def wrapped(values, *rest):
                calls.append(values)
                return value_grad(values, *rest)
            return wrapped, basis

        monkeypatch.setattr(objectives, "_population_loss", counted)
        return calls

    @pytest.mark.parametrize("kind", ["supervised_unbiased",
                                      "multiview_contrastive",
                                      "multiview_noncontrastive"])
    def test_one_loss_evaluation_per_trace_entry(self, kind, loss_calls):
        # the initial value, then one candidate per step: each evaluation
        # also returns the gradient the next step takes from it
        rng = np.random.default_rng(2)
        ctx = FiniteContext(rng.dirichlet(np.ones(5), size=6),
                            DiscreteDistribution.uniform(6))
        solve_variational(kind, ctx, 2, VariationalOptions(steps=30, seed=1))
        assert len(loss_calls) == 1 + 30

    def test_divergence_trace_has_one_entry_per_evaluation(self, two_state,
                                                           loss_calls):
        opts = VariationalOptions(learning_rate=1e40, steps=200, seed=0)
        with pytest.raises(DivergenceError) as excinfo:
            solve_variational("multiview_contrastive", two_state, 1, opts)
        assert len(loss_calls) == len(excinfo.value.trace)

    @pytest.mark.parametrize("kind", ["multiview_contrastive",
                                      "multiview_noncontrastive"])
    def test_first_tie_ends_the_run(self, kind, loss_calls):
        # one kind read through the identity, one through its span's basis
        rng = np.random.default_rng(3)
        ctx = FiniteContext(rng.dirichlet(np.ones(5), size=6),
                            DiscreteDistribution.uniform(6))
        opts = VariationalOptions(seed=1)
        enc = solve_variational(kind, ctx, 2, opts)
        seen = [values.tobytes() for values in loss_calls]
        assert len(seen) < 1 + opts.steps  # the run ended on a tie
        assert len(set(seen)) == len(seen)
        assert np.array_equal(enc.values,
                              solve_with_fifty_tie_steps(kind, ctx, 2, opts))

class TestEncoderSerialization:
    def test_round_trip(self, tmp_path, two_state):
        enc = solve_spectral("multiview_noncontrastive", two_state, 1)
        path = tmp_path / "enc.csv"
        save_encoder(enc, path, objective="multiview_noncontrastive", seed=3)
        loaded = load_encoder(path, two_state.context_marginal)
        assert np.allclose(loaded.values, enc.values)
        assert loaded.support == "context"
        sidecar = (tmp_path / "enc.json").read_text()
        assert '"seed": 3' in sidecar

    def test_json_values_path_rejected(self, tmp_path, two_state):
        # the sidecar would land on the values file itself
        enc = solve_spectral("multiview_noncontrastive", two_state, 1)
        path = tmp_path / "enc.json"
        with pytest.raises(ValueError, match="enc.json"):
            save_encoder(enc, path)
        assert not path.exists()

    @pytest.mark.parametrize("sidecar, field", [
        ('{"support": "input", "d": 2}', "'d'"),
        ('["input", 1]', "'support'"),
        ('{"d": 1}', "'support'"),
        ('{"support": "input"}', "'d'"),
        ('{"support": "input", "d": true}', "'d'"),
        ('{"support": "input", "d": 1.0}', "'d'"),
        ('{"support": "middle", "d": 1}', "'support'"),
    ])
    def test_malformed_sidecar_names_field_and_file(self, tmp_path, sidecar,
                                                    field):
        path = tmp_path / "enc.csv"
        np.savetxt(path, np.arange(4.0)[:, None], delimiter=",")
        (tmp_path / "enc.json").write_text(sidecar)
        with pytest.raises(ValueError) as info:
            load_encoder(path)
        assert field in str(info.value) and "enc.json" in str(info.value)


class TestSampleEncoderCaches:
    def test_mean_centered_cov(self):
        marg = DiscreteDistribution(np.array([0.25, 0.25, 0.5]))
        enc = SampleEncoder(np.array([[1.0], [2.0], [3.0]]), "input", marg)
        assert np.allclose(enc.mean(), [2.25])
        assert np.allclose(enc.centered()[:, 0], [-1.25, -0.25, 0.75])
        expected_var = 0.25 * 1.25 ** 2 + 0.25 * 0.25 ** 2 + 0.5 * 0.75 ** 2
        assert np.allclose(weighted_cov(enc.values, marg.weights),
                           [[expected_var]])

    def test_validation(self):
        marg = DiscreteDistribution.uniform(2)
        with pytest.raises(ValueError):
            SampleEncoder(np.array([[np.inf], [1.0]]), "input", marg)
        with pytest.raises(ValueError):
            SampleEncoder(np.ones((3, 1)), "input", marg)
        with pytest.raises(ValueError):
            SampleEncoder(np.ones((2, 1)), "middle", marg)


class TestObjectiveTable:
    """Every kind is declared once in ``_FORMS``; the solvers obey it."""

    @staticmethod
    def _context(kind):
        rng = np.random.default_rng(3)
        if kind is ObjectiveKind.NODE_EMBEDDING:  # needs a reversible walk
            w = rng.random((7, 7))
            return build_graph_context(w + w.T)
        rows = rng.dirichlet(np.ones(5), size=7)
        return FiniteContext(rows, DiscreteDistribution(rng.dirichlet(np.ones(7))))

    def test_every_kind_declared(self):
        assert set(_FORMS) == set(ObjectiveKind)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_solvers_follow_the_table(self, kind):
        ctx = self._context(kind)
        form = _FORMS[kind]
        own, other = ((ctx.input_marginal, ctx.context_marginal)
                      if form.support == "input"
                      else (ctx.context_marginal, ctx.input_marginal))
        aux = None
        if form.kernel in (LossKernelKind.LINEAR,
                           LossKernelKind.CENTERED_LINEAR):
            aux = np.random.default_rng(4).standard_normal((len(other), 2))
        for enc in (solve_spectral(kind, ctx, 2, aux),
                    solve_variational(kind, ctx, 2,
                                      VariationalOptions(steps=20), aux)):
            assert enc.support == form.support
            assert enc.marginal is own
            assert enc.values.shape == (len(own), 2)
            eval_objective(kind, ctx, enc, aux)
            wrong = "context" if form.support == "input" else "input"
            flipped = SampleEncoder(np.ones((len(other), 2)), wrong, other)
            with pytest.raises(ValueError, match="support encoder"):
                eval_objective(kind, ctx, flipped, aux)

    @pytest.mark.parametrize("kind", CONSTRAINED_KINDS)
    def test_constrained_kinds_reject_non_whitened(self, kind):
        ctx = self._context(kind)
        own = (ctx.input_marginal if _FORMS[kind].support == "input"
               else ctx.context_marginal)
        enc = SampleEncoder(2.0 * np.arange(len(own), dtype=float),
                            _FORMS[kind].support, own)
        with pytest.raises(ConstraintViolationError):
            eval_objective(kind, ctx, enc)


CHANNEL = FiniteContext(np.array([[0.9, 0.1], [0.1, 0.9]]),
                        DiscreteDistribution.uniform(2), same_support=True)


@pytest.mark.parametrize("call, args, exc, match", [
    (SampleEncoder, (np.ones((2, 0)), "input", DiscreteDistribution.uniform(2)),
     ValueError, "n x d matrix with d >= 1"),
    (loss_kernel_matrix, ("linear", np.ones((3, 1)),
                          DiscreteDistribution.uniform(2)),
     ValueError, "match the marginal length"),
    (solve_spectral, ("regression_unbiased", CHANNEL, 1, np.ones((3, 1))),
     ValueError, "aux must have 2 rows"),
    (solve_spectral, ("multiview_contrastive", CHANNEL, 0),
     ValueError, "d must be at least 1"),
    (solve_spectral, ("supervised_unbiased", CHANNEL, 3),
     ValueError, "exceeds the input support size"),
    (solve_variational, ("multiview_contrastive", CHANNEL, 1,
                         VariationalOptions(steps=0)),
     ValueError, "steps must be at least 1"),
    (solve_variational, ("multiview_contrastive", CHANNEL, 3),
     ValueError, "exceeds the support size 2"),
    (average_encoder, (CHANNEL, SampleEncoder(
        np.ones((3, 1)), "context", DiscreteDistribution.uniform(3))),
     ValueError, "rows must match the context support"),
    # d = 0 is rejected before a draw, constrained kinds included
    (solve_variational, ("multiview_noncontrastive", CHANNEL, 0),
     ValueError, "d must be at least 1"),
    (solve_variational, ("multiview_contrastive", CHANNEL, 0),
     ValueError, "d must be at least 1"),
    # aux only for kinds with a loss kernel
    (solve_spectral, ("supervised_balanced", CHANNEL, 1, np.ones((2, 1))),
     ValueError, "has no loss kernel"),
    (operator_eigenvalues, ("multiview_contrastive", CHANNEL, np.ones((2, 1))),
     ValueError, "has no loss kernel"),
    (eval_objective, ("supervised_balanced", CHANNEL, SampleEncoder(
        np.arange(2.0), "input", CHANNEL.input_marginal), np.ones((2, 1))),
     ValueError, "has no loss kernel"),
    (solve_variational, ("node_embedding", CHANNEL, 1, None, np.ones((2, 1))),
     ValueError, "has no loss kernel"),
    # non-finite aux
    (solve_spectral, ("regression_unbiased", CHANNEL, 1, [[np.nan], [1.0]]),
     ValueError, "aux must be finite"),
    (operator_eigenvalues, ("regression_unbiased", CHANNEL, [[np.nan], [1.0]]),
     ValueError, "aux must be finite"),
    (eval_objective, ("regression_unbiased", CHANNEL, SampleEncoder(
        np.arange(2.0), "input", CHANNEL.input_marginal), [[np.inf], [1.0]]),
     ValueError, "aux must be finite"),
    (solve_variational, ("regression_unbiased", CHANNEL, 1, None,
                         [[np.inf], [1.0]]),
     ValueError, "aux must be finite"),
])
def test_typed_input_errors(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)


def test_node_embedding_needs_a_square_context():
    # three inputs, two classes: a tall label context, not a graph
    ctx = build_label_context(np.array([0, 1, 1]))
    enc = SampleEncoder(np.array([1.0, -1.0, 0.5]), "input", ctx.input_marginal)
    for call in (lambda: solve_spectral("node_embedding", ctx, 1),
                 lambda: solve_variational("node_embedding", ctx, 1),
                 lambda: operator_eigenvalues("node_embedding", ctx),
                 lambda: eval_objective("node_embedding", ctx, enc)):
        with pytest.raises(ValueError, match="node_embedding needs a square "
                                             "context.* 3 x 2"):
            call()
