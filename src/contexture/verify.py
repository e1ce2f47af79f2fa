"""The invariant verification suite and the random contexts it draws.

``verify_theorems`` replays every module's invariants on random contexts
and reports each named check's worst residual against its tolerance. Each
section in ``SECTIONS`` draws from its own seeded stream.
"""

from __future__ import annotations

import numpy as np

from ._linalg import (orthonormal_basis, principal_angle_cosines, sq_dists,
                      weighted_norm)
from .context import (DiscreteDistribution, FiniteContext, PointSet,
                      build_graph_context, build_knn_context,
                      build_label_context, build_masked_context,
                      build_rbf_context)
from .errors import NumericalError
from .estimation import (estimate_covariances, estimate_spectrum_posthoc,
                         subsample_support)
from .evaluation import (TaskFunction, approx_err, cca_alignment,
                         compatibility, compatible_lift, ratio_trace,
                         usefulness_metric, worst_case_err)
from .objectives import (_FORMS, LossKernelKind, ObjectiveKind,
                         SampleEncoder, VariationalOptions, _population_loss,
                         average_encoder, eval_objective, operator_eigenvalues,
                         solve_spectral, solve_variational)
from .spectral import (adjoint_matrix, contexture_svd, dual_kernel,
                       reconstruct_joint, singular_residuals)

# ``nondegenerate_context``: required relative spectral gap, and draws
MIN_GAP = 0.03
TRIES = 200
# ``random_invertible``: singular values are drawn uniformly from [1, COND_CAP)
COND_CAP = 4.0
# eigenvalues compared by ``estimation_refinement_residual``
REFINEMENT_TOP = 6


# ---------------------------------------------------------------------------
# random context factories (shared by the verification suite and tests)
# ---------------------------------------------------------------------------

def random_dense_context(rng: np.random.Generator, n: int, m: int,
                         concentration: float = 0.6) -> FiniteContext:
    """Random strictly positive context: Dirichlet rows and marginal."""
    rows = rng.dirichlet(np.full(m, concentration), size=n)
    marginal = DiscreteDistribution(rng.dirichlet(np.full(n, 5.0)))
    return FiniteContext(rows, marginal, label="random", same_support=(n == m))


def random_doubly_stochastic_context(rng: np.random.Generator,
                                     n: int) -> FiniteContext:
    """Random context with uniform marginals on both supports.

    Sinkhorn-normalized positive matrix. With a uniform context marginal
    the class-balancing weight is constant across rows, the regime where
    the balanced supervised risk recovers the contexture exactly.
    """
    mat = rng.random((n, n)) + 0.05
    for _ in range(300):
        mat /= mat.sum(axis=1, keepdims=True)
        mat /= mat.sum(axis=0, keepdims=True)
    mat /= mat.sum(axis=1, keepdims=True)
    return FiniteContext(mat, DiscreteDistribution.uniform(n),
                         label="doubly_stochastic", same_support=True)


def random_graph_context(rng: np.random.Generator, n: int) -> FiniteContext:
    """Random Gaussian-kernel graph over latent coordinates.

    The latent geometry gives the walk a smoothly decaying spectrum with
    usable gaps. The kernel, unit diagonal kept, is positive semidefinite,
    so the transition operator is too and its eigenvalue order is its
    singular-value order. Every degree lies in [1, n], so the input
    marginal's max/min spread is at most n.
    """
    latent = rng.standard_normal((n, 2)) * np.array([2.0, 0.7])
    gamma = float(rng.uniform(0.3, 1.5))
    return build_graph_context(np.exp(-gamma * sq_dists(latent, latent)))


def random_invertible(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random invertible matrix with bounded condition number."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sing = rng.uniform(1.0, COND_CAP, size=d)
    return q1 @ np.diag(sing) @ q2.T


def nondegenerate_context(rng: np.random.Generator, objective, n: int, m: int,
                          d: int):
    """Random context (plus aux vectors) whose relevant operator spectrum
    has a relative gap of at least ``MIN_GAP`` after position d, so span
    comparisons are well posed; raises after ``TRIES`` draws."""
    objective = ObjectiveKind(objective)
    form = _FORMS[objective]
    for _ in range(TRIES):
        if objective is ObjectiveKind.NODE_EMBEDDING:
            ctx = random_graph_context(rng, n)
        elif objective is ObjectiveKind.SUPERVISED_BALANCED:
            # constant balancing weight: the closed form is exact here
            ctx = random_doubly_stochastic_context(rng, n)
        else:
            ctx = random_dense_context(rng, n, m, concentration=0.35)
        aux = None
        # linear kernels need coordinates; the indicator compares identity
        if form.kernel in (LossKernelKind.LINEAR, LossKernelKind.CENTERED_LINEAR):
            aux = rng.standard_normal((len(form.marginals(ctx)[1]), 3))
        evals = operator_eigenvalues(objective, ctx, aux)
        if evals.size <= d or evals[0] <= 0:
            continue
        rel = evals / evals[0]
        if rel[d - 1] - rel[d] >= MIN_GAP and rel[d - 1] >= MIN_GAP:
            return ctx, aux
    raise NumericalError(
        f"no non-degenerate context found for {objective.value} "
        f"after {TRIES} tries")


def _perturbation_context(rng, n, m, delta=1e-3) -> FiniteContext:
    """Near-independent context: rows are the context marginal plus a tiny
    row-sum-preserving perturbation."""
    base = rng.dirichlet(np.full(m, 8.0))
    noise = rng.standard_normal((n, m))
    noise -= (noise @ base)[:, None]  # zero mean under the base row
    rows = base[None, :] * (1.0 + delta * noise)
    rows = np.clip(rows, 1e-12, None)
    return FiniteContext(rows, DiscreteDistribution.uniform(n), label="perturb")


def _check(name, residuals, tolerance):
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return {"name": name, "max_residual": worst, "tolerance": float(tolerance),
            "passed": bool(worst <= tolerance)}


def equivalence_residuals(objective, rng, n, m, d):
    """(span residual, objective-value residual) between the variational
    and spectral solutions of one objective on a random context."""
    objective = ObjectiveKind(objective)
    ctx, aux = nondegenerate_context(rng, objective, n, m, d)
    opts = VariationalOptions(seed=int(rng.integers(2 ** 31)))
    enc_s = solve_spectral(objective, ctx, d, aux)
    enc_v = solve_variational(objective, ctx, d, opts, aux)
    val_s = eval_objective(objective, ctx, enc_s, aux)
    val_v = eval_objective(objective, ctx, enc_v, aux)
    cos = principal_angle_cosines(enc_v.values, enc_s.values,
                                  enc_s.marginal.weights,
                                  center=_FORMS[objective].biased)
    span_residual = 1.0 - float(np.min(cos)) if cos.size else 1.0
    return span_residual, abs(val_v - val_s)


def worst_compatible_task(spec, values: np.ndarray, eps: float,
                          d: int) -> TaskFunction:
    """Task of compatibility 1 - eps whose error on the d-column encoder
    ``values`` is at least ``worst_case_err(spec, d, eps)``, and equal to it
    at the top-d singular functions.

    In coefficients on modes 1..d+1, g is the unit direction the centred
    span misses (mode-1 coefficient >= 0) and rho its unit part off mode 1
    (mode 2 if none). The task sqrt(1 - b) mode 1 + sqrt(b) rho has
    compatibility exactly 1 - eps; for eps in the formula's range its
    error, at least <task, g>^2, is at least b >= formula.
    """
    if spec.rank < d + 2:
        raise ValueError(f"the spectrum needs {d + 1} nontrivial modes")
    p = spec.input_marginal.weights
    top = spec.left_functions[:, 1:d + 2]  # modes 1..d+1, weighted-orthonormal
    basis = orthonormal_basis(values, p, center=True)
    g = np.linalg.svd(basis.T @ (p[:, None] * top))[2][-1]
    rho = -g if g[0] < 0 else g
    rho[0] = 0.0
    if np.linalg.norm(rho) < 1e-9:
        rho[1] = 1.0
    rho /= np.linalg.norm(rho)
    s_sq = spec.nontrivial_values[:d + 1] ** 2
    b = np.clip((s_sq[0] - (1.0 - eps) ** 2) / (s_sq[0] - s_sq @ rho ** 2), 0, 1)
    coeffs = np.sqrt(b) * rho
    coeffs[0] = np.sqrt(1.0 - b)
    return TaskFunction(top @ coeffs, spec.input_marginal)


def worstcase_residuals(rng, n, m, d=1, n_encoders=100):
    """(|error - formula| at the top-d singular functions, largest shortfall
    below the formula over random encoders), each on the encoder's
    ``worst_compatible_task`` and plus its compatibility deficit, on a
    context with a top gap; raises after ``TRIES`` draws without one."""
    for _ in range(TRIES):
        ctx = random_dense_context(rng, n, m, concentration=0.35)
        spec = contexture_svd(ctx)
        s = spec.nontrivial_values
        if s.size > d and s[0] - s[1] > 0.05 and s[d] < s[0] - 0.05 and s[0] > 0.2:
            break
    else:
        raise NumericalError(f"no top-gap context found after {TRIES} tries")
    s1 = float(s[0])
    lo = 1.0 - s1
    hi = 1.0 - np.sqrt((s1 ** 2 + float(s[1]) ** 2) / 2.0)
    eps = 0.5 * (lo + hi)
    formula = worst_case_err(spec, d, eps)

    def shortfall(values):
        task = worst_compatible_task(spec, values, eps, d)
        err = approx_err(SampleEncoder(values, "input", ctx.input_marginal), task)
        return formula - err, max(0.0, 1.0 - eps - compatibility(spec, task))

    short, deficit = shortfall(spec.left_functions[:, 1:d + 1])
    drawn = [shortfall(rng.standard_normal((ctx.n_inputs, d)))
             for _ in range(n_encoders)]
    lower = max((max(0.0, sh) + de for sh, de in drawn), default=0.0)
    return abs(short) + deficit, lower


def estimation_refinement_residual(rng, n_support=64, n_seeds=20):
    """Largest increase of mean eigenvalue error along a growing-m schedule."""
    pts = PointSet(rng.standard_normal((n_support, 3)))
    ctx = build_rbf_context(pts, gamma=0.8)
    spec = contexture_svd(ctx)
    truth = spec.nontrivial_values[:REFINEMENT_TOP] ** 2
    ms = [n_support // 8, n_support // 4, n_support // 2, n_support]
    errors = []
    for m_sub in ms:
        per_seed = []
        for _ in range(n_seeds):
            sub = subsample_support(ctx, m_sub, seed=int(rng.integers(2 ** 31)))
            sub_spec = contexture_svd(sub)
            est = np.zeros(REFINEMENT_TOP)
            vals = sub_spec.nontrivial_values[:REFINEMENT_TOP] ** 2
            est[:vals.size] = vals
            per_seed.append(float(np.mean(np.abs(est - truth))))
        errors.append(float(np.mean(per_seed)))
    increases = np.diff(errors)
    return max(0.0, float(np.max(increases)))


# ---------------------------------------------------------------------------
# check sections: each takes (rng, n, m, trials) and returns check entries
# ---------------------------------------------------------------------------

def context_checks(rng, n, m, trials) -> list[dict]:
    res_rows, res_marg, res_balance, res_convex = [], [], [], []
    for _ in range(trials):
        pts = PointSet(rng.standard_normal((n, 4)))
        labels = rng.integers(0, 3, size=n)
        mask_seed = int(rng.integers(2 ** 31))
        built = [
            build_knn_context(pts, k=3),
            build_rbf_context(pts, gamma=float(rng.uniform(0.1, 2.0))),
            build_masked_context(pts, ("rbf", 0.5), 0.25, 4, mask_seed),
            build_label_context(labels) if np.unique(labels).size >= 2 else None,
            random_graph_context(rng, n),
        ]
        for ctx in built:
            if ctx is None:
                continue
            res_rows.append(np.max(np.abs(ctx.conditional.sum(axis=1) - 1.0)))
            recomputed = DiscreteDistribution(
                ctx.conditional.T @ ctx.input_marginal.weights)
            res_marg.append(np.max(np.abs(
                recomputed.weights - ctx.context_marginal.weights)))
        graph = built[-1]
        pq = graph.input_marginal.weights[:, None] * graph.conditional
        res_balance.append(np.max(np.abs(pq - pq.T)))
        masked = built[2]
        mask_rng = np.random.default_rng(mask_seed)
        avg = np.zeros((n, n))
        n_masked = round(0.25 * 4)
        for _ in range(4):
            drop = mask_rng.choice(4, size=n_masked, replace=False)
            keep = np.setdiff1d(np.arange(4), drop)
            avg += build_rbf_context(PointSet(pts.points[:, keep]), 0.5).conditional
        res_convex.append(np.max(np.abs(masked.conditional - avg / 4)))
    return [_check("context_rows_stochastic", res_rows, 1e-12),
            _check("context_marginal_consistent", res_marg, 0.0),
            _check("graph_detailed_balance", res_balance, 1e-12),
            _check("masked_rows_convex_average", res_convex, 1e-12)]


def spectral_checks(rng, n, m, trials) -> list[dict]:
    res_adj, res_dual, res_jensen, res_eig, res_trace, res_joint = ([] for _ in range(6))
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        adj = adjoint_matrix(ctx)
        p, q = ctx.input_marginal.weights, ctx.context_marginal.weights
        for _ in range(5):
            f = rng.standard_normal(n)
            g = rng.standard_normal(m)
            res_adj.append(abs(float(p @ (f * (ctx.conditional @ g)))
                               - float(q @ ((adj @ f) * g))))
        spec = contexture_svd(ctx)
        forward, backward = singular_residuals(spec, ctx)
        res_dual.append(max(forward.max(), backward.max()))
        res_jensen.append(float(np.max(spec.singular_values)) - 1.0)
        kx = dual_kernel(ctx)
        lam = spec.singular_values ** 2
        resid = kx @ (p[:, None] * spec.left_functions) - spec.left_functions * lam
        res_eig.append(max(weighted_norm(resid[:, i], p) for i in range(spec.rank)))
        res_trace.append(abs(float(np.sum(lam)) - float(p @ np.diag(kx))))
        res_joint.append(np.max(np.abs(reconstruct_joint(spec)
                                       - p[:, None] * ctx.conditional)))
    return [_check("operator_adjoint_identity", res_adj, 1e-10),
            _check("singular_duality", res_dual, 1e-8),
            _check("singular_values_at_most_one", res_jensen, 1e-10),
            _check("left_functions_eigenconsistent", res_eig, 1e-8),
            _check("squared_trace_identity", res_trace, 1e-8),
            _check("full_rank_joint_reconstruction", res_joint, 1e-8)]


def objective_equivalence_checks(rng, n, m, trials) -> list[dict]:
    checks = []
    for kind in ObjectiveKind:
        span_res, value_res = zip(*(equivalence_residuals(kind, rng, n, m, d=2)
                                    for _ in range(trials)))
        checks.append(_check(f"objective_span_{kind.value}", span_res, 0.01))
        checks.append(_check(f"objective_value_{kind.value}", value_res, 1e-3))
    return checks


def balanced_collapse_checks(rng, n, m, trials) -> list[dict]:
    # with a uniform context marginal the indicator-kernel operator is a
    # scaled dual-kernel operator, so the unbiased top-d span equals the
    # constant plus the top-(d-1) contexture span; deterministic balanced
    # labels are fully degenerate, so they are compared at full rank only
    def span_gap(ctx):
        unbiased = solve_spectral(ObjectiveKind.SUPERVISED_UNBIASED, ctx, 3)
        contexture = solve_spectral(ObjectiveKind.SUPERVISED_BALANCED, ctx, 2)
        with_const = np.concatenate([np.ones((n, 1)), contexture.values], axis=1)
        cos = principal_angle_cosines(unbiased.values, with_const,
                                      ctx.input_marginal.weights)
        return 1.0 - float(np.min(cos))

    res = [span_gap(random_doubly_stochastic_context(rng, n))
           for _ in range(trials)]
    res.append(span_gap(build_label_context(np.arange(n) % 3)))
    return [_check("balanced_class_collapse", res, 1e-8)]


def minimality_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for kind in (ObjectiveKind.SUPERVISED_BALANCED,
                 ObjectiveKind.MULTIVIEW_NONCONTRASTIVE,
                 ObjectiveKind.REGRESSION_BIASED):
        ctx, aux = nondegenerate_context(rng, kind, n, m, d=2)
        enc = solve_spectral(kind, ctx, 2, aux)
        best = eval_objective(kind, ctx, enc, aux)
        loss, basis = _population_loss(kind, ctx, aux)
        rand_best = min(loss(basis(rng.standard_normal((len(enc.marginal), 2))))[0]
                        for _ in range(200))
        res.append(max(0.0, best - rand_best))
    return [_check("spectral_solution_minimality", res, 1e-9)]


def average_encoder_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        psi1 = SampleEncoder(rng.standard_normal((m, 2)), "context",
                             ctx.context_marginal)
        psi2 = SampleEncoder(rng.standard_normal((m, 2)), "context",
                             ctx.context_marginal)
        alpha = float(rng.uniform(-2, 2))
        combined = SampleEncoder(alpha * psi1.values + psi2.values, "context",
                                 ctx.context_marginal)
        gap = (average_encoder(ctx, combined).values
               - alpha * average_encoder(ctx, psi1).values
               - average_encoder(ctx, psi2).values)
        res.append(np.max(np.abs(gap)))
    return [_check("average_encoder_linear", res, 1e-12)]


def compatibility_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        spec = contexture_svd(ctx)
        f = TaskFunction(rng.standard_normal(n), ctx.input_marginal).normalize()
        direct = weighted_norm(adjoint_matrix(ctx) @ f.values,
                               ctx.context_marginal.weights)
        res.append(abs(compatibility(spec, f) - direct))
    return [_check("compatibility_matches_maximization", res, 1e-6)]


def worstcase_checks(rng, n, m, trials) -> list[dict]:
    res_formula, res_lower = zip(*(
        worstcase_residuals(rng, min(n, 20), m, d=1, n_encoders=20)
        for _ in range(trials)))
    return [_check("worstcase_two_mode_formula", res_formula, 1e-10),
            _check("worstcase_lower_bounds_encoders", res_lower, 1e-6)]


def tau_padding_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        s = np.sort(rng.uniform(0, 0.95, size=6))[::-1]
        d0 = 8
        a = usefulness_metric(s, d0, 1.0).tau_curve
        b = usefulness_metric(np.concatenate([s, np.zeros(4)]), d0, 1.0).tau_curve
        res.append(np.max(np.abs(a - b)))
    return [_check("tau_zero_padding_invariant", res, 0.0)]


def ratio_trace_checks(rng, n, m, trials) -> list[dict]:
    res_mix, res_bound = [], []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        spec = contexture_svd(ctx)
        d = min(3, spec.rank - 1)
        base = SampleEncoder(spec.left_functions[:, 1:d + 1], "input",
                             ctx.input_marginal)
        t0 = ratio_trace(base, ctx)
        mixer = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        mixed = SampleEncoder(base.values @ mixer, "input", ctx.input_marginal)
        res_mix.append(abs(ratio_trace(mixed, ctx) - t0) / max(abs(t0), 1e-12))
        cap = float(np.sum(spec.nontrivial_values[:d] ** 2))
        rand_enc = SampleEncoder(rng.standard_normal((n, d)), "input",
                                 ctx.input_marginal)
        res_bound.append(max(0.0, ratio_trace(rand_enc, ctx) - cap))
    return [_check("ratio_trace_mixing_invariant", res_mix, 1e-8),
            _check("ratio_trace_upper_bound", res_bound, 1e-10)]


def approx_err_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        f = TaskFunction(rng.standard_normal(n), ctx.input_marginal).normalize()
        cols = rng.standard_normal((n, 4))
        errs = [approx_err(SampleEncoder(cols[:, :j], "input",
                                         ctx.input_marginal), f)
                for j in range(1, 5)]
        res.append(max(0.0, float(np.max(np.diff(errs)))))
    return [_check("approx_err_monotone_in_columns", res, 1e-10)]


def cca_checks(rng, n, m, trials) -> list[dict]:
    res = []
    ctx = random_dense_context(rng, n, m)
    enc = SampleEncoder(rng.standard_normal((n, 3)), "input", ctx.input_marginal)
    for _ in range(50):
        mixed = SampleEncoder(enc.values @ random_invertible(rng, 3), "input",
                              ctx.input_marginal)
        res.append(abs(1.0 - cca_alignment(enc, mixed, ctx.input_marginal)))
    return [_check("cca_mixing_invariance", res, 1e-8)]


def lift_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        spec = contexture_svd(ctx)
        active = spec.nontrivial_values > 1e-6
        coeffs = rng.standard_normal(int(np.sum(active)))
        f_vals = spec.left_functions[:, 1:][:, active] @ coeffs
        f = TaskFunction(f_vals, ctx.input_marginal).normalize()
        g, _, _ = compatible_lift(spec, f)
        res.append(weighted_norm(ctx.conditional @ g - f.values,
                                 ctx.input_marginal.weights))
    return [_check("compatible_lift_reconstruction", res, 1e-8)]


def weak_association_checks(rng, n, m, trials) -> list[dict]:
    res = []
    for _ in range(trials):
        ctx = _perturbation_context(rng, n, m)
        kx = dual_kernel(ctx)
        eps = float(np.max(np.abs(kx - 1.0))) + 1e-15
        total = float(np.sum(contexture_svd(ctx).nontrivial_values ** 2))
        res.append(max(0.0, total - eps))
    return [_check("weak_association_mass_bound", res, 0.0)]


def estimation_checks(rng, n, m, trials) -> list[dict]:
    res_bound, res_mix = [], []
    for _ in range(trials):
        ctx = random_dense_context(rng, n, m)
        spec = contexture_svd(ctx)
        d = min(3, spec.rank - 1)
        mixer = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        enc = SampleEncoder(spec.left_functions[:, 1:d + 1] @ mixer, "input",
                            ctx.input_marginal)
        cov = estimate_covariances(enc, ctx)
        evals, _ = estimate_spectrum_posthoc(enc, cov, top=d)
        res_bound.append(float(np.max(evals)) - 1.0)
        res_mix.append(float(np.max(np.abs(
            evals - spec.nontrivial_values[:d] ** 2))))
    return [_check("estimated_eigenvalues_at_most_one", res_bound, 1e-8),
            _check("estimated_eigenvalues_mixing_invariant", res_mix, 1e-8)]


def refinement_checks(rng, n, m, trials) -> list[dict]:
    res = [estimation_refinement_residual(rng, n_support=min(64, 8 * (n // 8 or 1)),
                                          n_seeds=20)]
    return [_check("estimation_error_monotone_in_m", res, 0.01)]


# report order; section i draws from the stream seeded by [seed, i + 1]
SECTIONS = (context_checks, spectral_checks, objective_equivalence_checks,
            balanced_collapse_checks, minimality_checks, average_encoder_checks,
            compatibility_checks, worstcase_checks, tau_padding_checks,
            ratio_trace_checks, approx_err_checks, cca_checks, lift_checks,
            weak_association_checks, estimation_checks, refinement_checks)


def verify_theorems(n: int = 24, m: int = 20, trials: int = 3,
                    seed: int = 0) -> dict:
    """Run every module's invariant suite on random contexts.

    Returns a structured report: one entry per named check with its worst
    observed residual and tolerance. Failures are report entries, never
    exceptions. Sizes start at 4: objective checks need a gap after 2.
    """
    if not (4 <= n <= 80 and 4 <= m <= 80):
        raise ValueError("n and m must be in [4, 80]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    checks = []
    for stream, section in enumerate(SECTIONS, start=1):
        checks += section(np.random.default_rng([seed, stream]), n, m, trials)
    return {
        "n": n, "m": m, "trials": trials, "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
