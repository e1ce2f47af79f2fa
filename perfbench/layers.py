"""Which contexture functions the traced run wraps, and the per-layer metrics.

Layers are the package modules: ``context``, ``spectral``, ``objectives``,
``evaluation``, ``estimation``, ``harness`` and ``datasets``. Self time is a
span's duration minus the time its child spans cover. Metrics marked
computed come from argument shapes and repeat exactly. A function a
workload never calls reports 0.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer, array_digest

SVD = "spectral.svd"
EXTEND = "harness.extend_encoder"
NONDEGENERATE = "harness.nondegenerate_context"


def _add(key, amount):
    def count(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return count


def _squared_points(args, result):
    return args["points"].n_points ** 2


def _masked_entries(args, result):
    return args["n_masks"] * args["points"].n_points ** 2


def _svd_shares(tracer, args, result):
    n, m = args["ctx"].conditional.shape
    tracer.counts["svd.requested"] += min(n, m) if args["rank"] is None else args["rank"]
    tracer.counts["svd.full"] += min(n, m)


def _spectrum_bytes(args, result):
    return os.path.getsize(args["path"])


def _extend_sets(tracer, args, result):
    tracer.counts["extend.calls"] += 1
    tracer.seen[EXTEND].add((array_digest(args["train_points"]),
                             array_digest(args["query_points"])))


def _eigen_try(tracer, args, result):
    if tracer.current == NONDEGENERATE:
        tracer.counts["nondegenerate.tries"] += 1


def _lipschitz_pairs(args, result):
    n = args["ctx"].n_inputs
    sample = min(args["lipschitz_sample"], n)
    if sample == n:
        size = n
    else:
        size = np.unique(np.round(np.linspace(0, n - 1, sample)).astype(int)).size
    return size * (size - 1) // 2


def _covariance_name(args):
    return f"estimation.{args['mode']}"


def _covariance_counts(tracer, args, result):
    if args["mode"] == "pair_sampled":
        tracer.counts["pair_sampled.pairs"] += args["n_pairs"]
        ctx = args["ctx"]
        tracer.counts["pair_sampled.adjoint"] += ctx.n_inputs * ctx.n_context


TARGETS = [
    Target("contexture.context", "build_from_descriptor", "context.build", memory=True),
    Target("contexture.context", "build_knn_context", "context.build", memory=True,
           count=_add("distance_entries", _squared_points)),
    Target("contexture.context", "build_rbf_context", "context.build", memory=True,
           count=_add("distance_entries", _squared_points)),
    Target("contexture.context", "build_masked_context", "context.build", memory=True,
           count=_add("distance_entries", _masked_entries)),
    Target("contexture.context", "build_label_context", "context.build", memory=True),
    Target("contexture.context", "build_graph_context", "context.build", memory=True),
    Target("contexture.spectral", "contexture_svd", SVD, memory=True, count=_svd_shares),
    Target("contexture.spectral", "save_spectrum", "spectral.spectrum_io",
           count=_add("spectrum_io.bytes", _spectrum_bytes)),
    Target("contexture.spectral", "load_spectrum", "spectral.spectrum_io",
           count=_add("spectrum_io.bytes", _spectrum_bytes)),
    Target("contexture.harness", "extend_encoder", EXTEND, memory=True, count=_extend_sets),
    Target("contexture.harness", "run_experiment", "harness.run_experiment"),
    Target("contexture.harness", "verify_theorems", "harness.verify_theorems"),
    Target("contexture.harness", "nondegenerate_context", NONDEGENERATE),
    Target("contexture.objectives", "operator_eigenvalues", count=_eigen_try, span=False),
    Target("contexture.objectives", "solve_variational", "objectives.solve_variational"),
    Target("contexture.objectives", "eval_objective", "objectives.eval_objective"),
    Target("contexture.objectives", "solve_spectral", "objectives.solve_spectral"),
    Target("contexture.evaluation", "make_usefulness_report", "evaluation.usefulness_report",
           count=_add("lipschitz_pairs", _lipschitz_pairs)),
    Target("contexture.evaluation", "fit_linear_probe", "evaluation.fit_linear_probe"),
    Target("contexture.evaluation", "decay_rate", "evaluation.decay_rate"),
    Target("contexture.evaluation", "usefulness_metric", "evaluation.usefulness_metric"),
    Target("contexture.estimation", "estimate_covariances", _covariance_name,
           count=_covariance_counts),
    Target("contexture.estimation", "estimate_spectrum_posthoc", "estimation.posthoc"),
    Target("contexture.estimation", "subsample_support", "estimation.subsample_support"),
] + [Target("contexture.datasets", attr, "datasets.generate")
     for attr in ("make_rings", "make_waves", "make_blobs", "make_planted",
                  "make_planted_graph", "write_benchmark_suite")]

# (metric, unit, better); the order is the order of the printed result
METRICS = [
    ("context.build.calls", "count", "lower"),
    ("context.build.self_s", "s", "lower"),
    ("context.build.peak_mb", "MB", "lower"),
    ("context.build.distance_entries", "count", "lower"),
    ("spectral.svd.calls", "count", "lower"),
    ("spectral.svd.self_s", "s", "lower"),
    ("spectral.svd.peak_mb", "MB", "lower"),
    ("spectral.svd.requested_share", "ratio", "lower"),
    ("spectral.spectrum_io.self_s", "s", "lower"),
    ("spectral.spectrum_io.bytes", "bytes", "lower"),
    ("harness.extend_encoder.calls", "count", "lower"),
    ("harness.extend_encoder.self_s", "s", "lower"),
    ("harness.extend_encoder.peak_mb", "MB", "lower"),
    ("harness.extend_encoder.distinct_share", "ratio", "higher"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.verify_theorems.self_s", "s", "lower"),
    ("harness.nondegenerate_context.calls", "count", "lower"),
    ("harness.nondegenerate_context.self_s", "s", "lower"),
    ("harness.nondegenerate_context.accept_share", "ratio", "higher"),
    ("objectives.solve_variational.calls", "count", "lower"),
    ("objectives.solve_variational.self_s", "s", "lower"),
    ("objectives.eval_objective.calls", "count", "lower"),
    ("objectives.eval_objective.self_s", "s", "lower"),
    ("objectives.solve_spectral.calls", "count", "lower"),
    ("objectives.solve_spectral.self_s", "s", "lower"),
    ("evaluation.usefulness_report.calls", "count", "lower"),
    ("evaluation.usefulness_report.self_s", "s", "lower"),
    ("evaluation.usefulness_report.lipschitz_pairs", "count", "lower"),
    ("evaluation.fit_linear_probe.calls", "count", "lower"),
    ("evaluation.fit_linear_probe.self_s", "s", "lower"),
    ("evaluation.decay_rate.self_s", "s", "lower"),
    ("evaluation.usefulness_metric.self_s", "s", "lower"),
    ("estimation.exact.self_s", "s", "lower"),
    ("estimation.pair_sampled.self_s", "s", "lower"),
    ("estimation.pair_sampled.pairs", "count", "lower"),
    ("estimation.pair_sampled.adjoint_entries", "count", "lower"),
    ("estimation.posthoc.self_s", "s", "lower"),
    ("estimation.subsample_support.calls", "count", "lower"),
    ("estimation.subsample_support.self_s", "s", "lower"),
    ("datasets.generate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
]

COMPUTED = {"context.build.distance_entries", "spectral.svd.requested_share",
            "harness.extend_encoder.distinct_share",
            "evaluation.usefulness_report.lipschitz_pairs",
            "estimation.pair_sampled.pairs",
            "estimation.pair_sampled.adjoint_entries",
            "harness.nondegenerate_context.accept_share"}


def _share(num, den):
    return num / den if den else 0.0


def layer_values(tracer: Tracer) -> dict:
    """Every span and count metric; ``trace.*`` and ``error_rate`` are added
    by the caller, which knows the traced and untraced wall times."""
    stats = tracer.span_stats()
    counts = tracer.counts
    values = {}
    for metric, _, _ in METRICS:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and span in stats:
            values[metric] = stats[span][field]
        elif field == "peak_mb":
            values[metric] = tracer.peaks.get(span, 0.0)
        else:
            values[metric] = 0
    values.update({
        "context.build.distance_entries": counts["distance_entries"],
        "spectral.svd.requested_share": _share(counts["svd.requested"],
                                               counts["svd.full"]),
        "spectral.spectrum_io.bytes": counts["spectrum_io.bytes"],
        "harness.extend_encoder.distinct_share": _share(
            len(tracer.seen[EXTEND]), counts["extend.calls"]),
        "harness.nondegenerate_context.accept_share": _share(
            stats[NONDEGENERATE]["calls"] if NONDEGENERATE in stats else 0,
            counts["nondegenerate.tries"]),
        "evaluation.usefulness_report.lipschitz_pairs": counts["lipschitz_pairs"],
        "estimation.pair_sampled.pairs": counts["pair_sampled.pairs"],
        "estimation.pair_sampled.adjoint_entries": counts["pair_sampled.adjoint"],
    })
    return values
