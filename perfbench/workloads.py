"""The three benchmark workloads and their check against the dense oracle.

Each workload turns ``--seed`` into one of ``VARIANTS`` input sets
(``seed % VARIANTS``), prepares them (set-up), and runs iterations. An
iteration returns its report bytes and, per operation, the outputs the
reference files under ``reference/`` hold for that variant. Those files
were produced by the dense exact path (``make_reference.py``); they are
the oracle every iteration is compared against.

- ``sweep-waves-2000``: one ``run_experiment`` sweep; an operation is one
  context of the 12-context grid.
- ``score-masked-1000``: the per-context scoring path (build, rank-65 SVD,
  spectrum JSON round trip, usefulness report, exact and pair-sampled
  post-hoc estimation), plus one ``verify_theorems`` run at the CLI default;
  an operation is one context or one check.
- ``verify-seeds``: ``verify_theorems`` at two sizes for four seeds; an
  operation is one check. Its wall time is bound by the Python interpreter
  and swings by up to 1.5x between minutes on a shared host, so
  ``BENCHMARK.json`` does not list it; run it for the verify baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contexture import (context, datasets, estimation, evaluation, harness,
                        objectives, spectral)
from contexture._linalg import as_native
from contexture.errors import NumericalError

VARIANTS = 16
RTOL = 1e-10
# decay_rate is a golden-section argmin of a flat objective, resolved to
# about the square root of machine epsilon, and near 0 to the search's 1e-12
# absolute bracket
DECAY_RTOL, DECAY_ATOL = 1e-6, 1e-9
# backward error of the dense SVD, about n * eps * |A| at n = 1400; the span
# of the top-d singular functions moves by up to this over the gap s_d - s_d+1
SVD_ETA = 1e-13
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def canonical_json(obj) -> bytes:
    return json.dumps(as_native(obj), sort_keys=True).encode()


@dataclass
class Outcome:
    """What one iteration produced."""

    payload: bytes
    outputs: dict  # operation -> outputs compared with the reference
    errors: dict = field(default_factory=dict)  # operation -> exception text


@dataclass
class Tally:
    """One iteration's outcome judged against the reference.

    ``failed`` counts operations that raised, went missing, or disagree with
    the oracle; ``errors`` adds the failures the oracle itself records (the
    verify checks that already fail at the reference commit).
    """

    attempted: int
    failed: int
    errors: int
    messages: list
    failing: list


def _close(a, b, rtol=RTOL, atol=0.0) -> bool:
    """Equal within ``rtol`` relative or ``atol`` absolute, through dicts
    and lists; inf == inf and nan == nan. A ``decay_rate`` field is
    compared at ``DECAY_RTOL`` and ``DECAY_ATOL``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _close(a[k], b[k], DECAY_RTOL, DECAY_ATOL) if k == "decay_rate"
            else _close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rtol, atol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)
    return a == b


def judge(outcome: Outcome, reference: dict, same=_close) -> Tally:
    """Judge every reference operation.

    Outputs are compared with ``same``. A verify check (an operation whose
    reference holds ``passed``) fails the operation only if it passed at the
    reference and fails now; one that already failed there is a known
    failure, counted in ``errors`` and listed; one that passes where it
    failed is a fix.
    """
    failed, errors, messages, failing = 0, 0, [], []
    for op, expected in reference.items():
        actual = outcome.outputs.get(op)
        raised = outcome.errors.get(op) or outcome.errors.get(op.rsplit(" ", 1)[0])
        if raised or actual is None:
            failed += 1
            errors += 1
            messages.append(f"{op}: raised {raised}" if raised else f"{op}: missing")
        elif "passed" in expected:
            if not actual["passed"]:
                errors += 1
                failing.append(op)
                if expected["passed"]:
                    failed += 1
                    messages.append(f"{op}: passed at the reference, fails now")
            elif not expected["passed"]:
                messages.append(f"{op}: failed at the reference, passes now")
        elif not same(actual, expected):
            failed += 1
            errors += 1
            messages.append(f"{op}: differs from the reference")
    return Tally(len(reference), failed, errors, messages, failing)


def verify_checks(seed: int, n: int, m: int, trials: int, outputs: dict, errors: dict):
    """Run ``verify_theorems``, adding one operation per check to ``outputs``
    (or the exception to ``errors``); returns the report or None."""
    prefix = f"seed={seed} n={n} m={m}"
    try:
        report = harness.verify_theorems(n=n, m=m, trials=trials, seed=seed)
    except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
        errors[prefix] = f"{type(exc).__name__}: {exc}"
        return None
    for check in report["checks"]:
        outputs[f"{prefix} {check['name']}"] = {"passed": check["passed"]}
    return report


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sweep-waves-2000
# ---------------------------------------------------------------------------

def _same_sweep_entry(entry: dict, expected: dict) -> bool:
    """err_d at d depends on the span of the top-d singular functions, which
    is fixed only to ``SVD_ETA / gap`` (Davis-Kahan), so that is its
    tolerance; at a gap under ``SVD_ETA`` the span is arbitrary and err_d is
    not compared."""
    curve, ref_curve = entry["err_d"], expected["err_d"]
    if [d for d, _ in curve] != [d for d, _, _ in ref_curve]:
        return False
    scalars = {k: v for k, v in entry.items() if k != "err_d"}
    ref_scalars = {k: v for k, v in expected.items() if k != "err_d"}
    return _close(scalars, ref_scalars) and all(
        gap <= SVD_ETA or _close(err, ref_err, max(RTOL, SVD_ETA / gap))
        for (_, err), (_, ref_err, gap) in zip(curve, ref_curve))


class Sweep:
    name = "sweep-waves-2000"
    operation = "contexts"
    n_rows = 2000
    splits = (0.7, 0.15, 0.15)

    def prepare(self, variant: int, workdir: Path):
        csv_path = workdir / f"waves-{self.n_rows}-v{variant}.csv"
        datasets.make_waves(csv_path, n=self.n_rows, seed=1 + variant)
        n_pre = len(harness.split_dataset(self.n_rows, self.splits, variant)[0])
        config = harness.ExperimentConfig(
            dataset_path=str(csv_path),
            target_column="y",
            context_grid=harness.default_context_grid(n_pre, per_family=6),
            ridge_grid=[1e-6, 1e-4, 1e-2, 1.0],
            d_grid=[1, 2, 4, 8, 16, 32],
            split_fractions=self.splits,
            d0=64,
            beta=1.0,
            seed=variant,
        )
        return config, workdir / "report.json"

    def iterate(self, state) -> Outcome:
        config, report_path = state
        report = harness.run_experiment(config)
        harness.write_report(report, report_path)
        outputs = {e["descriptor"]: {"tau": e["tau"],
                                     "d_star_metric": e["d_star_metric"],
                                     "decay_rate": e["decay_rate"],
                                     "err_d": e["err_d"]}
                   for e in report["per_context"]}
        errors = {f["descriptor"]: f["error"] for f in report["failures"]}
        return Outcome(report_path.read_bytes(), outputs, errors)

    @staticmethod
    def reference_outputs(outcome: Outcome, spectra: list) -> dict:
        """Attach to each err_d entry the gap s_d - s_(d+1) of its context's
        nontrivial spectrum (one ``contexture_svd`` per context, grid order)."""
        outputs = {}
        for (op, entry), values in zip(outcome.outputs.items(), spectra):
            padded = np.concatenate([values, [0.0]])
            outputs[op] = dict(entry, err_d=[[d, err, float(padded[d - 1] - padded[d])]
                                             for d, err in entry["err_d"]])
        return outputs

    @staticmethod
    def judge(outcome: Outcome, reference: dict) -> Tally:
        return judge(outcome, reference, same=_same_sweep_entry)


# ---------------------------------------------------------------------------
# score-masked-1000
# ---------------------------------------------------------------------------

class Score:
    name = "score-masked-1000"
    operation = "operations (2 contexts, 44 verify checks)"
    n_rows = 1000
    descriptors = ("rbf+mask:0.1:0.2:50", "knn+mask:20:0.4:50")
    rank = 65
    n_features = 64
    n_pairs = 200_000
    top = 16

    def prepare(self, variant: int, workdir: Path):
        csv_path = workdir / f"waves-{self.n_rows}-v{variant}.csv"
        datasets.make_waves(csv_path, n=self.n_rows, seed=1 + variant)
        points, _ = harness.load_dataset(csv_path, "y")
        z = harness.zscore_by_reference(points.points, np.arange(self.n_rows))
        # random Fourier features: the wide encoder post-hoc estimation reads
        rng = np.random.default_rng(derived_seed(variant, 0))
        freqs = rng.standard_normal((z.shape[1], self.n_features))
        phases = rng.uniform(0.0, 2.0 * np.pi, self.n_features)
        features = np.sqrt(2.0 / self.n_features) * np.cos(z @ freqs + phases)
        return context.PointSet(z), features, variant, workdir

    def iterate(self, state) -> Outcome:
        points, features, variant, workdir = state
        outputs, errors, record = {}, {}, {}
        for ci, descriptor in enumerate(self.descriptors):
            try:
                outputs[descriptor], record[descriptor] = self._score(
                    descriptor, points, features, derived_seed(variant, 1, ci),
                    workdir / f"spectrum-{ci}.json")
            except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
                errors[descriptor] = f"{type(exc).__name__}: {exc}"
        # the verify CLI default keeps the objectives layer and verify_theorems
        # in a workload whose wall time is not dominated by them
        record["verify"] = verify_checks(4 * variant, *Verify.cli_default, outputs, errors)
        return Outcome(canonical_json(record), outputs, errors)

    def _score(self, descriptor, points, features, seed, spectrum_path):
        ctx = context.build_from_descriptor(descriptor, points, seed=seed)
        spec = spectral.contexture_svd(ctx, rank=self.rank)
        spectral.save_spectrum(spec, spectrum_path)
        loaded = spectral.load_spectrum(spectrum_path)
        if not (np.array_equal(loaded.singular_values, spec.singular_values)
                and np.array_equal(loaded.left_functions, spec.left_functions)
                and np.array_equal(loaded.clamped, spec.clamped)):
            raise ValueError("spectrum changed in the save/load round trip")
        report = evaluation.make_usefulness_report(loaded, ctx, points,
                                                   d0=64, beta=1.0)
        enc = objectives.SampleEncoder(features, "input", ctx.input_marginal)
        exact = estimation.estimate_covariances(enc, ctx, mode="exact")
        ev_exact, _ = estimation.estimate_spectrum_posthoc(enc, exact, self.top)
        sampled = estimation.estimate_covariances(
            enc, ctx, mode="pair_sampled", n_pairs=self.n_pairs, seed=seed)
        ev_sampled, _ = estimation.estimate_spectrum_posthoc(enc, sampled,
                                                             self.top)
        outputs = {"tau": report.tau,
                   "decay_rate": report.decay_rate,
                   "kernel_deviation": report.kernel_deviation,
                   "lipschitz": report.lipschitz,
                   "posthoc_exact": ev_exact.tolist(),
                   "posthoc_pair_sampled": ev_sampled.tolist()}
        record = dict(report.to_json_dict(), **outputs,
                      singular_values=spec.singular_values)
        return outputs, record

    judge = staticmethod(judge)


# ---------------------------------------------------------------------------
# verify-seeds
# ---------------------------------------------------------------------------

class Verify:
    name = "verify-seeds"
    operation = "checks"
    cli_default = (24, 20, 3)  # n, m, trials of ``contexture verify``
    sizes = (cli_default[:2], (80, 80))  # the CLI default and the upper bound
    trials = 3

    def prepare(self, variant: int, workdir: Path):
        return [4 * variant + j for j in range(4)]

    def iterate(self, seeds) -> Outcome:
        reports, outputs, errors = [], {}, {}
        for seed in seeds:
            for n, m in self.sizes:
                reports.append(verify_checks(seed, n, m, self.trials, outputs, errors))
        return Outcome(canonical_json(reports), outputs, errors)

    judge = staticmethod(judge)


WORKLOADS = {w.name: w for w in (Sweep(), Score(), Verify())}


def outputs_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
