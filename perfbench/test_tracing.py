"""Tracing must be transparent: identical report bytes, originals restored.

Run from the repository root: ``python3 -m pytest perfbench/test_tracing.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contexture import datasets, harness  # noqa: E402

from layers import METRICS, TARGETS, layer_values  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import canonical_json  # noqa: E402


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items() if name.startswith("contexture")
            for attr, value in vars(mod).items() if callable(value)}


def _sweep(tmp_path):
    csv_path = tmp_path / "waves.csv"
    datasets.make_waves(csv_path, n=150, seed=3)
    config = harness.ExperimentConfig(
        dataset_path=str(csv_path), target_column="y",
        context_grid=["rbf:0.5", "knn:4", "rbf+mask:0.5:0.2:3"],
        ridge_grid=[1e-4, 1.0], d_grid=[1, 4], d0=16, seed=2)
    report_path = tmp_path / "report.json"
    harness.write_report(harness.run_experiment(config), report_path)
    return report_path.read_bytes()


def _sweep_and_verify(tmp_path):
    verify = harness.verify_theorems(n=8, m=6, trials=1, seed=5)
    return _sweep(tmp_path) + canonical_json(verify)


def _traced(fn, tmp_path):
    tracer = Tracer("test")
    tracer.install(TARGETS)
    try:
        return fn(tmp_path), tracer
    finally:
        tracer.remove()


def test_traced_reports_are_byte_identical_and_wrappers_removed(tmp_path):
    before = _bindings()
    untraced = _sweep_and_verify(tmp_path)
    traced, tracer = _traced(_sweep_and_verify, tmp_path)
    assert traced == untraced
    assert _bindings() == before
    for name, start, end, parent in tracer.spans:
        assert end >= start
        if parent is not None:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end


def test_computed_counts_follow_the_argument_shapes(tmp_path):
    _, tracer = _traced(_sweep, tmp_path)
    values = layer_values(tracer)
    assert set(values) == {name for name, _, _ in METRICS}
    n_pre = 105  # pretrain rows of 150
    # three contexts x two d values x (downstream, test) extensions
    assert values["harness.extend_encoder.calls"] == 12
    assert values["harness.extend_encoder.distinct_share"] == 2 / 12
    assert values["evaluation.fit_linear_probe.calls"] == 6
    # rbf and knn once each, the masked context once per mask
    assert values["context.build.calls"] == 3
    assert values["context.build.distance_entries"] == 5 * n_pre ** 2
    assert values["spectral.svd.calls"] == 3
    assert values["spectral.svd.requested_share"] == 1.0
    assert values["objectives.solve_variational.calls"] == 0
