#!/usr/bin/env python3
"""Run a default context-grid sweep on one CSV dataset and print the
metric-versus-error correlations.

Usage: python scripts/run_sweep.py DATASET.csv TARGET_COLUMN [OUT.json]
"""

import sys
from pathlib import Path

from contexture import ExperimentConfig, load_dataset, run_experiment, write_report
from contexture.harness import (DEFAULT_SPLIT, REFERENCE_MEDIANS,
                               default_context_grid, split_dataset)


def default_config(dataset, target: str, seed: int = 0) -> ExperimentConfig:
    """The default sweep of one CSV dataset at one split and config seed."""
    points, _ = load_dataset(dataset, target)
    # the neighbour counts of the grid stop at the pretrain size
    n_pre = len(split_dataset(points.n_points, DEFAULT_SPLIT, seed)[0])
    return ExperimentConfig(
        dataset_path=str(dataset),
        target_column=target,
        context_grid=default_context_grid(n_pre, per_family=18),
        ridge_grid=[1e-6, 1e-4, 1e-2, 1.0],
        d_grid=[1, 2, 4, 8, 16, 32],
        d0=64,
        seed=seed,
    )


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    dataset, target = sys.argv[1], sys.argv[2]
    out = Path(sys.argv[3]) if len(sys.argv) > 3 else None

    report = run_experiment(default_config(dataset, target))
    summary = report["summary"]
    print(f"{len(report['per_context'])} contexts evaluated, "
          f"{len(report['failures'])} failed")
    print(f"pearson(tau, err) = {summary['pearson']}")
    print(f"distance_corr(tau, err) = {summary['distance_corr']}")
    print(f"reference medians on public tabular suites: "
          f"pearson {REFERENCE_MEDIANS['pearson']}, "
          f"distance {REFERENCE_MEDIANS['distance_corr']}")
    if out is not None:
        write_report(report, out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
