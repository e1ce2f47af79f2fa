#!/usr/bin/env python3
"""Run the default context-grid sweep over the synthetic suite and write the
per-dataset medians of the metric-versus-error correlations beside the
paper's reference medians.

Each of ``make_rings``, ``make_waves`` and ``make_blobs`` is generated at
seeds 100 + i and swept with split and config seed i, for i = 0-7: 24
sweeps, each with the config ``run_sweep.py`` builds. The seed list is
fixed; the report is byte-identical from run to run.

Usage: python scripts/run_suite.py OUT.json
"""

import statistics
import sys
import tempfile
from pathlib import Path

from contexture import run_experiment, write_report
from contexture.datasets import make_blobs, make_rings, make_waves
from contexture.harness import REFERENCE_MEDIANS
from run_sweep import default_config

DATASETS = {"rings": (make_rings, "band"), "waves": (make_waves, "y"),
            "blobs": (make_blobs, "value")}
SEEDS = range(8)
STATISTICS = ("pearson", "distance_corr")


def sweep(path: Path, target: str, seed: int) -> dict:
    """The summary of ``run_sweep.py``'s sweep of one table at one seed."""
    summary = run_experiment(default_config(path, target, seed))["summary"]
    return {"generator_seed": 100 + seed, "seed": seed,
            "pearson": summary["pearson"],
            "distance_corr": summary["distance_corr"],
            "n_correlated": summary["n_correlated"]}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out = Path(sys.argv[1])

    datasets = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (make, target) in DATASETS.items():
            sweeps = [sweep(make(Path(tmp) / f"{name}-{100 + i}.csv",
                                 seed=100 + i), target, i) for i in SEEDS]
            # a sweep with too few finite (tau, err) pairs has no statistic
            medians = {}
            for key in STATISTICS:
                values = [s[key] for s in sweeps if s[key] is not None]
                medians[key] = statistics.median(values) if values else None
            datasets[name] = {"sweeps": sweeps, "medians": medians}
            print(f"{name}: median pearson {medians['pearson']}, "
                  f"median distance_corr {medians['distance_corr']}")
    print(f"reference medians on public tabular suites: "
          f"pearson {REFERENCE_MEDIANS['pearson']}, "
          f"distance {REFERENCE_MEDIANS['distance_corr']}")
    write_report({"datasets": datasets,
                  "reference_medians": dict(REFERENCE_MEDIANS)}, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
