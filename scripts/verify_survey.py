#!/usr/bin/env python3
"""Run verify_theorems over a grid of sizes and seeds and check that only
the known failures fail.

The survey runs verify_theorems(n, m, trials=3, seed) at six sizes, from
the smallest supports to the upper bound of the verify-seeds benchmark,
for seeds 0-15: 96 reports. It prints every failing check, then every
known failure that now passes, and exits 1 if a check outside KNOWN
fails (or a report raises).

Usage: python scripts/verify_survey.py
"""

import sys

from contexture import verify_theorems

SIZES = ((4, 4), (4, 80), (5, 5), (8, 8), (24, 20), (80, 80))
SEEDS = range(16)
TRIALS = 3

# (n, m, seed, check) that fail today: estimate_spectrum_posthoc's ridge
# scales with tr(c_phi), which mixing the encoder changes
KNOWN = {(n, m, seed, "estimated_eigenvalues_mixing_invariant")
         for n, m, seed in ((4, 4, 9), (4, 80, 0), (4, 80, 8), (24, 20, 3),
                            (24, 20, 6), (24, 20, 9), (80, 80, 1),
                            (80, 80, 15))}


def main() -> int:
    failing = set()
    for n, m in SIZES:
        for seed in SEEDS:
            report = verify_theorems(n=n, m=m, trials=TRIALS, seed=seed)
            for check in report["checks"]:
                if not check["passed"]:
                    failing.add((n, m, seed, check["name"]))
                    print(f"fails: n={n} m={m} seed={seed} {check['name']} "
                          f"{check['max_residual']:.3e} > {check['tolerance']:.0e}")
    for n, m, seed, name in sorted(KNOWN - failing):
        print(f"known failure now passes: n={n} m={m} seed={seed} {name}")
    unexpected = failing - KNOWN
    reports = len(SIZES) * len(SEEDS)
    print(f"{reports} reports: {len(failing)} failing checks, "
          f"{len(unexpected)} outside the {len(KNOWN)} known failures")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
