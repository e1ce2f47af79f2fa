#!/usr/bin/env python3
"""Benchmark of the contexture toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sweep-waves-2000``, ``score-masked-1000`` and, not listed in
``BENCHMARK.json``, ``verify-seeds`` (see ``workloads.py``). The process pins BLAS to one thread before numpy
loads and refuses to run if the BLAS reports another count. It sets up,
then runs iterations until ``--seconds`` have passed (at least one), checks
every iteration against the dense-oracle reference and prints one line per
metric. With ``--trace 1`` it then wraps the package's public functions
(``layers.py``), sets up and iterates once more, and prints the per-layer
metrics; the spans go to ``.bench_out/spans-WORKLOAD-seedN.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 4
ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(".bench_out")
WORKLOAD_NAMES = ("sweep-waves-2000", "score-masked-1000", "verify-seeds")


def bootstrap() -> int:
    """Pin BLAS threads, put the sources on the path, and return the thread
    count the BLAS reports. Must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was loaded before the BLAS thread count was set")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "contexture" / "__init__.py").is_file():
        raise SystemExit(f"error: no contexture sources under {src}")
    sys.path.insert(0, str(src))
    from machine import blas_threads
    threads = blas_threads()
    if threads != BLAS_THREADS:
        raise SystemExit(f"error: BLAS reports {threads} threads, "
                         f"the benchmark pins {BLAS_THREADS}")
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # set up, print the time, exit
    return parser.parse_args(argv)


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes doing the same set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def traced_iteration(workload, variant, workdir, untraced_wall):
    """Set up and iterate once with every layer wrapped; the wrappers are
    removed before returning."""
    from layers import TARGETS, layer_values
    from tracer import Tracer

    tracer = Tracer(workload.name)
    tracer.install(TARGETS)
    try:
        state = workload.prepare(variant, workdir)
        start = time.perf_counter()
        outcome = workload.iterate(state)
        end = time.perf_counter()
    finally:
        tracer.remove()
    values = layer_values(tracer)
    values["trace.overhead_s"] = (end - start) - untraced_wall
    values["trace.unattributed_share"] = 1.0 - tracer.covered_seconds(start, end) / (end - start)
    return outcome, values, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = bootstrap()

    from layers import COMPUTED, METRICS
    from machine import machine_record
    from workloads import (VARIANTS, WORKLOADS, load_reference,
                           outputs_digest, variant_of)

    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    workdir = WORKDIR / (args.workload + ("-probe" if args.setup_probe else ""))
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.prepare(variant, workdir)
    reference = load_reference(workload.name)["variants"][str(variant)]
    setup = time.perf_counter() - ENTRY
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup] + probe_setups(args)

    walls, tallies, payloads = [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        t0 = time.perf_counter()
        outcome = workload.iterate(state)
        walls.append(time.perf_counter() - t0)
        tallies.append(workload.judge(outcome, reference["outputs"]))
        payloads.append(outcome.payload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)

    if args.trace:
        try:
            outcome, layer, tracer = traced_iteration(workload, variant, workdir, wall_s)
        except RuntimeError as exc:  # a wrapper could not be removed
            print(f"error: {exc}", file=sys.stderr)
            return 4
        tallies.append(workload.judge(outcome, reference["outputs"]))
        payloads.append(outcome.payload)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = sum(t.errors for t in tallies)
    identical = all(p == payloads[0] for p in payloads)
    digest = outputs_digest(payloads[0])
    base = tallies[0].attempted
    setup_s = statistics.median(setups)

    print("machine: " + json.dumps(machine_record(threads), sort_keys=True))
    print(f"workload {workload.name}, seed {args.seed} (input variant {variant} of "
          f"{VARIANTS}), {len(walls)} iteration(s)"
          + (" + 1 traced" if args.trace else ""))
    print(f"  wall_s       {wall_s:.4f} s    median of {len(walls)} iteration(s), tracing off")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB    peak resident set of the workload process")
    print(f"  setup_s      {setup_s:.4f} s    median of {len(setups)} "
          f"set-ups (this process and {SETUP_PROBES} fresh ones)")
    print(f"  error_rate   {errors / attempted:.6g} ratio    {tallies[0].errors}/{base} "
          f"{workload.operation} per iteration; {errors}/{attempted} over "
          f"{len(tallies)} iteration(s)")
    print(f"  report sha256 {digest}; identical across iterations: "
          f"{'yes' if identical else 'NO'}; same as the reference commit: "
          f"{'yes' if digest == reference['report_sha256'] else 'no'}")
    if args.trace:
        print(f"  traced report identical to untraced: "
              f"{'yes' if payloads[-1] == payloads[0] else 'NO'}; "
              f"wrappers removed: yes; spans: {len(tracer.spans)}")
    if tallies[0].failing:
        print(f"  failing {workload.operation} ({len(tallies[0].failing)}/{base}): "
              + "; ".join(tallies[0].failing))
    for message in dict.fromkeys(m for t in tallies for m in t.messages):
        print(f"  ! {message}")

    if args.trace:
        layer["error_rate"] = errors / attempted
        for name, unit, _ in METRICS:
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:46s} {layer[name]!r} {unit}{label}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in METRICS}
        spans_path = WORKDIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.span_records()) + "\n")
        print(f"  spans written to {spans_path}")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    correct = failed == 0 and identical
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
