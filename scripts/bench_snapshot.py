#!/usr/bin/env python3
"""Measure the package's three reference runs and write BENCH_<LABEL>.json.

Usage: python scripts/bench_snapshot.py LABEL

The runs are a ``waves`` sweep at n = 400 (the 12-context grid,
``per_family=6``), the ``sweep-waves-2000`` benchmark config, and
``verify_theorems()`` at its defaults. Each run goes to a fresh process with
BLAS pinned to one thread before numpy loads. That process sets the run up,
makes one traced run (which also fills caches and finishes lazy set-up),
then times at least five untraced runs. The snapshot records, per run, the
median and quartiles of the untraced wall times, the traced run's per-layer
``calls``, ``self_s`` and ``peak_mb`` (the tracer's names, from
``perfbench/layers.py``), and the process's peak resident set. It also
records the machine and the commit of the measured sources. The file goes
to the repository root.

Peak RSS is the high-water mark of the whole process (interpreter, imports,
the traced run included) and moves with the allocator and the host, so it
is labelled noisy. Wall times are measured with tracing off.
"""

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMED_RUNS = 5
ROOT = Path(__file__).resolve().parent.parent
RUNS = ("sweep-waves-400", "sweep-waves-2000", "verify-defaults")

# the benchmark's own BLAS pin; it loads no numpy on import
sys.path.insert(0, str(ROOT / "perfbench"))
from run import bootstrap  # noqa: E402


def prepare(name: str, workdir: Path):
    """A callable that performs one run of ``name``."""
    from contexture import harness
    from workloads import Sweep

    if name == "verify-defaults":
        return harness.verify_theorems
    sweep = Sweep()
    if name == "sweep-waves-400":
        sweep.n_rows = 400  # the benchmark's config, on a smaller input
    state = sweep.prepare(0, workdir)
    return lambda: sweep.iterate(state)


def traced_layers(run) -> dict:
    """Per span name: ``calls``, ``self_s`` and ``peak_mb`` of one traced
    run; ``peak_mb`` is null for a span whose memory is not traced."""
    from layers import TARGETS
    from tracer import Tracer

    tracer = Tracer("snapshot")
    tracer.install(TARGETS)
    try:
        run()
    finally:
        tracer.remove()
    return {name: {"calls": stats["calls"], "self_s": stats["self_s"],
                   "peak_mb": tracer.peaks.get(name)}
            for name, stats in sorted(tracer.span_stats().items())}


def measure(name: str) -> dict:
    """One run's record, measured in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        run = prepare(name, Path(tmp))
        layers = traced_layers(run)
        walls = []
        for _ in range(TIMED_RUNS):
            start = time.perf_counter()
            run()
            walls.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(walls, n=4)
    return {
        "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3,
                   "runs": walls, "tracing": "off"},
        "layers": layers,
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "noisy": True,
            "note": "high-water mark of the whole measuring process"},
    }


def commit() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"),
            "tracked_changes": bool(git("status", "--porcelain",
                                        "--untracked-files=no"))}


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--run":  # the child process of one run
        bootstrap()
        print(json.dumps(measure(argv[1])))
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    label = argv[0]
    threads = bootstrap()
    from machine import machine_record

    runs = {}
    for name in RUNS:
        proc = subprocess.run([sys.executable, __file__, "--run", name],
                              capture_output=True, text=True, check=True)
        runs[name] = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: median {runs[name]['wall_s']['median']:.3f} s", file=sys.stderr)
    snapshot = {"label": label, "commit": commit(),
                "machine": machine_record(threads), "runs": runs}
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
