#!/usr/bin/env python3
"""Write the oracle outputs the benchmark compares every iteration against.

Run from the repository root, on the commit whose dense exact path is the
oracle:

    python3 perfbench/make_reference.py WORKLOAD [VARIANT ...]

For each input variant (default: all) it sets up and runs one iteration
with BLAS pinned to one thread as in ``run.py``, and stores the
per-operation outputs (with, for the sweep, the spectral gap behind each
err_d entry) and the report hash in
``perfbench/reference/WORKLOAD.json``, keeping variants already there.
"""

import json
import sys

import run


def main(argv) -> int:
    if not argv or argv[0] not in run.WORKLOAD_NAMES:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    threads = run.bootstrap()
    from machine import machine_record
    from tracer import Target, Tracer
    from workloads import REFERENCE_DIR, VARIANTS, WORKLOADS, outputs_digest

    workload = WORKLOADS[argv[0]]
    variants = [int(v) for v in argv[1:]] or range(VARIANTS)
    path = REFERENCE_DIR / f"{workload.name}.json"
    data = json.loads(path.read_text()) if path.exists() else {"variants": {}}
    data["workload"] = workload.name
    data["machine"] = machine_record(threads)
    workdir = run.WORKDIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    for variant in variants:
        state = workload.prepare(variant, workdir)
        spectra = []
        tracer = Tracer(workload.name)
        tracer.install([Target("contexture.spectral", "contexture_svd", span=False,
                               count=lambda t, args, spec: spectra.append(
                                   spec.nontrivial_values))])
        try:
            outcome = workload.iterate(state)
        finally:
            tracer.remove()
        if outcome.errors:
            raise SystemExit(f"variant {variant} raised: {outcome.errors}")
        outputs = outcome.outputs
        if hasattr(workload, "reference_outputs"):
            outputs = workload.reference_outputs(outcome, spectra)
        data["variants"][str(variant)] = {
            "report_sha256": outputs_digest(outcome.payload),
            "outputs": outputs,
        }
        print(f"{workload.name} variant {variant}: {len(outcome.outputs)} operations")
    REFERENCE_DIR.mkdir(exist_ok=True)
    write_reference(path, data)
    return 0


def write_reference(path, data) -> None:
    """One line per variant, so a regenerated variant shows as one diff line."""
    variants = sorted(data["variants"].items(), key=lambda kv: int(kv[0]))
    head = {k: v for k, v in data.items() if k != "variants"}
    lines = [json.dumps(head)[:-1] + ', "variants": {']
    lines += [f"{json.dumps(k)}: {json.dumps(v)}," for k, v in variants]
    lines[-1] = lines[-1].rstrip(",")
    path.write_text("\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
