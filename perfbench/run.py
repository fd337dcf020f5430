#!/usr/bin/env python3
"""lfbeam benchmark: BER sweeps to a stated accuracy on three link geometries.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload miso-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` repeats untraced sweeps for ``--seconds`` and reports the
end-to-end metrics: median over the sweeps of a run.  ``--trace 1`` runs
traced and untraced sweeps of one master seed and reports the per-layer
metrics.  Every point of every sweep is checked (see workloads.py); the
result counts points attempted and failed.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record with every sample, the machine and the versions
goes to ``perfbench/out/``, and the spans of the traced sweeps go beside it.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is imported here or
# in any child: the pool is the only parallelism being measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["miso-sweep", "mimo22-sweep", "estimated-2w"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: a few points per workload, for the self-test")
    return p.parse_args(argv)


def high_percentile(values) -> tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples above it, or
    the maximum when there are too few samples for any of them."""
    ordered = sorted(values)
    for p in (99, 95, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[int(len(ordered) * p / 100)]
    return "max", ordered[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "lfbeam", "__init__.py")):
        print(f"benchmark: {SRC} holds no lfbeam package; run this from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import measure
    from workloads import TINY, WORKLOADS

    wl = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    work = os.path.join(OUT, f"work-{os.getpid()}")
    deadline = start + args.seconds
    checks = measure.Checks()
    try:
        if args.trace:
            samples = measure.per_layer(wl, args.seed, deadline, work, checks,
                                        f"{stem}-spans")
            units = measure.PER_LAYER_UNITS
        else:
            samples = measure.end_to_end(wl, args.seed, deadline, work, checks)
            units = measure.END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for name, unit in units.items():
        vals = samples[name]
        if unit in ("count", "bytes"):  # checked identical in every round
            value, spread = vals[0], f"same in all {len(vals)} rounds"
        else:
            value = statistics.median(vals)
            label, high = high_percentile(vals)
            spread = f"median, {label} {high:.6g}, n={len(vals)}"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:>14.6g} {unit:6s} {spread}")
    for m in checks.messages:
        print(f"FAILED {m}")
    print(f"points checked {checks.attempted}, failed {checks.failed}, "
          f"fail_frac {checks.failed / max(checks.attempted, 1):.4g}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    with open(f"{stem}.json", "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "size": args.size,
                   "environment": measure.environment(), "samples": samples,
                   "failures": checks.messages, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
