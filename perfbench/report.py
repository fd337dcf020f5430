#!/usr/bin/env python3
"""Every benchmark metric of every workload in one table; from the
repository root:

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds 45]

For each workload and seed this runs ``run.py`` untraced and traced, pools
the per-sweep (per-round, when traced) samples of all runs, and prints
each metric with its unit as the median and the highest percentile that
has at least ten samples beyond it (the maximum when there are too few),
with the sample count.  The end-to-end and per-layer numbers, the check
totals and the machine go to ``perfbench/out/report.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import high_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        entry = report["workloads"][name] = {}
        print(f"\n== {name}")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            pooled: dict[str, list] = {m["name"]: [] for m in spec[key]}
            attempted = failed = 0
            for seed in seeds:
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
                with open(os.path.join(
                        OUT, f"{name}-seed{seed}-trace{trace}.json")) as f:
                    record = json.load(f)
                for m in pooled:
                    pooled[m] += record["samples"][m]
                attempted += record["result"]["attempted"]
                failed += record["result"]["failed"]
                report["environment"] = record["environment"]
            rows = {}
            for m in spec[key]:
                vals = pooled[m["name"]]
                label, high = high_percentile(vals)
                rows[m["name"]] = {"unit": m["unit"],
                                   "median": statistics.median(vals),
                                   label: high, "n": len(vals)}
                print(f"  {m['name']:32s} {statistics.median(vals):>12.6g} "
                      f"{m['unit']:6s} {label} {high:<12.6g} n={len(vals)}")
            print(f"  points checked {attempted}, failed {failed}, "
                  f"fail_frac {failed / max(attempted, 1):.4g}")
            entry[key] = rows
            entry[f"{key}_checks"] = {"attempted": attempted, "failed": failed}
    with open(os.path.join(OUT, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nenvironment: {json.dumps(report.get('environment'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
