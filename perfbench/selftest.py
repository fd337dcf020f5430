#!/usr/bin/env python3
"""Fast self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, traced and
untraced, and checks that the last line is the result object with every
metric BENCHMARK.json names, in its unit, and that all points pass.  Then
checks that the benchmark refuses to run, printing no result, in a copy
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, wl["name"], trace)
            tag = f"{wl['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{tag}: {done.stdout}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            print(f"ok {tag}: {result['attempted']} points, "
                  f"{len(got)} metrics")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or "{" in done.stdout:
        problems.append(f"bare copy: exit {done.returncode}, stdout {done.stdout!r}")
    else:
        print(f"ok bare copy refuses to run (exit {done.returncode})")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
