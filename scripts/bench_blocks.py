#!/usr/bin/env python3
"""Per-stage time of one 256-trial block at each benchmark workload's settings.

Run from the root of a checkout of the repository:

    python3 scripts/bench_blocks.py --out BENCH.json
    python3 scripts/bench_blocks.py --against HEAD~1 --out AB.json

For each workload of ``perfbench/workloads.py``, and for ``miso-dim4``
defined here (fig2-miso at n_t = 4 with fresh perfect, B = 2, 4 and 8
curves at miso-sweep's SNR points: the dim-4 search's cost, on record
next to the dim-2 one), the sweep's curves are built as the command
line builds them, every (curve, SNR) pair running, and the library's
own ``_run_block`` runs the blocks of batches 1 to 4 (trials 256 to
1279) at master seed 1, best of 12 rounds; a round runs every
workload's blocks once, so each stage's best round comes from the
fastest phase of the machine over the whole run.

During a round, ``perfbench/tracing.Tracer`` spans wrap the
simulator's ``_draw_batch``, ``_beam_directions``, ``_receiver_links``
and ``_run_block`` (the originals are put back afterwards), and the
stages are read from the spans, so they add up to the block:

- ``draw``: the time in ``_draw_batch`` (bits, taps, LS estimation
  error and data noise, FFT);
- ``search``: the time in ``_beam_directions`` (eigenvectors, the
  block's one codebook drawn or made, and its one prefix search);
- ``links``: the rest of ``_receiver_links``, once per block or per SNR
  point when the pilot power follows the SNR (LS estimate as channel
  plus scaled error, combiners, each curve's effective gains ``g`` and
  combined noise ``z``);
- ``detect``: the rest of ``_run_block`` (``sqrt(rho) * g * x + z``,
  hard decisions and error counts of every pair);
- ``block``: the whole ``_run_block``, with its minor page faults
  (``ru_minflt``) per block over all of its rounds and the peak of the
  memory that ``tracemalloc`` traces in one more block, run without
  spans (numpy's arrays included), in MB.

The pool is timed end to end: one capped estimated-2w ``run_sweeps``
(the workload's single point, run to its bit cap) at 1 and at 2
workers, best of ``SWEEPS`` runs each, and the ratio of the two times,
the pool's speedup.

A table goes to standard output and a JSON record, with the machine,
Python, numpy and BLAS versions and the line count of ``src/``, to
``--out``.  The recorded commit ends in ``-dirty`` when tracked files
differ from it.  One BLAS thread is used, as in the benchmark.

``--against REV`` compares two trees instead: ``git archive REV`` is
extracted into a temporary directory, and this script times the stages
of that tree's ``src/`` and of this checkout's in fresh subprocesses,
launched the same way (``--src TREE/src``, which times the stages of
that tree's library and not the pool) and alternating which tree runs
first, for ``PAIRS`` pairs.  The record holds, per workload and stage, the
median and the range of the paired ratios (this checkout's time over
REV's; below 1 is faster), each side's median time, and the ``src/``
line count of each side.  The machine's speed drifts between runs, so
a gain is quoted from the paired ratios, not from two absolute records.
Both trees run their own ``_run_block(configs, active, batch)``, so REV
needs only that and the three other functions' names.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

STAGES = ("draw", "search", "links", "detect", "block")
SEED = 1  # master seed of every workload
BATCHES = range(1, 5)  # the blocks of these batches are timed
REPEATS = 12  # rounds; each stage's best round is kept
SWEEPS = 3  # runs of the pool sweep at each worker count; the best is kept
PAIRS = 10  # subprocess pairs of --against
POOL_WORKLOAD = "estimated-2w"
DIM4 = ("miso-dim4", "fig2-miso", (None, 2, 4, 8), (0, 4, 8, 12), 1,
        (("n_t", 4),))  # a Workload's fields; timed as blocks only


def src_lines(root=ROOT):
    total = 0
    for path in glob.glob(os.path.join(root, "src", "lfbeam", "*.py")):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def load(src):
    """Import the library from ``src`` and this checkout's benchmark
    helpers, which import it too; ``BLOCKS`` is the benchmark's
    workloads and ``DIM4``."""
    global sim, parse_config, environment, Tracer, WORKLOADS, BLOCKS
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import lfbeam.simulator as sim
    from lfbeam.cli import parse_config
    from measure import environment
    from tracing import Tracer
    from workloads import WORKLOADS, Workload
    BLOCKS = {**WORKLOADS, DIM4[0]: Workload(*DIM4)}


def sweep_block(wl):
    """The curves' configs of workload ``wl`` and its (curve, SNR) mask
    with every pair running."""
    config, curves = parse_config(
        preset=wl.preset, overrides=wl.config_overrides(SEED)
    )
    configs = [replace(config, feedback_bits=bits) for bits in curves]
    return configs, np.ones((len(configs), len(config.snr_db_points)), bool)


def time_blocks(configs, active, batches):
    """The stage times, in ms per block, of ``_run_block(configs, active,
    batch)`` over ``batches``, read from spans around it and the three
    simulator functions it calls, and the blocks' minor page faults.
    The simulator's functions are its own again on return, also on
    error."""
    tracer = Tracer()
    saved = {name: getattr(sim, name) for name in (
        "_draw_batch", "_beam_directions", "_receiver_links", "_run_block")}
    try:
        for name, fn in saved.items():
            setattr(sim, name, tracer.wrap(name, fn))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for batch in batches:
            sim._run_block(configs, active, batch)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    finally:
        for name, fn in saved.items():
            setattr(sim, name, fn)
    spans = tracer.totals()
    seconds = {
        "draw": spans["_draw_batch"]["busy_s"],
        "search": spans["_beam_directions"]["busy_s"],
        "links": spans["_receiver_links"]["self_s"],
        "detect": spans["_run_block"]["self_s"],
        "block": spans["_run_block"]["busy_s"],
    }
    ms = {f"{stage}_ms": seconds[stage] / len(batches) * 1e3
          for stage in STAGES}
    return ms, faults


def bench():
    """Each workload's stage times, the best of ``REPEATS`` rounds of the
    mean time per block.  A round runs every workload's blocks once, so
    each stage's rounds are spread over the whole run and its best round
    is taken from the machine's fastest phase in that time."""
    blocks = {name: sweep_block(wl) for name, wl in BLOCKS.items()}
    out = {name: {"pairs": int(active.sum())}
           for name, (_, active) in blocks.items()}
    faults = dict.fromkeys(blocks, 0)
    for configs, active in blocks.values():
        sim._run_block(configs, active, BATCHES[0])  # settle the heap
    for _ in range(REPEATS):
        for name, (configs, active) in blocks.items():
            ms, minflt = time_blocks(configs, active, BATCHES)
            faults[name] += minflt
            for key, value in ms.items():
                out[name][key] = min(out[name].get(key, value), value)
    for name, (configs, active) in blocks.items():
        out[name]["minflt_per_block"] = faults[name] / (len(BATCHES) * REPEATS)
        tracemalloc.start()
        try:
            sim._run_block(configs, active, BATCHES[0])
            peak = tracemalloc.get_traced_memory()[1]
            out[name]["tracemalloc_peak_mb"] = peak / 2**20
        finally:
            tracemalloc.stop()
    return out


def bench_pool(wl):
    """Best wall time of the workload's sweep at 1 and 2 workers, and
    the speedup of the second over the first."""
    config, curves = parse_config(
        preset=wl.preset, overrides=wl.config_overrides(SEED)
    )
    out = {}
    for workers in (1, 2):
        best = float("inf")
        for _ in range(SWEEPS):
            t0 = time.perf_counter()
            sim.run_sweeps(config, curves, n_workers=workers)
            best = min(best, time.perf_counter() - t0)
        out[f"sweep_{workers}w_s"] = best
    out["speedup"] = out["sweep_1w_s"] / out["sweep_2w_s"]
    return out


def against(rev):
    """Paired stage timings of this checkout against ``git archive rev``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev],
                         capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "tree")
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(base, filter="data")
        trees = {"base": base, "this": ROOT}
        runs = {side: [] for side in trees}
        for i in range(PAIRS):
            for side in (("base", "this") if i % 2 == 0 else ("this", "base")):
                out = os.path.join(tmp, "stages.json")
                subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--out", out,
                     "--src", os.path.join(trees[side], "src")],
                    check=True, stdout=subprocess.DEVNULL,
                )
                with open(out) as f:
                    runs[side].append(json.load(f)["workloads"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
    result = {}
    for name in runs["this"][0]:
        result[name] = {}
        for stage in STAGES:
            key = f"{stage}_ms"
            base_ms = [r[name][key] for r in runs["base"]]
            this_ms = [r[name][key] for r in runs["this"]]
            ratios = [t / b for b, t in zip(base_ms, this_ms)]
            result[name][stage] = {
                "ratio_median": statistics.median(ratios),
                "ratio_min": min(ratios),
                "ratio_max": max(ratios),
                "base_ms": statistics.median(base_ms),
                "this_ms": statistics.median(this_ms),
            }
    return {"against": rev, "pairs": PAIRS, "src_lines": lines,
            "workloads": result}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON record to write")
    p.add_argument("--against", metavar="REV",
                   help="time this checkout against git revision REV; "
                        "each tree's own _run_block(configs, active, "
                        "batch) is run, with spans around it and its "
                        "_draw_batch, _beam_directions and "
                        "_receiver_links")
    p.add_argument("--src",
                   help="time only the stages, of the library sources in "
                        "SRC (default: this checkout's, and the pool)")
    args = p.parse_args(argv)
    src = args.src or os.path.join(ROOT, "src")
    load(src)
    env = environment()
    if args.against:
        record = {"environment": env, "seed": SEED, "blocks": len(BATCHES),
                  "repeats": REPEATS, **against(args.against)}
        print(f"this checkout against {args.against}, {PAIRS} pairs: "
              "median [min, max] of the paired time ratios")
        print(f"{'workload':14s} " + " ".join(f"{s:>19s}" for s in STAGES))
        for name, stages in record["workloads"].items():
            print(f"{name:14s} " + " ".join(
                "{ratio_median:5.3f} [{ratio_min:5.3f}, {ratio_max:5.3f}]"
                .format(**stages[s]) for s in STAGES))
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        return 0
    dirty = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True,
    ).stdout.strip()
    if env["commit"] and dirty:
        env["commit"] += "-dirty"
    record = {
        "environment": env,
        "seed": SEED,
        "blocks": len(BATCHES),
        "repeats": REPEATS,
        "src_lines": src_lines(os.path.dirname(os.path.abspath(src))),
        "workloads": {},
    }
    print(f"{env['cpu']}, {env['nproc']} CPUs, Python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}")
    print(f"{'workload':14s} {'pairs':>5s} {'draw':>8s} {'search':>8s} "
          f"{'links':>8s} {'detect':>8s} {'block':>8s} {'minflt':>7s} "
          f"{'peak MB':>8s}  (ms per block)")
    record["workloads"] = bench()
    for name, r in record["workloads"].items():
        print(f"{name:14s} {r['pairs']:5d} {r['draw_ms']:8.2f} "
              f"{r['search_ms']:8.2f} {r['links_ms']:8.2f} "
              f"{r['detect_ms']:8.2f} {r['block_ms']:8.2f} "
              f"{r['minflt_per_block']:7.0f} "
              f"{r['tracemalloc_peak_mb']:8.2f}")
    if args.src is None:
        pool = bench_pool(WORKLOADS[POOL_WORKLOAD])
        record["pool"] = {"workload": POOL_WORKLOAD, **pool}
        print(f"{POOL_WORKLOAD} sweep: {pool['sweep_1w_s']:.3f} s at 1 "
              f"worker, {pool['sweep_2w_s']:.3f} s at 2, speedup "
              f"{pool['speedup']:.2f}")
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
