#!/usr/bin/env python3
"""Per-stage time of one 256-trial block at each benchmark workload's settings.

Run from the root of a checkout of the repository:

    python3 scripts/bench_blocks.py --out BENCH.json

For each workload of ``perfbench/workloads.py`` the sweep's curves are
built as the command line builds them, every (curve, SNR) pair running,
and these stages are timed on the blocks of batches 1 to 4 (trials
256 to 1279) at master seed 1, best of 8 rounds:

- ``draw``: ``_draw_batch`` (bits, taps, pilot and data noise, FFT);
- ``receiver``: ``_receiver_links``, once per block or per SNR point
  when the pilot power follows the SNR (LS estimate, beam selection for
  every curve, fixed codebooks made, combiners, each curve's effective
  gains ``g`` and combined noise ``z``);
- ``detect``: the rest of ``_run_block`` for all pairs, with the draws
  and the receiver side of the block given (``sqrt(rho) * g * x + z``,
  hard decisions and error counts);
- ``block``: the whole ``_run_block``, with its minor page faults
  (``ru_minflt``) per block over all of its rounds and the peak of the
  memory that ``tracemalloc`` traces in one more block (numpy's arrays
  included), in MB.

The pool is timed end to end: one capped estimated-2w ``run_sweeps``
(the workload's single point, run to its bit cap) at 1 and at 2
workers, best of ``SWEEPS`` runs each, and the ratio of the two times,
the pool's speedup.

A table goes to standard output and a JSON record, with the machine,
Python, numpy and BLAS versions and the line count of ``src/``, to
``--out``.  The recorded commit ends in ``-dirty`` when tracked files
differ from it.  One BLAS thread is used, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import lfbeam.simulator as sim  # noqa: E402
from lfbeam.cli import parse_config  # noqa: E402
from measure import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1  # master seed of every workload
BLOCKS = 4  # the blocks of batches 1 to BLOCKS are timed
REPEATS = 8  # rounds; each stage's best round is kept
SWEEPS = 3  # runs of the pool sweep at each worker count; the best is kept
POOL_WORKLOAD = "estimated-2w"


def best_ms(fn, batches):
    """Best over ``REPEATS`` rounds of the mean time of ``fn(batch)``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for batch in batches:
            fn(batch)
        best = min(best, (time.perf_counter() - t0) / len(batches))
    return best * 1e3


def receiver_side(configs, active, batch, h, pilot, noise):
    """``_receiver_links`` as ``_run_block`` calls it, per SNR point."""
    config = configs[0]
    per_snr = config.csi_mode == "estimated" and config.pilot_snr_db is None
    links = {}
    for s, snr_db in enumerate(config.snr_db_points):
        if not links or per_snr:
            running = np.flatnonzero(active.any(axis=1)).tolist()
            last = sim._receiver_links(
                configs, running, snr_db, h, pilot, noise, batch
            )
        links[snr_db] = last
    return links


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "lfbeam", "*.py")):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def bench(wl):
    config, curves = parse_config(
        preset=wl.preset, overrides=wl.config_overrides(SEED)
    )
    configs = [replace(config, feedback_bits=bits) for bits in curves]
    active = np.ones((len(configs), len(config.snr_db_points)), dtype=bool)
    batches = range(1, BLOCKS + 1)

    def draw(batch):
        return sim._draw_batch(config, batch)

    def receiver(batch):
        _, h, pilot, noise = draws[batch]
        return receiver_side(configs, active, batch, h, pilot, noise)

    def block(batch):
        return sim._run_block(configs, active, batch)

    out = {"pairs": int(active.sum())}
    draws = {batch: draw(batch) for batch in batches}
    out["draw_ms"] = best_ms(draw, batches)
    links = {batch: receiver(batch) for batch in batches}
    out["receiver_ms"] = best_ms(receiver, batches)
    # detection alone: _run_block with its draws and receiver side given
    saved = sim._draw_batch, sim._receiver_links
    try:
        sim._draw_batch = lambda cfg, batch: draws[batch]
        sim._receiver_links = (
            lambda cfgs, running, snr_db, h, pilot, noise, batch:
            links[batch][snr_db]
        )
        out["detect_ms"] = best_ms(block, batches)
    finally:
        sim._draw_batch, sim._receiver_links = saved
    block(batches[0])  # settle the heap before counting faults
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out["block_ms"] = best_ms(block, batches)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    out["minflt_per_block"] = faults / (len(batches) * REPEATS)
    tracemalloc.start()
    try:
        block(batches[0])
        peak = tracemalloc.get_traced_memory()[1]
        out["tracemalloc_peak_mb"] = peak / 2**20
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON record to write")
    args = p.parse_args(argv)
    env = environment()
    dirty = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True,
    ).stdout.strip()
    if env["commit"] and dirty:
        env["commit"] += "-dirty"
    record = {
        "environment": env,
        "seed": SEED,
        "blocks": BLOCKS,
        "repeats": REPEATS,
        "src_lines": src_lines(),
        "workloads": {},
    }
    print(f"{env['cpu']}, {env['nproc']} CPUs, Python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}")
    print(f"{'workload':14s} {'pairs':>5s} {'draw':>8s} {'receiver':>9s} "
          f"{'detect':>8s} {'block':>8s} {'minflt':>7s} {'peak MB':>8s}"
          "  (ms per block)")
    for name, wl in WORKLOADS.items():
        r = bench(wl)
        record["workloads"][name] = r
        print(f"{name:14s} {r['pairs']:5d} {r['draw_ms']:8.2f} "
              f"{r['receiver_ms']:9.2f} {r['detect_ms']:8.2f} "
              f"{r['block_ms']:8.2f} {r['minflt_per_block']:7.0f} "
              f"{r['tracemalloc_peak_mb']:8.2f}")
    pool = bench_pool(WORKLOADS[POOL_WORKLOAD])
    record["pool"] = {"workload": POOL_WORKLOAD, **pool}
    print(f"{POOL_WORKLOAD} sweep: {pool['sweep_1w_s']:.3f} s at 1 worker, "
          f"{pool['sweep_2w_s']:.3f} s at 2, speedup {pool['speedup']:.2f}")
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
