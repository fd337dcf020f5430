"""One benchmark run: timed untraced sweeps for the end-to-end metrics,
traced rounds for the per-layer metrics, and the checks on every sweep.
run.py imports this once the lfbeam sources are on the path."""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from lfbeam.cli import parse_config, run_experiment
from lfbeam.simulator import TRIALS_PER_BATCH

from tracing import Tracer, instrument
from workloads import check_sweep, sweep_once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fresh interpreters timed per run for setup_s.
SETUP_SAMPLES = 11
# A run keeps starting sweeps until the next would end after --seconds,
# but always makes at least this many (traced: this many rounds).
MIN_SWEEPS = 3
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.parse_config_s": "s",
    "cli.csv_write_s": "s",
    "cli.self_s": "s",
    "simulator.self_s": "s",
    "simulator.block_ms": "ms",
    "simulator.trials": "count",
    "simulator.distinct_trials": "count",
    "simulator.distinct_trial_share": "ratio",
    "simulator.points": "count",
    "simulator.capped_points": "count",
    "simulator.modem.calls": "count",
    "simulator.modem.busy_s": "s",
    "simulator.pool.tasks": "count",
    "simulator.pool.task_bytes": "bytes",
    "simulator.pool.wait_s": "s",
    "simulator.pool.start_s": "s",
    "simulator.pool.scaling_eff": "ratio",
    "codebook.gen_rvq.calls": "count",
    "codebook.gen_rvq.busy_s": "s",
    "codebook.codewords": "count",
    "numerics.eig.calls": "count",
    "numerics.eig.rows": "count",
    "numerics.eig.busy_s": "s",
    "beamforming.power.calls": "count",
    "beamforming.power.busy_s": "s",
    "channel.ls_estimate.calls": "count",
    "channel.ls_estimate.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def sweep_seed(seed: int, k: int) -> int:
    """Master seed of the k-th sweep of a run with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def setup_seconds(wl) -> float:
    """Wall time of a fresh interpreter that imports lfbeam and parses the
    workload's config: what a user pays before the first trial."""
    code = (
        "import lfbeam\nfrom lfbeam.cli import parse_config\n"
        f"parse_config(preset={wl.preset!r}, "
        f"overrides={wl.config_overrides(0)!r})\n"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child
    (pool workers, setup interpreters); Linux reports KiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Checks:
    """Tallies checked points across the sweeps of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def sweep(self, sweep, tag: str) -> None:
        n, bad, msgs = check_sweep(sweep)
        self.attempted += n
        self.failed += bad
        self.messages += [f"{tag}: {m}" for m in msgs]

    def require(self, ok: bool, points: int, why: str) -> None:
        """A run-level check; when it fails, ``points`` more fail, but
        never more than were attempted."""
        if not ok:
            self.failed = min(self.failed + points, self.attempted)
            self.messages.append(why)


def end_to_end(wl, seed, deadline, work, checks):
    setup = [setup_seconds(wl) for _ in range(SETUP_SAMPLES)]
    walls, rates = [], []
    while len(walls) < MIN_SWEEPS or (
        time.perf_counter() + statistics.median(walls) <= deadline
    ):
        s = sweep_once(wl, sweep_seed(seed, len(walls)), wl.workers, work)
        checks.sweep(s, f"sweep {len(walls)}")
        walls.append(s.wall_s)
        rates.append(s.trials / s.wall_s)
    return {"wall_s": walls, "trials_per_s": rates, "setup_s": setup,
            "peak_rss_mb": [peak_rss_mb()]}


def _getter(tr):
    """``get(span name, key)`` over the tracer's totals; 0 when absent."""
    t = tr.totals()
    return lambda name, key: t.get(name, {}).get(key, 0)


def _layer_numbers(tr, sweep) -> dict:
    """Per-layer counts and busy times of one 1-worker traced sweep."""
    get = _getter(tr)
    per_point = sweep.trials_per_point
    trials = sum(per_point)
    return {
        "simulator.self_s": get("simulator.run_sweep", "self_s"),
        "simulator.block_ms": 1e3 * get("simulator.run_sweep", "busy_s")
        / (trials / TRIALS_PER_BATCH),
        "simulator.trials": trials,
        "simulator.distinct_trials": max(per_point),
        "simulator.distinct_trial_share": max(per_point) / trials,
        "simulator.points": len(per_point),
        "simulator.capped_points": sum(
            not p.converged for c in sweep.results for p in c.points
        ),
        "simulator.modem.calls": get("simulator.modem", "calls"),
        "simulator.modem.busy_s": get("simulator.modem", "busy_s"),
        "codebook.gen_rvq.calls": get("codebook.gen_rvq", "calls"),
        "codebook.gen_rvq.busy_s": get("codebook.gen_rvq", "busy_s"),
        "codebook.codewords": get("codebook.gen_rvq", "codewords"),
        "numerics.eig.calls": get("numerics.eig", "calls"),
        "numerics.eig.rows": get("numerics.eig", "rows"),
        "numerics.eig.busy_s": get("numerics.eig", "busy_s"),
        "beamforming.power.calls": get("beamforming.power", "calls"),
        "beamforming.power.busy_s": get("beamforming.power", "busy_s"),
        "channel.ls_estimate.calls": get("channel.ls_estimate", "calls"),
        "channel.ls_estimate.busy_s": get("channel.ls_estimate", "busy_s"),
    }


def _cli_numbers(tr) -> dict:
    get = _getter(tr)
    return {
        "cli.parse_config_s": get("cli.parse_config", "busy_s"),
        "cli.csv_write_s": get("cli.write_curve_csv", "busy_s"),
        "cli.self_s": get("cli.run_experiment", "self_s"),
    }


def _pool_numbers(tr) -> dict:
    """Pool numbers of a traced 2-worker sweep, seen from the parent."""
    get = _getter(tr)
    return {
        "simulator.pool.tasks": get("simulator.pool.starmap", "tasks"),
        "simulator.pool.task_bytes": get("simulator.pool.starmap", "task_bytes"),
        "simulator.pool.wait_s": get("simulator.pool.starmap", "busy_s"),
        "simulator.pool.start_s": get("simulator.pool.start", "busy_s"),
    }


def _traced_sweep(wl, seed, workers, work):
    tr = Tracer()
    with instrument(tr):
        s = sweep_once(wl, seed, workers, work,
                       parse=tr.wrap("cli.parse_config", parse_config),
                       run=tr.wrap("cli.run_experiment", run_experiment))
    return tr, s


def per_layer(wl, seed, deadline, work, checks, span_prefix):
    """Rounds of three sweeps on one master seed, so every count must
    repeat, and every CSV must match the first sweep's byte for byte:

    1. untraced at the workload's worker count (the overhead baseline);
    2. traced at 1 worker: the layer numbers, since spans recorded inside
       pool workers stay there;
    3. traced at 2 workers: the pool numbers.

    ``scaling_eff`` compares 3 with 2; the CLI numbers and the overhead
    come from whichever of them runs the workload's own worker count.
    """
    master = sweep_seed(seed, 0)
    rounds: list[dict] = []
    counts: dict | None = None
    round_s = 0.0
    while len(rounds) < MIN_TRACED_ROUNDS or (
        time.perf_counter() + round_s <= deadline
    ):
        t0 = time.perf_counter()
        tag = f"round {len(rounds)}"
        base = sweep_once(wl, master, wl.workers, os.path.join(work, "base"))
        checks.sweep(base, f"{tag} untraced")
        base_csv = base.csv_bytes()
        n = len(base.trials_per_point)
        traced = {}
        for w in (1, 2):
            tr, s = _traced_sweep(wl, master, w, os.path.join(work, f"w{w}"))
            checks.sweep(s, f"{tag} traced {w}-worker")
            checks.require(s.csv_bytes() == base_csv, n,
                           f"{tag}: traced {w}-worker CSVs differ from the "
                           f"untraced {wl.workers}-worker run")
            traced[w] = (tr, s)
        (tr1, one), (tr2, two) = traced[1], traced[2]
        own_tr, own = traced[wl.workers]
        r = {**_layer_numbers(tr1, one), **_pool_numbers(tr2),
             **_cli_numbers(own_tr)}
        r["simulator.pool.scaling_eff"] = (two.trials / two.wall_s) / (
            2.0 * one.trials / one.wall_s)
        r["trace.wall_s"] = own.wall_s
        r["trace.overhead_frac"] = own.wall_s / base.wall_s - 1.0
        now_counts = {k: v for k, v in r.items()
                      if PER_LAYER_UNITS[k] in ("count", "bytes")}
        if counts is None:
            counts = now_counts
            tr1.dump(f"{span_prefix}-w1.json")
            tr2.dump(f"{span_prefix}-w2.json")
        checks.require(now_counts == counts, n,
                       f"{tag}: counts differ from round 0 on the same seed")
        rounds.append(r)
        round_s = time.perf_counter() - t0
    return {k: [r[k] for r in rounds] for k in PER_LAYER_UNITS}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # differs across numpy
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
