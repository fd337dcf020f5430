"""Benchmark workloads and the checks every simulated point must pass.

A workload is one BER sweep, run through ``lfbeam.cli.parse_config`` and
``lfbeam.cli.run_experiment`` exactly as the command line runs it.  Why
each one is here is recorded in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import io
import math
import os
import time
from dataclasses import dataclass

from lfbeam.cli import parse_config, run_experiment
from lfbeam.simulator import TRIALS_PER_BATCH


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    curves: tuple  # feedback bits per curve, None for perfect CSI
    snr_db: tuple
    workers: int
    overrides: tuple = ()  # extra (config key, value) pairs

    def config_overrides(self, master_seed: int) -> dict:
        out = {
            "curves": list(self.curves),
            "snr_db_points": tuple(float(s) for s in self.snr_db),
            "master_seed": master_seed,
        }
        out.update(dict(self.overrides))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("miso-sweep", "fig2-miso", (None, 1, 2, 4, 8), (0, 4, 8, 12), 1),
        Workload("mimo22-sweep", "fig3-mimo22", (None, 8), (0, 4, 8), 1),
        Workload(
            "estimated-2w", "fig4-estimated", (6,), (24,), 2,
            (("fresh_codebook", False), ("max_bits", 2_000_000)),
        ),
    )
}

# Same geometries at a size that finishes in well under a second; used by
# the self-test, never for measurement.
TINY = {
    "miso-sweep": Workload("miso-sweep", "fig2-miso", (None, 1, 8), (0,), 1),
    "mimo22-sweep": Workload("mimo22-sweep", "fig3-mimo22", (None, 8), (0,), 1),
    "estimated-2w": Workload(
        "estimated-2w", "fig4-estimated", (6,), (24,), 2,
        (("fresh_codebook", False), ("max_bits", 30_000)),
    ),
}


@dataclass
class Sweep:
    """One finished sweep: its inputs, outputs and timings."""

    config: object
    curves: list
    results: list  # BerCurve per curve
    out_dir: str
    wall_s: float  # run_experiment alone

    @property
    def trials_per_point(self) -> list[int]:
        """Trials simulated at each (curve, SNR) point.  Every trial
        covers every subcarrier, either sending bits or counting a
        null skip."""
        cfg = self.config
        return [
            (p.bits_sent // cfg.bits_per_symbol + p.null_skips)
            // cfg.n_subcarriers
            for c in self.results
            for p in c.points
        ]

    @property
    def trials(self) -> int:
        return sum(self.trials_per_point)

    def csv_bytes(self) -> dict[str, bytes]:
        out = {}
        for c in self.results:
            with open(os.path.join(self.out_dir, f"{c.label}.csv"), "rb") as f:
                out[c.label] = f.read()
        return out


def sweep_once(
    wl: Workload,
    master_seed: int,
    workers: int,
    out_dir: str,
    parse=parse_config,
    run=run_experiment,
) -> Sweep:
    """Run ``wl`` once; ``parse``/``run`` let the tracer pass wrapped
    versions of the two CLI entry points."""
    config, curves = parse(
        preset=wl.preset, overrides=wl.config_overrides(master_seed)
    )
    t0 = time.perf_counter()
    results = run(config, curves, out_dir, n_workers=workers, stream=io.StringIO())
    return Sweep(config, curves, results, out_dir, time.perf_counter() - t0)


# --- correctness -----------------------------------------------------------

# Allowed distance between a perfect-CSI point and the two-branch MRC
# closed form, in units of the point's own 95% half-width.  The half-width
# assumes independent bits, but the 64 subcarriers of one trial share four
# channel taps, so the true spread is wider; 3 half-widths is about 6
# binomial standard errors.
MRC_TOLERANCE = 3.0
# A quantized curve may beat the perfect curve at one SNR by at most this
# many times the sum of the two half-widths (same reasoning as above).
QUANTIZED_TOLERANCE = 2.0


def mrc2_bpsk_ber(snr_db: float) -> float:
    """BPSK BER of two-branch maximum-ratio combining over i.i.d.
    Rayleigh branches at mean branch SNR ``10**(snr_db/10)``."""
    g = 10.0 ** (snr_db / 10.0)
    p = 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
    return p * p * (1.0 + 2.0 * (1.0 - p))


def _parse_csv(data: bytes) -> list[tuple]:
    lines = data.decode().splitlines()
    if not lines or lines[0] != "snr_db,bits,errors,ber,ci95":
        raise ValueError("bad CSV header")
    rows = []
    for line in lines[1:]:
        snr, bits, errors, ber, ci = line.split(",")
        rows.append((float(snr), int(bits), int(errors), float(ber), float(ci)))
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_sweep(sweep: Sweep) -> tuple[int, int, list[str]]:
    """Check every point of ``sweep``.  Returns ``(points, failed,
    messages)``; a point fails when any check on it fails, and a
    run-level failure (manifest) fails every point."""
    cfg = sweep.config
    bit_cap = cfg.max_bits + TRIALS_PER_BATCH * cfg.n_subcarriers * cfg.bits_per_symbol
    bad: dict[tuple[str, float], list[str]] = {}
    n_points = 0

    def fail(label, snr, why):
        bad.setdefault((label, snr), []).append(why)

    try:
        m_cfg, m_curves = parse_config(path=os.path.join(sweep.out_dir, "manifest.json"))
        manifest_ok = m_cfg == cfg and list(m_curves) == list(sweep.curves)
    except ValueError:  # ConfigError or a torn file
        manifest_ok = False
    csvs = sweep.csv_bytes()
    perfect = next(
        (c for c in sweep.results if c.config.feedback_bits is None), None
    )
    perfect_at = {p.snr_db: p for p in perfect.points} if perfect else {}
    mrc_geometry = (
        cfg.n_t == 2 and cfg.n_r == 1 and cfg.modulation == "bpsk"
        and cfg.csi_mode == "perfect"
    )
    for curve in sweep.results:
        try:
            rows = _parse_csv(csvs[curve.label])
        except ValueError as e:
            rows = [None] * len(curve.points)
            for p in curve.points:
                fail(curve.label, p.snr_db, f"csv: {e}")
        if len(rows) != len(curve.points):
            rows = [None] * len(curve.points)
            for p in curve.points:
                fail(curve.label, p.snr_db, "csv row count")
        for p, row in zip(curve.points, rows):
            n_points += 1
            key = (curve.label, p.snr_db)
            if not manifest_ok:
                fail(*key, "manifest does not round-trip through parse_config")
            if not 0 <= p.bit_errors <= p.bits_sent:
                fail(*key, f"errors {p.bit_errors} > bits {p.bits_sent}")
            if p.converged != (p.bit_errors >= cfg.target_errors):
                fail(*key, f"converged={p.converged} with {p.bit_errors} errors")
            if p.bits_sent > bit_cap:
                fail(*key, f"bits {p.bits_sent} exceed cap + one batch {bit_cap}")
            if row is not None and not (
                _close(row[0], p.snr_db, 1e-9)
                and row[1] == p.bits_sent
                and row[2] == p.bit_errors
                and _close(row[3], p.ber, 1e-11)
                and _close(row[4], p.half_width_95, 1e-11)
            ):
                fail(*key, f"csv row {row} does not match the curve")
            if curve is perfect and mrc_geometry:
                ref = mrc2_bpsk_ber(p.snr_db)
                if abs(p.ber - ref) > MRC_TOLERANCE * p.half_width_95:
                    fail(*key, f"ber {p.ber:.4g} vs MRC closed form {ref:.4g}")
            base = perfect_at.get(p.snr_db)
            if curve is not perfect and base is not None:
                slack = QUANTIZED_TOLERANCE * (p.half_width_95 + base.half_width_95)
                if p.ber < base.ber - slack:
                    fail(*key, f"ber {p.ber:.4g} beats perfect {base.ber:.4g}")
    messages = [f"{label} @ {snr:g} dB: {'; '.join(why)}" for (label, snr), why in bad.items()]
    return n_points, len(bad), messages
