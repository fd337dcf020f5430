#!/usr/bin/env python3
"""Print the closed-form reference values the simulator is checked against.

Four tables:

* flat-Rayleigh BPSK bit error rate for a single receive branch and for
  two-branch maximum-ratio combining, over an SNR grid,
* the expected minimum quantization distortion of a random codebook on
  two transmit antennas, which for 2^B unit vectors is 1/(2^B + 1),
* the exact perfect-CSI bit error rate of the fig3-mimo22 preset (2x2
  QPSK on the dominant eigenmode), and
* the exact perfect-feedback bit error rate of the fig4-estimated
  preset (2x1 BPSK beamformed and combined on an LS channel estimate),

followed by the exact bit error rate of each preset's link with the
best of 2^B random codewords, B = 1, 2, 4 and 8, and by feedback bits
against antennas: for n_t = 2, 3 and 4 transmit antennas, the fewest
bits B that bring the n_t x 1 BPSK link within 0.5 dB of perfect
feedback at a bit error rate of 1e-3, from the exact law alone.

With --check, a short Monte Carlo run is placed next to each closed
form: perfect-CSI beamforming on a 2x1 link lands on the two-branch
curve, a single random beam (B=0) lands on the one-branch curve, an
empirical distortion mean lands on the 1/(2^B+1) law, the perfect
curves of fig3-mimo22 and fig4-estimated land on their exact values,
and so do the B-bit curves of each preset, from one sweep per preset.
"""

import argparse
import sys

import numpy as np

# the package, and the closed forms the tests check it against
sys.path[:0] = ["src", "tests"]

from lfbeam.cli import PRESETS
from lfbeam.codebook import gen_rvq, quantize_direction
from lfbeam.simulator import SimConfig, run_sweeps
from oracles import (
    estimated_mrc_bpsk_ber,
    max_eigenmode_qpsk_ber,
    min_uniform_mean,
    rayleigh_mrc_bpsk_ber,
    rvq_ber,
)

RVQ_BITS = (1, 2, 4, 8)
# bits against antennas: the gap to perfect feedback allowed at this BER
GAP_BER, GAP_DB, ANTENNAS = 1e-3, 0.5, (2, 3, 4)


def snr_at(ber_of_snr, target, lo=-20.0, hi=60.0):
    """The SNR in dB at which a falling BER curve crosses ``target``, by
    bisection to 1e-4 dB."""
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ber_of_snr(mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


def run_check(snrs, target_errors, max_bits, seed):
    """Perfect-CSI and single-random-beam (B=0) curves from one sweep."""
    return run_sweeps(SimConfig(
        n_t=2, n_r=1, snr_db_points=tuple(snrs),
        target_errors=target_errors, max_bits=max_bits, master_seed=seed,
    ), [None, 0])


def run_preset_check(preset, snrs, target_errors, max_bits, seed,
                     curves=(None,)):
    """Curves of a CLI preset from one sweep, the perfect-CSI one by
    default."""
    return run_sweeps(SimConfig(
        snr_db_points=tuple(snrs), target_errors=target_errors,
        max_bits=max_bits, master_seed=seed, **PRESETS[preset],
    ), list(curves))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snr", default="0,2,4,6,8,10,12,14,16,18,20",
                    help="comma-separated SNR grid in dB")
    ap.add_argument("--check", action="store_true",
                    help="run a short simulation next to each closed form")
    ap.add_argument("--target-errors", type=int, default=400)
    ap.add_argument("--max-bits", type=int, default=4_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    snrs = [float(s) for s in args.snr.split(",")]

    header = f"{'snr_db':>7}  {'1-branch':>12}  {'2-branch':>12}"
    if args.check:
        header += f"  {'sim B=0':>12}  {'sim perfect':>12}"
        perfect, single = run_check(
            snrs, args.target_errors, args.max_bits, args.seed)
    print("flat-Rayleigh BPSK bit error rate")
    print(header)
    for i, s in enumerate(snrs):
        row = (f"{s:7.1f}  {rayleigh_mrc_bpsk_ber(s, 1):12.4e}"
               f"  {rayleigh_mrc_bpsk_ber(s, 2):12.4e}")
        if args.check:
            pb0 = single.points[i]
            pbf = perfect.points[i]
            row += (f"  {pb0.ber:12.4e}{'' if pb0.converged else '*'}"
                    f"  {pbf.ber:12.4e}{'' if pbf.converged else '*'}")
        print(row)
    if args.check:
        print("  (* = stopped on the bit cap before reaching the error target)")

    print()
    print("random-codebook distortion, two transmit antennas")
    print(f"{'bits':>5}  {'1/(2^B+1)':>11}" +
          (f"  {'empirical':>11}" if args.check else ""))
    rng = np.random.default_rng(args.seed)
    for b in (1, 2, 3, 4, 6, 8):
        expected = min_uniform_mean(1 << b)
        row = f"{b:5d}  {expected:11.5f}"
        if args.check:
            n = 4000
            acc = 0.0
            for i in range(n):
                h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                cb = gen_rvq(2, b, seed=(b << 20) + i)
                acc += quantize_direction(h, cb).distortion
            row += f"  {acc / n:11.5f}"
        print(row)

    est = SimConfig(**PRESETS["fig4-estimated"])
    for title, preset, exact in (
        ("fig3-mimo22 perfect CSI: 2x2 QPSK max-eigenmode bit error rate",
         "fig3-mimo22", max_eigenmode_qpsk_ber),
        (f"fig4-estimated perfect feedback: 2x1 BPSK on an LS estimate, "
         f"{est.n_pilots} pilots at rho/{est.n_t}", "fig4-estimated",
         lambda s: estimated_mrc_bpsk_ber(s, est.n_t, est.n_pilots)),
    ):
        print()
        print(title)
        print(f"{'snr_db':>7}  {'exact':>12}" +
              (f"  {'sim perfect':>12}" if args.check else ""))
        if args.check:
            curve, = run_preset_check(
                preset, snrs, args.target_errors, args.max_bits, args.seed)
        for i, s in enumerate(snrs):
            row = f"{s:7.1f}  {exact(s):12.4e}"
            if args.check:
                p = curve.points[i]
                row += f"  {p.ber:12.4e}{'' if p.converged else '*'}"
            print(row)

    for preset, link in (("fig2-miso", "miso"), ("fig3-mimo22", "mimo22"),
                         ("fig4-estimated", "estimated")):
        print()
        print(f"{preset} with B feedback bits: exact bit error rate"
              + (" / simulated" if args.check else ""))
        width = 25 if args.check else 12
        print(f"{'snr_db':>7}" + "".join(
            f"  {f'B={b}':>{width}}" for b in RVQ_BITS))
        if args.check:
            curves = run_preset_check(preset, snrs, args.target_errors,
                                      args.max_bits, args.seed, RVQ_BITS)
        for i, s in enumerate(snrs):
            row = f"{s:7.1f}"
            for j, b in enumerate(RVQ_BITS):
                cell = f"{rvq_ber(link, s, b):.4e}"
                if args.check:
                    p = curves[j].points[i]
                    cell += f" / {p.ber:.4e}{'' if p.converged else '*'}"
                row += f"  {cell:>{width}}"
            print(row)

    print()
    print(f"feedback bits against antennas: the fewest bits B within "
          f"{GAP_DB} dB of perfect feedback at ber {GAP_BER:g}, n_t x 1 BPSK")
    print(f"{'n_t':>4}  {'perfect dB':>10}  {'B':>3}  {'gap dB':>7}"
          f"  {'gap at B-1':>10}")
    for n_t in ANTENNAS:
        base = snr_at(lambda s: rvq_ber("miso", s, None, n_t), GAP_BER)
        gaps = []
        while not gaps or gaps[-1] > GAP_DB:
            b = len(gaps)
            gaps.append(snr_at(lambda s: rvq_ber("miso", s, b, n_t),
                               GAP_BER) - base)
        print(f"{n_t:4d}  {base:10.2f}  {len(gaps) - 1:3d}  {gaps[-1]:7.2f}"
              f"  {gaps[-2]:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
