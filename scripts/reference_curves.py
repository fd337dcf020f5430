#!/usr/bin/env python3
"""Print the closed-form reference values the simulator is checked against.

For each preset of the command line, fig2-miso (2x1 BPSK), fig3-mimo22
(2x2 QPSK on the dominant eigenmode) and fig4-estimated (2x1 BPSK
beamformed and combined on an LS channel estimate), one table of the
exact bit error rate over an SNR grid, from ``tests/oracles.py:rvq_ber``:
with perfect feedback, and with the best of 2^B random codewords, B = 0
(a single random beam), 1, 2, 4 and 8.  Then the expected minimum
quantization distortion of a random codebook on two transmit antennas,
which for 2^B unit vectors is 1/(2^B + 1), and feedback bits against
antennas: for n_t = 2, 3 and 4 transmit antennas, the fewest bits B
that bring the n_t x 1 BPSK link within 0.5 dB of perfect feedback at
a bit error rate of 1e-3, from the exact law alone.

With --check, a short Monte Carlo run is placed next to each closed
form: each preset's six curves come from one sweep, built as the
command line builds it, and an empirical distortion mean is placed
next to the 1/(2^B+1) law.
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package, and the closed forms the tests check it against
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from lfbeam.cli import _parse_snr_flag, parse_config
from lfbeam.codebook import gen_rvq, quantize_direction
from lfbeam.simulator import ConfigError, run_sweeps
from oracles import min_uniform_mean, rvq_ber

# perfect feedback, then B bits
CURVES = (None, 0, 1, 2, 4, 8)
# bits against antennas: the gap to perfect feedback allowed at this BER
GAP_BER, GAP_DB, ANTENNAS = 1e-3, 0.5, (2, 3, 4)


def snr_at(ber_of_snr, target, lo=-20.0, hi=60.0):
    """The SNR in dB at which a falling BER curve crosses ``target``, by
    bisection to 1e-4 dB."""
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ber_of_snr(mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


def snr_list(text):
    """``--snr`` read as ``lfbeam --snr`` reads it, its error shown as
    a usage error."""
    try:
        return _parse_snr_flag(text)
    except ConfigError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snr", type=snr_list,
                    default="0,2,4,6,8,10,12,14,16,18,20",
                    help="comma-separated SNR grid in dB")
    ap.add_argument("--check", action="store_true",
                    help="run a short simulation next to each closed form")
    ap.add_argument("--target-errors", type=int, default=400)
    ap.add_argument("--max-bits", type=int, default=4_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    links = {"fig2-miso": "miso", "fig3-mimo22": "mimo22",
             "fig4-estimated": "estimated"}  # each preset's link in rvq_ber
    flags = {"snr_db_points": args.snr, "target_errors": args.target_errors,
             "max_bits": args.max_bits, "master_seed": args.seed,
             "curves": list(CURVES)}
    try:
        configs = [parse_config(preset=p, overrides=flags)[0] for p in links]
    except ConfigError as e:
        ap.error(str(e))

    width = 25 if args.check else 12
    for (preset, link), config in zip(links.items(), configs):
        sims = run_sweeps(config, list(CURVES)) if args.check else None
        link_text = f"{config.n_t}x{config.n_r} {config.modulation.upper()}"
        if config.csi_mode == "estimated":
            link_text += (f" on an LS estimate, {config.n_pilots} pilots "
                          f"at rho/{config.n_t}")
        print(f"{preset}, {link_text}, perfect and B feedback bits: exact "
              f"bit error rate" + (" / simulated" if sims else ""))
        print(f"{'snr_db':>7}" + "".join(
            f"  {'perfect' if b is None else f'B={b}':>{width}}"
            for b in CURVES))
        for i, s in enumerate(config.snr_db_points):
            row = f"{s:7.1f}"
            for j, b in enumerate(CURVES):
                cell = f"{rvq_ber(link, s, b):.4e}"
                if sims:
                    p = sims[j].points[i]
                    cell += f" / {p.ber:.4e}{'' if p.converged else '*'}"
                row += f"  {cell:>{width}}"
            print(row)
        print()
    if args.check:
        print("(* = stopped on the bit cap before reaching the error target)")
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
