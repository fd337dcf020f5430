#!/usr/bin/env python3
"""Two-user zero-forcing beamforming with quantized direction feedback.

Each user measures its own 1x2 channel, quantizes the channel direction
on a private random codebook, and feeds back the index. The transmitter
stacks the two reported directions, inverts, and sends each user's
stream along the matching normalized column, splitting the power budget
evenly. Reported directions see no crosstalk by construction; the real
channels do, because the report is quantized.

Prints mean SINR and mean sum rate against the feedback budget, with
perfect-direction feedback (exact zero crosstalk) as the last row.
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lfbeam.beamforming import SingularStackError, zfbf_precoders, zfbf_sinr
from lfbeam.channel import gen_rayleigh_flat
from lfbeam.codebook import MAX_BITS, gen_rvq, quantize_direction


def drop_sinrs(h, directions, total_power):
    beams = zfbf_precoders(directions)
    return [zfbf_sinr(h[u], beams, u, total_power) for u in range(len(h))]


def bit_budgets(text):
    """The comma-separated feedback budgets of ``--bits``, each an
    integer in [0, MAX_BITS]."""
    try:
        budgets = [int(b) for b in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad --bits list: {e}") from None
    for b in budgets:
        if not 0 <= b <= MAX_BITS:
            raise argparse.ArgumentTypeError(
                f"bad --bits list: {b} is outside [0, {MAX_BITS}]")
    return budgets


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--drops", type=int, default=2000,
                    help="independent channel realizations per row")
    ap.add_argument("--power-db", type=float, default=10.0,
                    help="total transmit power over the noise floor, dB")
    ap.add_argument("--bits", type=bit_budgets, default="1,2,4,6,8",
                    help="comma-separated feedback budgets to sweep")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.drops < 1:  # every row averages over its drops
        ap.error(f"argument --drops: must be at least 1, got {args.drops}")

    total_power = 10.0 ** (args.power_db / 10.0)
    rows = []
    for bits in [*args.bits, None]:
        rng = np.random.default_rng(args.seed)  # same drops for every row
        sinr_acc = 0.0
        rate_acc = 0.0
        used = 0
        skipped = 0
        for i in range(args.drops):
            h = np.stack([
                gen_rayleigh_flat(1, 2, rng)[0],
                gen_rayleigh_flat(1, 2, rng)[0],
            ])
            if bits is None:
                d = h / np.linalg.norm(h, axis=1, keepdims=True)
            else:
                d = np.empty_like(h)
                for u in range(2):
                    cb = gen_rvq(2, bits, seed=2 * i + u)
                    d[u] = cb.vectors[quantize_direction(h[u], cb).index]
            try:
                sinrs = drop_sinrs(h, d, total_power)
            except SingularStackError:
                skipped += 1  # reported directions were (nearly) parallel
                continue
            used += 1
            sinr_acc += sum(sinrs) / 2.0
            rate_acc += sum(np.log2(1.0 + s) for s in sinrs)
        label = "perfect" if bits is None else f"B={bits}"
        rows.append((label, 10.0 * np.log10(sinr_acc / used),
                     rate_acc / used, skipped))

    print(f"two users, 2 tx antennas, total power {args.power_db:.1f} dB, "
          f"{args.drops} drops")
    print(f"{'feedback':>9}  {'mean sinr (dB)':>14}  "
          f"{'sum rate (b/s/Hz)':>17}  {'skipped':>7}")
    for label, sinr_db, rate, skipped in rows:
        print(f"{label:>9}  {sinr_db:14.2f}  {rate:17.3f}  {skipped:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
