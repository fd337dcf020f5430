"""End-to-end acceptance gate.

Each test is one acceptance criterion, checked at its stated tolerance;
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Expected BER values come from closed forms that were
computed and pinned (literals below) before the simulator was built,
cross-checked against numerical quadrature at moderate SNR; thresholds
for quantized-feedback gaps come from a brute-force pre-build pilot.

The whole module runs in about 40 s on one core of a shared 2-vCPU
Xeon; the costliest criteria are 3 (the distortion law, about 9 s) and
5 (the diversity slopes, about 7 s).
"""

import time

import numpy as np
import pytest

from lfbeam.beamforming import (
    SingularStackError,
    zfbf_precoders,
    zfbf_sinr,
)
from lfbeam.channel import (
    gen_rayleigh_flat,
    gen_selective_taps,
    ls_estimate,
    make_phase_shift_training,
    to_subcarriers,
)
from lfbeam.cli import main, parse_config
from lfbeam.codebook import _best_codewords, gen_rvq, quantize_direction
from lfbeam.simulator import SimConfig, run_sweep, run_sweeps, snr_at_ber
from oracles import (
    circular_convolve_mimo,
    estimated_mrc_bpsk_ber,
    max_eigenmode_qpsk_ber,
    min_uniform_mean,
    rayleigh_mrc_bpsk_ber,
    rvq_ber,
)

# Closed-form BER pinned before the simulator existed.  snr_db -> ber.
PINNED_MRC2 = {
    0.0: 5.805826e-02, 2.0: 3.275331e-02, 4.0: 1.693237e-02,
    6.0: 8.128910e-03, 8.0: 3.682868e-03, 10.0: 1.599101e-03,
}
PINNED_RAY1 = {
    0.0: 1.464466e-01, 2.0: 1.084847e-01, 4.0: 7.713692e-02,
    6.0: 5.299888e-02, 8.0: 3.545907e-02, 10.0: 2.326871e-02,
}
# Exact perfect-CSI BER of fig3-mimo22 (2x2 QPSK, max eigenmode) and
# fig4-estimated (2x1 BPSK on an LS estimate from 4 pilots at rho/n_t),
# checked against scipy quadrature to 1e-13.  snr_db -> ber.
PINNED_EIG22 = {0.0: 5.003148e-02, 8.0: 8.398494e-04, 16.0: 1.399602e-06}
PINNED_EST = {0.0: 1.150998e-01, 6.0: 1.759513e-02, 12.0: 1.500942e-03}
# Exact BER of the best of 2**B random codewords (B = 1, 2, 4, 8) on the
# three preset links, from an independent quadrature prototype.
# (link, snr_db) -> ber per B.
PINNED_RVQ = {
    ("miso", 0.0): (1.0037e-01, 7.7444e-02, 6.2394e-02, 5.8318e-02),
    ("miso", 6.0): (2.2767e-02, 1.3191e-02, 9.0588e-03, 8.1820e-03),
    ("mimo22", 0.0): (8.3943e-02, 6.6410e-02, 5.3831e-02, 5.0261e-02),
    ("mimo22", 4.0): (2.4088e-02, 1.5307e-02, 1.0575e-02, 9.4859e-03),
    ("mimo22", 8.0): (3.9790e-03, 1.7467e-03, 9.8166e-04, 8.4762e-04),
    ("estimated", 0.0): (1.6604e-01, 1.4045e-01, 1.2123e-01, 1.1548e-01),
    ("estimated", 6.0): (4.1124e-02, 2.6731e-02, 1.9395e-02, 1.7699e-02),
}

MISO = dict(n_t=2, n_r=1)  # the fig2-miso link geometry


def _sweep(feedback_bits, snrs, target, cap, **kw):
    cfg = SimConfig(
        feedback_bits=feedback_bits,
        snr_db_points=tuple(float(s) for s in snrs),
        target_errors=target,
        max_bits=cap,
        **kw,
    )
    return run_sweep(cfg)


def test_criterion_1_perfect_csi_matches_mrc_closed_form():
    """2x1 BPSK with perfect CSI reproduces two-branch-MRC BER
    within 5% relative at 0..10 dB."""
    snrs = sorted(PINNED_MRC2)
    for s in snrs:  # the oracle function must agree with the pinned table
        assert abs(rayleigh_mrc_bpsk_ber(s, 2) - PINNED_MRC2[s]) \
            <= 1e-6 * PINNED_MRC2[s]
    t0 = time.perf_counter()
    curve = _sweep(None, snrs, target=10_000, cap=40_000_000, **MISO)
    per_point = (time.perf_counter() - t0) / len(snrs)
    worst = 0.0
    for p in curve.points:
        ref = PINNED_MRC2[p.snr_db]
        rel = abs(p.ber - ref) / ref
        worst = max(worst, rel)
        assert rel <= 0.05, (p.snr_db, p.ber, ref, rel)
    assert per_point < 120.0, per_point
    print(f"[PASS] criterion 1: max relative deviation {worst:.2%} "
          f"(tolerance 5%), {per_point:.1f}s per point")


def test_criterion_2_single_random_beam_matches_rayleigh_closed_form():
    """B=0 (one random beamforming vector) reproduces single-branch
    Rayleigh BER within 5% relative."""
    snrs = sorted(PINNED_RAY1)
    for s in snrs:
        assert abs(rayleigh_mrc_bpsk_ber(s, 1) - PINNED_RAY1[s]) \
            <= 1e-6 * PINNED_RAY1[s]
    curve = _sweep(0, snrs, target=10_000, cap=40_000_000, **MISO)
    worst = 0.0
    for p in curve.points:
        ref = PINNED_RAY1[p.snr_db]
        rel = abs(p.ber - ref) / ref
        worst = max(worst, rel)
        assert rel <= 0.05, (p.snr_db, p.ber, ref, rel)
    print(f"[PASS] criterion 2: max relative deviation {worst:.2%} "
          f"(tolerance 5%)")


def test_criterion_3_rvq_distortion_law():
    """Mean quantization distortion for dim 2 equals 1/(2^B+1) within
    3 standard errors over 1e5 independent (channel, codebook) pairs.

    The pairs and distortions are those of one ``quantize_direction``
    call per pair: the same channel draws and ``gen_rvq`` seeds, with
    the codebooks stacked and searched in slabs of 10,000 trials."""
    rng = np.random.default_rng(2024)
    trials, slab = 100_000, 10_000
    lines = []
    for b in (1, 2, 4, 6):
        # trial i draws the real, then the imaginary parts of its channel
        z = rng.standard_normal((trials, 2, 2))
        h = z[:, 0] + 1j * z[:, 1]
        gain = np.empty(trials)
        for lo in range(0, trials, slab):
            # one codeword-major chunk, a codebook per trial
            words = np.stack([gen_rvq(2, b, seed=(b << 24) + i).vectors
                              for i in range(lo, lo + slab)], axis=1)
            hc = h[lo : lo + slab].conj()[:, None, None]
            gain[lo : lo + slab] = _best_codewords(
                hc, [words], [1 << b])[1][0, :, 0]
        power = np.array([np.vdot(x, x).real for x in h])
        d = np.clip(1.0 - gain / power, 0.0, 1.0)
        mean = d.mean()
        se = d.std(ddof=1) / np.sqrt(trials)
        expected = min_uniform_mean(1 << b)
        assert abs(mean - expected) <= 3.0 * se, (b, mean, expected, se)
        lines.append(f"B={b}: {mean:.5f} vs {expected:.5f} ({abs(mean-expected)/se:.2f} se)")
    print("[PASS] criterion 3: " + "; ".join(lines))


def test_criterion_4_quantized_curves_converge_to_perfect():
    """SNR gaps to the perfect-CSI curve at BER 1e-3 shrink
    monotonically in B and reach <= 0.5 dB at B=8."""
    target, cap = 2000, 30_000_000
    perfect = _sweep(None, (9, 11, 13), target, cap, **MISO)
    base = snr_at_ber(perfect, 1e-3)
    assert base is not None
    grids = {1: (13, 15, 17), 2: (11, 13, 15), 4: (9, 11, 13), 8: (9, 11, 13)}
    gaps = {}
    for b, snrs in grids.items():
        curve = _sweep(b, snrs, target, cap, **MISO)
        crossing = snr_at_ber(curve, 1e-3)
        assert crossing is not None, (b, [p.ber for p in curve.points])
        gaps[b] = crossing - base
    assert gaps[1] >= gaps[2] >= gaps[4] >= gaps[8], gaps
    assert gaps[8] <= 0.5, gaps
    text = ", ".join(f"B={b}: {gaps[b]:+.2f} dB" for b in (1, 2, 4, 8))
    print(f"[PASS] criterion 4: gaps at ber 1e-3 {text}")


def test_criterion_5_diversity_slopes():
    """Log-log BER slope over 15..25 dB: order ~2 with perfect CSI,
    order ~1 with a single random beam."""
    perfect = _sweep(None, (15, 25), target=100, cap=80_000_000, **MISO)
    b0 = _sweep(0, (15, 25), target=2000, cap=10_000_000, **MISO)

    def slope(curve):
        lo, hi = curve.points
        # 15 -> 25 dB spans exactly one decade of linear SNR
        return np.log10(hi.ber) - np.log10(lo.ber)

    s_perfect = slope(perfect)
    s_b0 = slope(b0)
    assert -2.4 <= s_perfect <= -1.6, s_perfect
    assert -1.3 <= s_b0 <= -0.7, s_b0
    print(f"[PASS] criterion 5: slopes perfect {s_perfect:.2f} "
          f"(band [-2.4,-1.6]), B=0 {s_b0:.2f} (band [-1.3,-0.7])")


def test_criterion_6_zfbf_invariants():
    """Zero-forcing invariant over 1e4 random 2-user realizations, plus
    interference-free SINR formula agreement with a transmit-chain
    measurement for perfect-direction feedback."""
    rng = np.random.default_rng(606)
    total_power = 10.0
    worst_cross = 0.0
    worst_interf = 0.0
    skipped = 0
    for i in range(10_000):
        h = np.stack([
            gen_rayleigh_flat(1, 2, rng)[0],
            gen_rayleigh_flat(1, 2, rng)[0],
        ])
        # quantized feedback: each user has its own fresh B=4 codebook
        cb0 = gen_rvq(2, 4, seed=2 * i)
        cb1 = gen_rvq(2, 4, seed=2 * i + 1)
        d = np.stack([
            cb0.vectors[quantize_direction(h[0], cb0).index],
            cb1.vectors[quantize_direction(h[1], cb1).index],
        ])
        try:
            p = zfbf_precoders(d)
        except SingularStackError:
            skipped += 1
            continue
        for a in range(2):
            for b in range(2):
                if a != b:
                    worst_cross = max(
                        worst_cross, abs(np.vdot(d[a], p[b]))
                    )
        # perfect-direction feedback: residual interference term of the
        # SINR formula collapses to numerical noise
        dp = h / np.linalg.norm(h, axis=1, keepdims=True)
        pp = zfbf_precoders(dp)
        for u in range(2):
            other = abs(np.vdot(h[u], pp[1 - u])) ** 2
            worst_interf = max(worst_interf, (total_power / 2.0) * other)
    assert skipped <= 2, skipped
    assert worst_cross <= 1e-9, worst_cross
    assert worst_interf <= 1e-18, worst_interf
    # transmit-chain measurement vs formula on a handful of realizations
    worst_match = 0.0
    for trial in range(5):
        h = np.stack([
            gen_rayleigh_flat(1, 2, rng)[0],
            gen_rayleigh_flat(1, 2, rng)[0],
        ])
        dp = h / np.linalg.norm(h, axis=1, keepdims=True)
        p = zfbf_precoders(dp)
        share = np.sqrt(total_power / 2.0)
        n_sym = 200_000
        s = np.exp(2j * np.pi * rng.random((2, n_sym)))
        tx = share * (p.T @ s)
        for u in range(2):
            noise = (rng.standard_normal(n_sym)
                     + 1j * rng.standard_normal(n_sym)) / np.sqrt(2)
            rx = h[u].conj() @ tx + noise
            wanted = share * (h[u].conj() @ p[u]) * s[u]
            measured = (np.abs(wanted) ** 2).mean() / \
                (np.abs(rx - wanted) ** 2).mean()
            formula = zfbf_sinr(h[u], p, u, total_power)
            worst_match = max(worst_match, abs(measured - formula) / formula)
    assert worst_match <= 0.02, worst_match
    print(f"[PASS] criterion 6: max |d_i^H v_j| {worst_cross:.2e} "
          f"(<=1e-9), max formula interference {worst_interf:.2e} "
          f"(<=1e-18), formula vs chain within {worst_match:.2%} (<=2%)")


def test_criterion_7_ofdm_subcarrier_equivalence():
    """Per-subcarrier multiplication equals circular convolution plus
    DFT within 1e-10 over 1e3 random tap sets (N=16, L=4)."""
    rng = np.random.default_rng(707)
    n = 16
    worst = 0.0
    for _ in range(1000):
        taps = gen_selective_taps(2, 2, 4, rng)
        h = to_subcarriers(taps, n)
        s = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        y_freq = np.fft.fft(
            circular_convolve_mimo(np.fft.ifft(s, axis=1), taps), axis=1
        )
        direct = np.einsum("krc,ck->rk", h, s)
        worst = max(worst, np.abs(direct - y_freq).max())
    assert worst <= 1e-10, worst
    print(f"[PASS] criterion 7: max abs deviation {worst:.2e} (<=1e-10)")


def test_criterion_8_estimation_degrades_every_point():
    """Estimated-CSI curves lie above their perfect-CSI counterparts at
    every SNR point (within half-widths); noiseless LS is exact."""
    rng = np.random.default_rng(808)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = make_phase_shift_training(2, 4)
    assert np.abs(ls_estimate(h @ s, s) - h).max() <= 1e-10
    snrs = (0, 4, 8, 12, 16)
    lines = []
    for bits in (None, 4):
        perf = _sweep(bits, snrs, target=800, cap=20_000_000, **MISO)
        est = _sweep(bits, snrs, target=800, cap=20_000_000,
                     csi_mode="estimated", **MISO)
        for pp, pe in zip(perf.points, est.points):
            slack = pp.half_width_95 + pe.half_width_95
            assert pe.ber >= pp.ber - slack, (bits, pp, pe)
        label = "perfect-fb" if bits is None else f"B={bits}"
        ratio = est.points[-1].ber / perf.points[-1].ber
        lines.append(f"{label}: est/perf ber ratio {ratio:.2f} at 16 dB")
    print("[PASS] criterion 8: " + "; ".join(lines))


def test_criterion_9_determinism_across_worker_counts(tmp_path):
    """Same master seed gives byte-identical CSVs for 1, 4, and 16
    workers, and across repeat runs."""
    import json

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "snr_db_points": [0.0, 4.0],
        "target_errors": 50,
        "max_bits": 40_000,
        "master_seed": 7,
    }))
    outputs = {}
    for threads in ("1", "4", "16", "1-again"):
        out = tmp_path / f"run-{threads}"
        code = main([
            "--config", str(cfg),
            "--feedback-bits", "perfect,2",
            "--threads", threads.split("-")[0],
            "--out-dir", str(out),
        ])
        assert code == 0
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("perfect.csv", "rvq-b2.csv")
        }
    baseline = outputs["1"]
    for key, files in outputs.items():
        assert files == baseline, f"{key} differs from single-worker run"
    print("[PASS] criterion 9: CSVs byte-identical for 1/4/16 workers "
          "and across reruns")


def test_criterion_10_perfect_curves_match_exact_oracles():
    """Every default curve of each preset reproduces its exact BER within
    5% relative at 10k errors, at two SNR points, in one sweep per
    preset: fig2-miso (perfect, B = 1, 2, 4, 8 at 0 and 6 dB),
    fig3-mimo22 (the same curves at 0 and 4 dB) and fig4-estimated
    (perfect and B = 4 at 0 and 6 dB)."""
    for s, ref in PINNED_EIG22.items():
        assert abs(max_eigenmode_qpsk_ber(s) - ref) <= 1e-6 * ref
        assert abs(rvq_ber("mimo22", s, None) - ref) <= 1e-6 * ref
    for s, ref in PINNED_EST.items():
        assert abs(estimated_mrc_bpsk_ber(s, 2, 4) - ref) <= 1e-6 * ref
        assert abs(rvq_ber("estimated", s, None) - ref) <= 1e-6 * ref
    for s, ref in PINNED_MRC2.items():
        assert abs(rvq_ber("miso", s, None) - ref) <= 1e-6 * ref
    for (link, s), refs in PINNED_RVQ.items():
        for b, ref in zip((1, 2, 4, 8), refs):
            # the oracle rounds to the pinned literal
            assert f"{rvq_ber(link, s, b):.4e}" == f"{ref:.4e}", (link, s, b)
    lines = []
    for preset, link, snrs in (
        ("fig2-miso", "miso", (0.0, 6.0)),
        ("fig3-mimo22", "mimo22", (0.0, 4.0)),
        ("fig4-estimated", "estimated", (0.0, 6.0)),
    ):
        config, curves = parse_config(preset=preset, overrides={
            "snr_db_points": snrs, "target_errors": 10_000,
            "max_bits": 40_000_000,
        })
        worst = 0.0
        for bits, curve in zip(curves, run_sweeps(config, curves)):
            for p in curve.points:
                ref = rvq_ber(link, p.snr_db, bits)
                rel = abs(p.ber - ref) / ref
                worst = max(worst, rel)
                assert rel <= 0.05, (preset, curve.label, p.snr_db, p.ber,
                                     ref, rel)
        lines.append(f"{preset} ({len(curves)} curves) max relative "
                     f"deviation {worst:.2%}")
    print("[PASS] criterion 10: " + "; ".join(lines) + " (tolerance 5%)")


def test_criterion_11_rvq_above_dim_2_matches_exact_oracle():
    """At n_t = 4 (fig2-miso's 1-antenna BPSK receiver), fresh B = 2, 4
    and 8 curves reproduce the exact n_t x 1 BER within 5% relative at
    10k errors, at 0 and 2 dB, in one sweep.  A B = 8 codebook of 256
    trials at dim 4 is drawn in two chunks of 128 codewords, so the
    search carries its running best across a chunk boundary."""
    config, curves = parse_config(preset="fig2-miso", overrides={
        "n_t": 4, "curves": [2, 4, 8], "snr_db_points": (0.0, 2.0),
        "target_errors": 10_000, "max_bits": 40_000_000,
    })
    worst = 0.0
    for bits, curve in zip(curves, run_sweeps(config, curves)):
        for p in curve.points:
            ref = rvq_ber("miso", p.snr_db, bits, n_t=4)
            rel = abs(p.ber - ref) / ref
            worst = max(worst, rel)
            assert p.converged and rel <= 0.05, (curve.label, p.snr_db,
                                                 p.ber, ref, rel)
    print(f"[PASS] criterion 11: n_t = 4, B = 2, 4, 8 max relative "
          f"deviation {worst:.2%} (tolerance 5%)")
