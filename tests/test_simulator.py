import concurrent.futures
import json
import multiprocessing
import os
import pickle
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfbeam.codebook
import lfbeam.simulator
from lfbeam.channel import _complex_normal
from lfbeam.simulator import (
    BerCurve,
    BerPoint,
    ConfigError,
    OddBitCountError,
    SimConfig,
    TRIALS_PER_BATCH,
    _codebook_seed,
    _draw_batch,
    _receiver_links,
    _run_block,
    demodulate,
    modulate,
    run_sweep,
    run_sweeps,
    snr_at_ber,
    trial_effective_gains,
)

FAST = dict(snr_db_points=(0.0, 6.0), target_errors=60, max_bits=100_000)


# ---------------------------------------------------------------- modulation


def test_bpsk_mapping():
    out = modulate(np.array([0, 1, 1, 0]), "bpsk")
    assert np.array_equal(out, [1.0, -1.0, -1.0, 1.0])


def test_qpsk_mapping():
    out = modulate(np.array([0, 0, 1, 1]), "qpsk")
    s = 1 / np.sqrt(2)
    assert np.allclose(out, [s + 1j * s, -s - 1j * s], atol=1e-15)


def test_qpsk_gray_axes_are_independent():
    # flipping the first bit flips only the real sign
    a = modulate(np.array([0, 1]), "qpsk")[0]
    b = modulate(np.array([1, 1]), "qpsk")[0]
    assert a.real == -b.real and a.imag == b.imag


def test_unit_symbol_energy():
    bits = np.arange(8) % 2
    for scheme in ("bpsk", "qpsk"):
        syms = modulate(bits, scheme)
        assert np.allclose(np.abs(syms) ** 2, 1.0, atol=1e-15)


def test_round_trip_random_bits(rng):
    bits = rng.integers(0, 2, 10_000).astype(np.uint8)
    for scheme in ("bpsk", "qpsk"):
        back = demodulate(modulate(bits, scheme), scheme)
        assert np.array_equal(back, bits)


def test_qpsk_odd_bits_raise():
    with pytest.raises(OddBitCountError):
        modulate(np.array([1, 0, 1]), "qpsk")


def test_unknown_scheme_raises():
    with pytest.raises(ValueError):
        modulate(np.array([0, 1]), "8psk")
    with pytest.raises(ValueError):
        demodulate(np.array([1.0 + 0j]), "8psk")


# --------------------------------------------------------- combined noise


def test_awgn_statistics():
    """The data noise a unit combiner passes, ``z = a^H n``, is unit
    variance and circularly symmetric on a 2x2 link."""
    cfg = SimConfig(n_r=2, n_subcarriers=1024)
    _, h, _, noise = _draw_batch(cfg, 0)
    _, links = _receiver_links([cfg], [0], 0.0, h, None, noise, 0)
    z = links[0][2]
    assert abs((np.abs(z) ** 2).mean() - 1.0) <= 0.02
    assert abs(z.real.var() - 0.5) <= 0.01
    assert abs((z.real * z.imag).mean()) <= 0.01


# ------------------------------------------------------------ batch blocks


def one_batch(config, snr_db, batch):
    """(bits sent, bit errors, null skips) of the 256 trials of one
    batch at one SNR point."""
    block = _run_block(
        [replace(config, snr_db_points=(snr_db,))], np.ones((1, 1), bool),
        batch,
    )
    return tuple(block[0, 0].tolist())


def test_trial_is_deterministic():
    cfg = SimConfig(**FAST)
    assert one_batch(cfg, 6.0, 17) == one_batch(cfg, 6.0, 17)


def test_trial_counts_are_consistent():
    cfg = SimConfig(**FAST)
    bits_sent, bit_errors, null_skips = one_batch(cfg, 0.0, 2)
    assert bits_sent == (
        TRIALS_PER_BATCH * cfg.n_subcarriers * cfg.bits_per_symbol
    )
    assert 0 < bit_errors < bits_sent
    assert null_skips == 0


def test_block_scores_only_active_pairs():
    cfg = SimConfig(feedback_bits=2, **FAST)
    active = np.array([[False, True]])  # only the 6 dB point
    for batch in (0, 9):
        block = _run_block([cfg], active, batch)
        assert tuple(block[0, 1]) == one_batch(cfg, 6.0, batch)
        assert not block[0, 0].any()


@pytest.mark.parametrize("link", [
    dict(),
    dict(modulation="qpsk", n_r=2),
    dict(modulation="qpsk", csi_mode="estimated"),
], ids=["bpsk", "qpsk-2x2", "qpsk-estimated"])
def test_block_counts_equal_a_demodulate_reference(monkeypatch, link):
    """``_run_block`` counts what ``modulate``, ``sqrt(rho) * g * x + z``
    and ``demodulate`` count from the links of ``_receiver_links``, for
    every (curve, SNR) pair, with some subcarriers' channels zeroed: under
    perfect CSI they are null-skipped, and their bits count neither as
    sent nor as errors."""
    cfg = SimConfig(snr_db_points=(0.0, 6.0), **link)
    configs = [replace(cfg, feedback_bits=b) for b in (None, 2)]
    draw = lfbeam.simulator._draw_batch

    def with_nulls(config, batch):
        bits, h, est_error, noise = draw(config, batch)
        h[3, :5] = 0.0
        h[200, 63] = 0.0
        return bits, h, est_error, noise

    monkeypatch.setattr(lfbeam.simulator, "_draw_batch", with_nulls)
    batch = 4
    block = _run_block(configs, np.ones((2, 2), bool), batch)
    bits, h, est_error, noise = with_nulls(cfg, batch)
    n, bps = cfg.n_subcarriers, cfg.bits_per_symbol
    x = modulate(bits.reshape(-1), cfg.modulation).reshape(-1, n)
    for s, snr_db in enumerate(cfg.snr_db_points):
        _, links = _receiver_links(configs, [0, 1], snr_db, h, est_error,
                                   noise, batch)
        for c in (0, 1):
            _, g, z, ok = links[c]
            x_hat = np.sqrt(10.0 ** (snr_db / 10.0)) * g * x + z
            rx = demodulate(x_hat.reshape(-1), cfg.modulation)
            errors = (rx.reshape(bits.shape) != bits) & np.repeat(ok, bps, 1)
            want = (ok.sum() * bps, errors.sum(), (~ok).sum())
            assert tuple(block[c, s].tolist()) == want
            assert want[1] > 0
            assert want[2] == (6 if cfg.csi_mode == "perfect" else 0)


def test_noiseless_trials_have_zero_errors():
    for kw in (dict(), dict(feedback_bits=3), dict(modulation="qpsk", n_r=2)):
        cfg = SimConfig(**FAST, **kw)
        for batch in range(2):
            assert one_batch(cfg, 300.0, batch)[1] == 0


def _replay_batch(cfg, batch):
    """The documented draws of one batch: bits, taps, unit LS estimation
    error (n_t entries per subcarrier and receive antenna) and data
    noise, 256 rows each, from one stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch])
    )
    t, n = TRIALS_PER_BATCH, cfg.n_subcarriers
    bits = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    taps = _complex_normal(
        rng, (t, cfg.n_taps, cfg.n_r, cfg.n_t), np.sqrt(0.5 / cfg.n_taps)
    )
    est_error = _complex_normal(rng, (t, n, cfg.n_r, cfg.n_t), np.sqrt(0.5))
    noise = _complex_normal(rng, (t, n, cfg.n_r), np.sqrt(0.5))
    h = np.fft.fft(taps, n=n, axis=1)
    return bits, h, est_error, noise


def _replay_codebooks(cfg, batch, bits):
    """The documented fresh codebooks of one batch, (2**bits, 256, n_t):
    codeword-major Gaussian draws from the batch's codebook stream, each
    divided by the root of its sum of squared (re, im) parts."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch, 1])
    )
    g = rng.standard_normal((1 << bits, TRIALS_PER_BATCH, cfg.n_t, 2))
    g /= np.sqrt(np.einsum("...ij,...ij->...", g, g))[..., None, None]
    return g.view(np.complex128)[..., 0]


def _fresh_chunks(cfg, batch, bits):
    """The chunks :func:`_draw_codewords` yields for the fresh codebooks
    of one batch, drawn from the batch's codebook stream."""
    rng = np.random.default_rng([cfg.master_seed, batch, 1])
    return list(lfbeam.codebook._draw_codewords(
        rng, 1 << bits, TRIALS_PER_BATCH, cfg.n_t
    ))


def _are_codewords(beams, words):
    """Whether every beam (n, n_t) is one of the codewords (k, n_t)."""
    return all((words == beam).all(axis=1).any() for beam in beams)


def test_draw_order_is_documented_order():
    """Replaying (bits, taps, estimation error, data noise) from the batch
    stream reproduces the draws the simulator used, batch by batch.  The
    fresh codebooks come from each batch's codebook stream: batch 2 gets
    its codeword-major draw, scaled to unit length, and the beams of
    trial 277 and of every trial of batch 2 are codewords of their
    trial's codebook."""
    cfg = SimConfig(feedback_bits=3, csi_mode="estimated", master_seed=7,
                    **FAST)
    replay = {b: _replay_batch(cfg, b) for b in (1, 2)}
    for b, want in replay.items():
        for drawn, arr in zip(_draw_batch(cfg, b), want):
            assert np.array_equal(drawn, arr)
    books = {b: _replay_codebooks(cfg, b, cfg.feedback_bits) for b in (1, 2)}
    drawn = _fresh_chunks(cfg, 2, cfg.feedback_bits)
    # codeword-major chunks, (w, 256, n_t) in C order
    assert all(g.flags.c_contiguous for g in drawn)
    assert np.array_equal(np.concatenate(drawn), books[2])
    d = trial_effective_gains(cfg, 6.0, 256 + 21)
    assert np.array_equal(d["channel"], replay[1][1][21])
    assert _are_codewords(d["beams"], books[1][:, 21])
    _, h, est_error, noise = replay[2]
    _, links = _receiver_links([cfg], [0], 6.0, h, est_error, noise, 2)
    for r, beams in enumerate(links[0][0]):
        assert _are_codewords(beams, books[2][:, r])


def test_every_curve_sees_the_same_noise():
    """Fresh codebooks come from streams of their own, so they leave a
    batch's noise as on the perfect-CSI curve."""
    perfect = _draw_batch(SimConfig(**FAST), 5)
    fresh = _draw_batch(SimConfig(feedback_bits=4, **FAST), 5)
    assert np.array_equal(perfect[3], fresh[3])


def test_post_combining_snr_identity():
    """Perfect-CSI MISO: rho * |a^H H b|^2 == rho * ||h_k||^2 exactly."""
    cfg = SimConfig(**FAST)
    d = trial_effective_gains(cfg, 10.0, 4)
    norms = (np.abs(d["channel"][:, 0, :]) ** 2).sum(axis=1)
    assert np.allclose(np.abs(d["gains"]) ** 2, norms, rtol=1e-10)
    assert d["ok"].all()


def test_quantized_gains_never_beat_perfect():
    perfect = SimConfig(**FAST)
    quant = SimConfig(feedback_bits=1, **FAST)
    for idx in range(10):
        gp = np.abs(trial_effective_gains(perfect, 6.0, idx)["gains"]) ** 2
        gq = np.abs(trial_effective_gains(quant, 6.0, idx)["gains"]) ** 2
        assert (gq <= gp * (1.0 + 1e-9)).all()


def test_more_feedback_bits_never_hurt_gains():
    """Nested codebooks: per subcarrier, B=6 gain >= B=2 gain on the
    same trial."""
    lo = SimConfig(feedback_bits=2, **FAST)
    hi = SimConfig(feedback_bits=6, **FAST)
    for idx in range(10):
        gl = np.abs(trial_effective_gains(lo, 6.0, idx)["gains"]) ** 2
        gh = np.abs(trial_effective_gains(hi, 6.0, idx)["gains"]) ** 2
        assert (gh >= gl * (1.0 - 1e-9)).all()


def test_estimated_mode_tracks_truth_at_high_pilot_power():
    cfg = SimConfig(csi_mode="estimated", pilot_snr_db=60.0, **FAST)
    d = trial_effective_gains(cfg, 6.0, 3)
    err = np.abs(d["rx_channel"] - d["channel"]).max()
    assert 0.0 < err < 0.01


def test_estimated_error_shrinks_with_pilot_power():
    noisy = SimConfig(csi_mode="estimated", pilot_snr_db=0.0, **FAST)
    clean = SimConfig(csi_mode="estimated", pilot_snr_db=20.0, **FAST)
    e0 = e1 = 0.0
    for idx in range(8):
        dn = trial_effective_gains(noisy, 6.0, idx)
        dc = trial_effective_gains(clean, 6.0, idx)
        e0 += (np.abs(dn["rx_channel"] - dn["channel"]) ** 2).mean()
        e1 += (np.abs(dc["rx_channel"] - dc["channel"]) ** 2).mean()
    assert e0 > 10.0 * e1  # 20 dB more pilot power: ~100x smaller MSE


def test_estimation_error_follows_the_ls_law():
    """Over one batch at a fixed pilot SNR, the receiver's error
    ``hr - h`` has the LS law: ``n_pilots * rho_p * E|hr - h|^2`` is
    within 3% of 1, and the two transmit antennas' errors are
    uncorrelated (below 0.03), both about 4 standard errors."""
    cfg = SimConfig(csi_mode="estimated", pilot_snr_db=10.0, **FAST)
    _, h, est_error, noise = _draw_batch(cfg, 3)
    hr, _ = _receiver_links([cfg], [0], 6.0, h, est_error, noise, 3)
    err = (hr - h).reshape(-1, cfg.n_t)
    power = (np.abs(err) ** 2).mean(axis=0)
    scaled = cfg.n_pilots * 10.0 ** (cfg.pilot_snr_db / 10.0) * power.mean()
    assert abs(scaled - 1.0) <= 0.03, scaled
    corr = abs(np.vdot(err[:, 1], err[:, 0])) / len(err) / np.sqrt(
        power.prod())
    assert corr <= 0.03, corr


def test_fixed_codebook_mode_shares_one_codebook():
    """Every trial's beams, in any batch, are codewords of the one
    seeded codebook, and the two modes simulate different links."""
    cfg = SimConfig(feedback_bits=3, fresh_codebook=False, **FAST)
    words = lfbeam.codebook.gen_rvq(cfg.n_t, 3, _codebook_seed(cfg)).vectors
    for idx in (3, 256 + 40, 5 * 256 + 7):
        assert _are_codewords(trial_effective_gains(cfg, 6.0, idx)["beams"],
                              words)
    assert one_batch(cfg, 6.0, 0) == one_batch(cfg, 6.0, 0)
    fresh = SimConfig(feedback_bits=3, fresh_codebook=True, **FAST)
    assert one_batch(cfg, 6.0, 0) != one_batch(fresh, 6.0, 0)


def test_fixed_codebook_is_the_gen_rvq_codebook(monkeypatch):
    """The codebook that fixed-codebook curves search is
    ``gen_rvq(n_t, B, _codebook_seed(cfg))``, one group of codewords.
    Drawn in chunks of 3 codewords, that codebook, its prefixes, the
    smaller ``gen_rvq`` codebooks and the beams searched from it do not
    change."""
    cfg = SimConfig(feedback_bits=5, fresh_codebook=False, **FAST)
    seed = _codebook_seed(cfg)
    want = lfbeam.codebook.gen_rvq(cfg.n_t, 5, seed).vectors
    searched = []
    search = lfbeam.simulator._best_codewords

    def search_spy(h, chunks, sizes):
        searched.extend(chunks)
        return search(h, searched, sizes)

    _, h, _, _ = _draw_batch(cfg, 0)
    with monkeypatch.context() as m:
        m.setattr(lfbeam.simulator, "_best_codewords", search_spy)
        beams = lfbeam.simulator._beam_directions([cfg], [0], h, 0)[0]
    assert [g.shape for g in searched] == [(32, 1, cfg.n_t)]
    assert np.array_equal(searched[0][:, 0], want)
    monkeypatch.setattr(lfbeam.codebook, "_DRAW_CHUNK", 3 * 2 * cfg.n_t)
    assert np.array_equal(lfbeam.codebook.gen_rvq(cfg.n_t, 5, seed).vectors,
                          want)
    for bits in range(5):
        small = lfbeam.codebook.gen_rvq(cfg.n_t, bits, seed).vectors
        assert np.array_equal(small, want[: 1 << bits])
    chunked = lfbeam.simulator._beam_directions([cfg], [0], h, 0)[0]
    assert np.array_equal(chunked, beams)


def test_fixed_curves_share_one_search(monkeypatch):
    """Fixed-codebook curves 1, 4 and 8 next to the perfect curve search
    one seeded 256-word codebook: each ``_beam_directions`` call with a
    quantized curve running makes it once, always with B = 8 and the
    same seed, and each curve equals its curve swept alone."""
    cfg = SimConfig(fresh_codebook=False, snr_db_points=(0.0, 6.0),
                    target_errors=300, max_bits=100_000)
    curves = [None, 1, 4, 8]
    alone = [
        run_sweep(replace(cfg, feedback_bits=bits)).to_csv_text()
        for bits in curves
    ]
    made, searches = [], []
    draw = lfbeam.simulator._draw_codewords
    search = lfbeam.simulator._beam_directions

    def draw_spy(rng, size, groups, dim):
        bits, seed = size.bit_length() - 1, rng.bit_generator.seed_seq.entropy
        made.append((bits, seed))
        return draw(rng, size, groups, dim)

    def search_spy(configs, running, hr, batch):
        searches.append(
            any(configs[c].feedback_bits is not None for c in running)
        )
        return search(configs, running, hr, batch)

    monkeypatch.setattr(lfbeam.simulator, "_draw_codewords", draw_spy)
    monkeypatch.setattr(lfbeam.simulator, "_beam_directions", search_spy)
    joint = run_sweeps(cfg, curves)
    assert [c.to_csv_text() for c in joint] == alone
    assert sum(searches) > 1
    assert made == [(8, _codebook_seed(cfg))] * sum(searches)


# ---------------------------------------------------------------- run_sweep


def test_sweep_csv_shape_and_values():
    cfg = SimConfig(**FAST)
    curve = run_sweep(cfg)
    text = curve.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "snr_db,bits,errors,ber,ci95"
    assert len(lines) == 1 + len(cfg.snr_db_points)
    for line, point in zip(lines[1:], curve.points):
        snr, bits, errors, ber, ci = line.split(",")
        assert float(snr) == point.snr_db
        assert int(bits) == point.bits_sent
        assert int(errors) == point.bit_errors
        assert abs(float(ber) - point.ber) <= 1e-12
        assert abs(float(ci) - point.half_width_95) <= 1e-12
        assert point.ber == point.bit_errors / point.bits_sent


def test_sweep_worker_count_does_not_change_results():
    """Workers take whole batches and each (curve, SNR) pair stops on its
    own rule, so every curve of a joint sweep equals that curve swept
    alone, also at 3 workers, where pairs stop in the middle of a round."""
    cfg = SimConfig(**FAST)
    solo = run_sweep(cfg, n_workers=1)
    duo = run_sweep(cfg, n_workers=2)
    assert solo.to_csv_text() == duo.to_csv_text()
    cfg = SimConfig(snr_db_points=(0.0, 6.0, 12.0), target_errors=300,
                    max_bits=100_000)
    curves = [None, 0, 3]
    alone = [
        run_sweep(replace(cfg, feedback_bits=bits)).to_csv_text()
        for bits in curves
    ]
    for workers in (1, 3):
        joint = run_sweeps(cfg, curves, n_workers=workers)
        assert [c.to_csv_text() for c in joint] == alone


def test_serial_sweeps_on_two_threads_keep_their_links():
    """A 2x1 and a 2x2 serial sweep started together on two threads of
    one process each return the CSVs they return alone: a block depends
    on its task alone, not on state that the other sweep can change."""
    base = SimConfig(snr_db_points=(0.0, 8.0), target_errors=10**6,
                     max_bits=200_000)
    links = [base, replace(base, n_r=2, modulation="qpsk")]
    curves = [None, 3]

    def sweep(cfg):
        return [c.to_csv_text() for c in run_sweeps(cfg, curves)]

    alone = [sweep(cfg) for cfg in links]
    together = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        together[i] = sweep(links[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert together == alone


def test_mimo22_counts_are_pinned(monkeypatch):
    """A short 2x2 QPSK sweep gives the counts it gave when the perfect
    beam came from ``np.linalg.eigh``; the two-column closed form now
    serves it, so ``eigh`` is never called."""

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called on a 2x2 link")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    cfg = SimConfig(n_r=2, modulation="qpsk", snr_db_points=(0.0, 4.0),
                    target_errors=600, max_bits=200_000, master_seed=5)
    counts = [
        [(p.bits_sent, p.bit_errors, p.null_skips) for p in curve.points]
        for curve in run_sweeps(cfg, [None, 8])
    ]
    assert counts == [
        [(32768, 1646, 0), (98304, 922, 0)],
        [(32768, 1586, 0), (98304, 904, 0)],
    ]


@pytest.mark.parametrize("link, curves, pinned", [
    (dict(), [None, 1, 2, 4, 8], [
        [(16384, 903, 0), (49152, 898, 0)],
        [(16384, 1545, 0), (16384, 602, 0)],
        [(16384, 1229, 0), (32768, 757, 0)],
        [(16384, 957, 0), (49152, 871, 0)],
        [(16384, 910, 0), (49152, 797, 0)],
    ]),
    (dict(csi_mode="estimated", fresh_codebook=False, snr_db_points=(0.0, 8.0)),
     [None, 6], [
        [(16384, 1832, 0), (81920, 670, 0)],
        [(16384, 1891, 0), (81920, 693, 0)],
    ]),
], ids=["miso", "estimated-fixed-b6"])
def test_link_counts_are_pinned(link, curves, pinned):
    """Short 2x1 BPSK sweeps, with fresh codebooks under perfect CSI
    (curves 1, 2, 4 and 8, so every prefix end 2, 4, 16 and 256 of the
    search) and with one fixed B=6 codebook under estimated CSI, give
    the counts they gave when detection scaled each pair's beams and sent
    them through the channel, before it read the per-curve effective
    gains.  The estimated counts date from when the LS error began to be
    drawn from its exact law; their 0 dB BERs, 0.1118 and 0.1154, lie
    within 3% of the exact perfect-feedback BER 0.1151."""
    base = dict(snr_db_points=(0.0, 4.0), target_errors=600,
                max_bits=200_000, master_seed=5)
    cfg = SimConfig(**{**base, **link})
    counts = [
        [(p.bits_sent, p.bit_errors, p.null_skips) for p in curve.points]
        for curve in run_sweeps(cfg, curves)
    ]
    assert counts == pinned


def test_fresh_curves_share_one_codebook_per_trial(monkeypatch):
    """Curves 0, 1 and 8 of one sweep search one 256-word codebook per
    trial, drawn from the batch's codebook stream with no ``gen_rvq``
    call; the B-bit curve picks from the first 2**B codewords, and each
    curve still equals its curve swept alone."""
    cfg = SimConfig(**FAST)
    curves = [0, 1, 8]
    alone = [
        run_sweep(replace(cfg, feedback_bits=bits)).to_csv_text()
        for bits in curves
    ]
    sizes = []
    gen = lfbeam.simulator.gen_rvq

    def gen_spy(dim, bits, seed):
        sizes.append(bits)
        return gen(dim, bits, seed)

    monkeypatch.setattr(lfbeam.simulator, "gen_rvq", gen_spy)
    joint = run_sweeps(cfg, curves)
    assert [c.to_csv_text() for c in joint] == alone
    assert sizes == []
    configs = [replace(cfg, feedback_bits=bits) for bits in curves]
    _, h, _, _ = _draw_batch(cfg, 1)
    beams = lfbeam.simulator._beam_directions(configs, [0, 1, 2], h, 1)
    books = _replay_codebooks(cfg, 1, 8)
    for c, bits in enumerate(curves):
        for r in range(40, 48):
            prefix = books[: 1 << bits, r]
            assert _are_codewords(beams[c][r], prefix)
    assert (beams[0] == books[0, :, None]).all()  # B=0: codeword 0


def test_codeword_chunks_do_not_change_results(monkeypatch):
    """A fresh B=8 batch picks the same beams and gives the same totals,
    in two batches, whether its 256 codewords are drawn in one chunk and
    scored in 1 MB tiles, drawn in 64 chunks of 4 codewords, or scored
    in tiles of 7 codewords of one trial (the last one ragged).  Chunks
    are codeword-major, (w, 256, n_t), and the 64 small ones are the one
    chunk cut along its codeword axis."""
    cfg = SimConfig(feedback_bits=8, **FAST)
    active = np.ones((1, len(cfg.snr_db_points)), dtype=bool)
    per_codeword = 2 * TRIALS_PER_BATCH * cfg.n_t  # normals per codeword
    shape = (TRIALS_PER_BATCH, cfg.n_t)

    def run(batch):
        _, h, _, _ = _draw_batch(cfg, batch)
        beams = lfbeam.simulator._beam_directions([cfg], [0], h, batch)
        return beams[0], _run_block([cfg], active, batch)

    batches = (0, 3)
    whole = [run(batch) for batch in batches]
    one = _fresh_chunks(cfg, 0, 8)
    assert [g.shape for g in one] == [(256,) + shape]
    for draw_chunk, budget, width in (
        (4 * per_codeword, lfbeam.codebook._GAIN_BUDGET, 4),
        (lfbeam.codebook._DRAW_CHUNK, 7 * cfg.n_subcarriers, 256),
    ):
        monkeypatch.setattr(lfbeam.codebook, "_DRAW_CHUNK", draw_chunk)
        monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", budget)
        drawn = _fresh_chunks(cfg, 0, 8)
        assert [g.shape for g in drawn] == [(width,) + shape] * (256 // width)
        assert np.array_equal(np.concatenate(drawn), one[0])
        for (beams, totals), batch in zip(whole, batches):
            beams_c, totals_c = run(batch)
            assert np.array_equal(beams_c, beams)
            assert np.array_equal(totals_c, totals)
        monkeypatch.undo()


def test_fresh_curve_does_not_depend_on_the_largest_curve():
    """Codeword j of a trial depends neither on B_max nor on the chunk
    width: next to a B=10 curve, whose 1,024 codewords are drawn in
    several chunks, the B=1 curve equals the B=1 curve swept alone."""
    cfg = SimConfig(**FAST)
    assert len(_fresh_chunks(cfg, 0, 10)) > 1
    joint = run_sweeps(cfg, [1, 10])
    alone = run_sweep(replace(cfg, feedback_bits=1))
    assert joint[0].to_csv_text() == alone.to_csv_text()


def test_fresh_codebook_memory_is_bounded():
    """One fresh B=14 block on 8 subcarriers peaks below 8 MB (6.4 MB
    measured), under a sixteenth of the 128 MB that the batch's 16,384
    codewords of 256 trials take when drawn at once; the codeword chunks
    keep it near one chunk's draws and features (2 MB each), the
    conjugate the lift writes them from and one 1 MB gain tile."""
    cfg = SimConfig(n_subcarriers=8, feedback_bits=14, snr_db_points=(6.0,))
    whole = (1 << 14) * TRIALS_PER_BATCH * cfg.n_t * 16
    assert whole == 128 << 20
    tracemalloc.start()
    try:
        totals = _run_block([cfg], np.ones((1, 1), bool), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals[0, 0, 0] == 256 * cfg.n_subcarriers
    assert peak < 8 << 20


# Run in a fresh interpreter: two warm-up blocks at each geometry, then
# the minor page faults of one more block of each.
_HEAP_SCRIPT = """
import resource
from dataclasses import replace
import numpy as np
from lfbeam.simulator import SimConfig, _run_block
geometries = [
    ("miso", SimConfig(snr_db_points=(0.0, 4.0, 8.0, 12.0)),
     [None, 1, 2, 4, 8]),
    ("mimo22", SimConfig(n_r=2, modulation="qpsk",
                         snr_db_points=(0.0, 4.0, 8.0)), [None, 8]),
    ("estimated", SimConfig(csi_mode="estimated", fresh_codebook=False,
                            snr_db_points=(24.0,)), [6]),
]
for name, cfg, curves in geometries:
    configs = [replace(cfg, feedback_bits=b) for b in curves]
    active = np.ones((len(configs), len(cfg.snr_db_points)), bool)
    for batch in (0, 1):
        _run_block(configs, active, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _run_block(configs, active, 2)
    print(name, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap priming is glibc malloc's")
def test_warm_blocks_do_not_fault_the_heap_in():
    """Once warm, a block reuses the heap: fewer than 64 minor page
    faults per block on the miso (fresh B = 1 to 8), mimo22 (B = 8) and
    estimated-CSI (fixed B = 6) geometries.  Without the priming at
    import, glibc hands the heap back after every block, and such a
    block takes about 1,300 to 3,600."""
    src = os.path.dirname(os.path.dirname(lfbeam.simulator.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _HEAP_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    faults = {name: int(n) for name, n in map(str.split,
                                              run.stdout.splitlines())}
    assert list(faults) == ["miso", "mimo22", "estimated"]
    assert all(n < 64 for n in faults.values()), faults


def test_duplicate_curves_rejected():
    with pytest.raises(ConfigError):
        run_sweeps(SimConfig(**FAST), [2, None, 2])
    with pytest.raises(ConfigError):
        run_sweeps(SimConfig(**FAST), [None, None])


@pytest.mark.parametrize("n_workers", [-1, 2.5, True, np.float64(1.5)])
def test_sweep_rejects_a_worker_count_that_is_not_a_count(n_workers):
    """Refused as a config refuses a bad integer, instead of running on
    one worker or failing inside the pool."""
    with pytest.raises(ConfigError, match="n_workers"):
        run_sweeps(SimConfig(**FAST), [None], n_workers=n_workers)


def test_bench_stages_add_up_to_the_real_block(load_script):
    """``scripts/bench_blocks.py`` reads a block's stages from spans
    around the simulator's own ``_run_block``: they add up to the block,
    none is negative, and the simulator's functions are its own again
    afterwards, also when the block raises."""
    bench = load_script("bench_blocks")
    bench.load(os.path.dirname(os.path.dirname(lfbeam.simulator.__file__)))
    names = ("_run_block", "_receiver_links", "_beam_directions", "_draw_batch")
    originals = [getattr(lfbeam.simulator, name) for name in names]
    configs = [SimConfig(feedback_bits=bits, **FAST) for bits in (None, 2)]
    active = np.ones((2, len(FAST["snr_db_points"])), dtype=bool)
    ms, _ = bench.time_blocks(configs, active, [1])
    stages = [ms[f"{stage}_ms"] for stage in ("draw", "search", "links",
                                               "detect")]
    assert min(stages) >= 0.0
    assert sum(stages) == pytest.approx(ms["block_ms"], rel=1e-9, abs=0)
    assert [getattr(lfbeam.simulator, name) for name in names] == originals
    with pytest.raises(ValueError):  # a negative batch has no stream
        bench.time_blocks(configs, active, [-1])
    assert [getattr(lfbeam.simulator, name) for name in names] == originals


@pytest.fixture
def pool_tasks(monkeypatch):
    """The tasks every worker pool is sent, one ``_run_block`` call each,
    in the order they are submitted."""
    sent = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def spy(self, fn, /, *args, **kwargs):
        sent.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
    return sent


def test_window_keeps_results_and_bounds_spare_batches(pool_tasks):
    """Batches in flight are reduced in batch order with the mask they
    were sent with, so an error-target-stopped two-curve sweep and a
    capped sweep give the same CSVs at 1, 2 and 3 workers.  The 2-worker
    sweep sends batches in order and at most ``2 * 2 - 1`` past the last
    one it reduces."""
    stopped = SimConfig(snr_db_points=(0.0, 4.0, 8.0), target_errors=300,
                        max_bits=10**6)
    capped = SimConfig(snr_db_points=(20.0, 30.0), target_errors=10**6,
                       max_bits=100_000)
    for cfg in (stopped, capped):
        csvs = {}
        for workers in (1, 2, 3):
            pool_tasks.clear()
            curves = run_sweeps(cfg, [None, 2], n_workers=workers)
            csvs[workers] = [c.to_csv_text() for c in curves]
            if workers == 2:
                sent = [task[2] for task in pool_tasks]
                trials = max(
                    p.bits_sent // cfg.bits_per_symbol + p.null_skips
                    for c in curves for p in c.points
                ) // cfg.n_subcarriers
                reduced = trials // TRIALS_PER_BATCH
                assert sent == list(range(len(sent)))
                assert reduced <= len(sent) <= reduced + 2 * workers - 1
        assert csvs[1] == csvs[2] == csvs[3]
    # every pair of the capped sweep ran to the cap
    assert len({p.bits_sent for c in curves for p in c.points}) == 1
    assert not any(p.converged for c in curves for p in c.points)


def test_worker_error_terminates_the_pool(monkeypatch):
    """A worker's error is raised by the sweep at once: the pool is
    terminated, not left to finish the batches in flight, and no worker
    process outlives the call."""

    def draw(config, batch):
        if batch:
            time.sleep(60)
        raise RuntimeError(f"no draws for batch {batch}")

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(lfbeam.simulator, "_draw_batch", draw)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="no draws for batch 0"):
        run_sweeps(SimConfig(**FAST), [None], n_workers=2)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


# Run in a fresh interpreter: a 2-worker sweep whose worker is killed
# on batch 3.
_KILLED_WORKER_SCRIPT = """
import multiprocessing, os, signal, time
from concurrent.futures.process import BrokenProcessPool
import lfbeam.simulator
from lfbeam.simulator import SimConfig, run_sweeps
draw = lfbeam.simulator._draw_batch

def killed_on_batch_3(config, batch):
    if batch == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return draw(config, batch)

lfbeam.simulator._draw_batch = killed_on_batch_3
cfg = SimConfig(snr_db_points=(20.0,), target_errors=10**6, max_bits=10**7)
start = time.perf_counter()
try:
    run_sweeps(cfg, [None], n_workers=2)
except BrokenProcessPool:
    print(time.perf_counter() - start, len(multiprocessing.active_children()))
"""


def test_killed_worker_fails_the_sweep():
    """A worker killed mid-batch fails the sweep with
    ``BrokenProcessPool`` within seconds, leaving no worker behind,
    instead of waiting for its batch forever."""
    src = os.path.dirname(os.path.dirname(lfbeam.simulator.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _KILLED_WORKER_SCRIPT],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    elapsed, children = run.stdout.split()
    assert float(elapsed) < 10
    assert children == "0"


def test_capped_sweep_sends_no_spare_batches(monkeypatch, pool_tasks):
    """A round sends no more batches than the bit cap can still use: a
    capped 2-worker sweep needing 3 batches runs 3 blocks, not 4."""
    cfg = SimConfig(snr_db_points=(20.0, 30.0), target_errors=10**6,
                    max_bits=40_000)
    batch_bits = TRIALS_PER_BATCH * cfg.n_subcarriers
    calls = []
    run_block = lfbeam.simulator._run_block

    def spy(*args):
        calls.append(args[2])
        return run_block(*args)

    # the pool pickles ``_run_block`` by name, so the spy, a local
    # function, watches the serial sweep only
    with monkeypatch.context() as m:
        m.setattr(lfbeam.simulator, "_run_block", spy)
        solo = run_sweep(cfg, n_workers=1)
    duo = run_sweep(cfg, n_workers=2)
    want = -(-cfg.max_bits // batch_bits)
    assert want == 3
    assert len(calls) == want  # the serial sweep runs in this process
    assert len(pool_tasks) == want
    assert solo.to_csv_text() == duo.to_csv_text()
    assert all(not p.converged for p in solo.points)


def test_tasks_do_not_carry_the_codebook(pool_tasks):
    """A task carries the curves' configs, not their fixed codebooks,
    so its size does not grow with the codebook."""
    sizes = []
    for bits in (4, 16):
        cfg = SimConfig(n_subcarriers=4, n_taps=1, feedback_bits=bits,
                        fresh_codebook=False, snr_db_points=(0.0,),
                        max_bits=1)
        pool_tasks.clear()
        run_sweep(cfg, n_workers=2)
        sizes.append([len(pickle.dumps(t)) for t in pool_tasks])
    assert sizes[0] == sizes[1]
    assert max(sizes[1]) < 1000


def test_sweep_ber_non_increasing():
    cfg = SimConfig(snr_db_points=(0.0, 4.0, 8.0), target_errors=150,
                    max_bits=300_000)
    curve = run_sweep(cfg)
    bers = [p.ber for p in curve.points]
    assert bers == sorted(bers, reverse=True)


def test_sweep_stops_on_error_target():
    cfg = SimConfig(**FAST)
    point = run_sweep(cfg).points[0]
    assert point.converged
    assert point.bit_errors >= cfg.target_errors
    # one batch granularity: no more than one extra batch of bits
    assert point.bits_sent <= cfg.max_bits + TRIALS_PER_BATCH * 64


# Run in a fresh interpreter: a sweep whose every subcarrier is
# null-skipped, on an all-zero channel.
_ALL_SKIP_SCRIPT = """
import numpy as np
import lfbeam.simulator
from lfbeam.simulator import SimConfig, run_sweeps
draw = lfbeam.simulator._draw_batch

def zero_channel(config, batch):
    bits, h, est_error, noise = draw(config, batch)
    return bits, np.zeros_like(h), est_error, noise

lfbeam.simulator._draw_batch = zero_channel
cfg = SimConfig(snr_db_points=(0.0, 6.0), max_bits=50_000)
for curve in run_sweeps(cfg, [None, 2]):
    for p in curve.points:
        print(curve.label, p.bits_sent, p.bit_errors, p.null_skips,
              p.converged)
"""


def test_sweep_that_skips_every_subcarrier_stops():
    """Null-skipped subcarriers spend their bits toward ``max_bits``, so
    a pair that skips every subcarrier stops at the bit cap, with no
    bits sent, instead of running forever."""
    src = os.path.dirname(os.path.dirname(lfbeam.simulator.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _ALL_SKIP_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    # 4 batches of 256 trials x 64 subcarriers reach the 50,000-bit cap
    skips = 4 * TRIALS_PER_BATCH * 64
    assert run.stdout.splitlines() == [
        f"{label} 0 0 {skips} False"
        for label in ("perfect", "perfect", "rvq-b2", "rvq-b2")
    ]


def test_sweep_flags_unconverged_points():
    cfg = SimConfig(snr_db_points=(20.0,), target_errors=10_000,
                    max_bits=20_000)
    point = run_sweep(cfg).points[0]
    assert not point.converged
    assert point.bits_sent >= 20_000


def test_sweep_labels():
    assert run_sweep(SimConfig(**FAST)).label == "perfect"
    assert run_sweep(SimConfig(feedback_bits=2, **FAST)).label == "rvq-b2"


@pytest.mark.parametrize("snr_db, trial_index", [
    (-4000.0, 3), (float("nan"), 3), (6.0, -1), (6.0, 2.5),
])
def test_trial_effective_gains_checks_its_arguments(snr_db, trial_index):
    """An SNR that a config would refuse, or a trial index that is not a
    count, is refused instead of giving all-NaN gains or a bare error."""
    cfg = SimConfig(csi_mode="estimated", n_subcarriers=8)
    with pytest.raises(ConfigError):
        trial_effective_gains(cfg, snr_db, trial_index)


def test_channels_shared_across_snr_points():
    """Common random numbers: the same trial uses the same channel at
    every SNR point."""
    cfg = SimConfig(**FAST)
    a = trial_effective_gains(cfg, 0.0, 11)
    b = trial_effective_gains(cfg, 14.0, 11)
    assert np.array_equal(a["channel"], b["channel"])
    assert np.array_equal(a["beams"], b["beams"])


# ------------------------------------------------------------- snr_at_ber


def _curve_from(bers, snrs):
    pts = tuple(
        BerPoint(s, 1000, int(b * 1000), b, 0.0, True, 0)
        for s, b in zip(snrs, bers)
    )
    return BerCurve("x", SimConfig(), pts)


def test_snr_at_ber_interpolates_log_linear():
    curve = _curve_from([1e-2, 1e-4], [0.0, 10.0])
    out = snr_at_ber(curve, 1e-3)
    assert abs(out - 5.0) <= 1e-12


def test_snr_at_ber_exact_point():
    curve = _curve_from([1e-2, 1e-3, 1e-4], [0.0, 5.0, 10.0])
    assert snr_at_ber(curve, 1e-3) == 5.0


def test_snr_at_ber_no_crossing():
    curve = _curve_from([1e-2, 1e-3], [0.0, 5.0])
    assert snr_at_ber(curve, 1e-5) is None
    assert snr_at_ber(curve, 0.5) is None


# ------------------------------------------------------------------- config


def test_config_round_trips_through_dict():
    cfg = SimConfig(feedback_bits=4, modulation="qpsk", n_r=2,
                    snr_db_points=(0.0, 3.0), pilot_snr_db=12.0)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_config_perfect_sentinel():
    cfg = SimConfig.from_dict({"feedback_bits": "perfect"})
    assert cfg.feedback_bits is None
    assert SimConfig.from_dict({"feedback_bits": 3}).feedback_bits == 3


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n_t": 2, "bandwidth": 20e6})


@pytest.mark.parametrize("bad", [
    dict(n_t=0),
    dict(modulation="16qam"),
    dict(feedback_bits=21),
    dict(snr_db_points=(4.0, 2.0)),
    dict(snr_db_points=()),
    dict(target_errors=0),
    dict(max_bits=0),
    dict(n_taps=0),
    dict(n_subcarriers=2, n_taps=4),
    dict(csi_mode="genie"),
    dict(csi_mode="estimated", n_pilots=1),
    dict(master_seed=-1),
    dict(fresh_codebook="no"),
    dict(snr_db_points=(0.0, float("nan"))),
    dict(snr_db_points=(0.0, float("inf"))),
    dict(snr_db_points=(float("-inf"), 0.0)),
    dict(n_t=2.7),
    dict(target_errors=True),
    dict(feedback_bits=True),
    # numpy booleans are not read as 0/1, and no number is truncated
    dict(n_t=np.True_),
    dict(feedback_bits=np.True_),
    dict(pilot_snr_db=np.True_),
    dict(snr_db_points=(np.True_, 4.0)),
    dict(n_t=Fraction(5, 2)),
    dict(n_t=Decimal("2.5")),
    dict(n_t=np.float32(2.7)),
    dict(max_bits=float("inf")),
    dict(master_seed=float("nan")),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        SimConfig(**bad)


@pytest.mark.parametrize("bad", [
    {"fresh_codebook": "no"},
    {"snr_db_points": [0.0, float("nan")]},
    {"snr_db_points": [0.0, float("inf")]},
    {"snr_db_points": ["-inf", 0.0]},
    {"n_t": 2.7},
    {"n_t": "2.7"},
    {"target_errors": True},
    {"feedback_bits": True},
    # booleans and strings are not read as SNR values in dB
    {"pilot_snr_db": True},
    {"pilot_snr_db": "12"},
    {"snr_db_points": [False, True]},
    {"snr_db_points": "05"},
    {"snr_db_points": [0, "4"]},
    {"snr_db_points": 4},
    # nor as integers
    {"n_pilots": "4"},
    {"master_seed": "7"},
    {"feedback_bits": "2"},
    # numpy booleans are not read as 0/1, and no number is truncated
    {"n_t": np.True_},
    {"feedback_bits": np.True_},
    {"pilot_snr_db": np.True_},
    {"snr_db_points": [np.True_, 4.0]},
    {"n_t": Fraction(5, 2)},
    {"n_t": Decimal("2.5")},
    {"n_t": np.float32(2.7)},
    {"max_bits": float("inf")},
    {"master_seed": float("nan")},
])
def test_config_from_dict_rejects(bad):
    with pytest.raises(ConfigError):
        SimConfig.from_dict(bad)


@pytest.mark.parametrize("given", [
    {"n_t": 4.0},
    {"feedback_bits": "perfect"},
    {"snr_db_points": [0, 4]},
    {"master_seed": np.int64(3)},
])
def test_config_is_read_alike_by_both_entrances(given):
    """Building a config reads its fields as a config file is read, so
    its ``to_dict`` is plain JSON."""
    cfg = SimConfig(**given)
    assert cfg == SimConfig.from_dict(given)
    assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("bad", [
    # 10**(snr_db/10) underflows to 0: the LS estimate is not finite, so
    # every subcarrier is null-skipped and the point never stops
    {"csi_mode": "estimated", "snr_db_points": [-4000.0]},
    {"csi_mode": "estimated", "pilot_snr_db": -4000.0},
    # positive pilot powers whose LS estimate still overflows: a
    # subnormal one, and a normal one whose Gram products overflow on n_r = 2
    {"csi_mode": "estimated", "pilot_snr_db": -3150.0},
    {"csi_mode": "estimated", "n_r": 2, "pilot_snr_db": -3070.0},
    # 10**(snr_db/10) overflows mid-run
    {"snr_db_points": [0.0, 4000.0]},
    {"pilot_snr_db": 1e308},
])
def test_config_rejects_powers_out_of_range(bad):
    """Every linear power a run computes is checked when the config is
    loaded, so no run hangs or fails mid-sweep on it."""
    with pytest.raises(ConfigError, match="within"):
        SimConfig.from_dict(bad)
    for pilot_snr_db in (None, -1000.0, 1000.0):
        SimConfig.from_dict({"csi_mode": "estimated", "n_t": 4,
                             "pilot_snr_db": pilot_snr_db,
                             "snr_db_points": [-1000.0, 1000.0]})


@given(st.integers(0, 1000), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_trial_streams_are_reproducible(seed, batch):
    """A batch's draws depend only on (master seed, batch index): they
    repeat, its bits are the first draw of ``SeedSequence([seed,
    batch])``, and the neighbouring seed and batch index draw other
    channels."""
    cfg = SimConfig(csi_mode="estimated", n_subcarriers=8, master_seed=seed)
    a = _draw_batch(cfg, batch)
    b = _draw_batch(cfg, batch)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch]))
    bits = rng.integers(0, 2, size=a[0].shape, dtype=np.uint8)
    assert np.array_equal(a[0], bits)
    near = (_draw_batch(replace(cfg, master_seed=seed + 1), batch),
            _draw_batch(cfg, batch + 1))
    assert not any(np.array_equal(a[1], other[1]) for other in near)
