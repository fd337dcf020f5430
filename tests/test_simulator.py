import multiprocessing.pool
import pickle
import tracemalloc
from dataclasses import replace

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
    _draw_block,
    _fixed_codebook,
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
    _, h, _, noise = _draw_block(cfg, 0, TRIALS_PER_BATCH)
    _, links = _receiver_links([cfg], [0], 0.0, h, None, noise, 0, [None])
    z = links[0][2]
    assert abs((np.abs(z) ** 2).mean() - 1.0) <= 0.02
    assert abs(z.real.var() - 0.5) <= 0.01
    assert abs((z.real * z.imag).mean()) <= 0.01


# ------------------------------------------------------- one-trial blocks


def one_trial(config, snr_db, trial_index):
    """(bits sent, bit errors, null skips) of one trial at one SNR
    point: a block of one trial."""
    block = _run_block(
        [replace(config, snr_db_points=(snr_db,))], np.ones((1, 1), bool),
        trial_index, 1, [_fixed_codebook(config)],
    )
    return tuple(block[0, 0].tolist())


def test_trial_is_deterministic():
    cfg = SimConfig(**FAST)
    assert one_trial(cfg, 6.0, 17) == one_trial(cfg, 6.0, 17)


def test_trial_counts_are_consistent():
    cfg = SimConfig(**FAST)
    bits_sent, bit_errors, null_skips = one_trial(cfg, 0.0, 2)
    assert bits_sent == cfg.n_subcarriers * cfg.bits_per_symbol
    assert 0 <= bit_errors <= bits_sent
    assert null_skips == 0


def test_blocks_partition_invariant(monkeypatch):
    """Any split of a trial range gives identical totals for every
    (curve, SNR) pair, and identical codeword scores even for a fixed
    512-word codebook on 48 subcarriers, where scores once depended on
    the block size; also for pieces that straddle a batch boundary."""
    scores = []
    best = lfbeam.simulator._best_codewords

    def spy(*args):
        idx, gain, beam = best(*args)
        scores.append(gain)
        return idx, gain, beam

    monkeypatch.setattr(lfbeam.simulator, "_best_codewords", spy)
    cfg = SimConfig(**dict(FAST, n_subcarriers=48))
    configs = [cfg, replace(cfg, feedback_bits=9, fresh_codebook=False)]
    cbs = [None, _fixed_codebook(configs[1])]
    active = np.ones((2, len(cfg.snr_db_points)), dtype=bool)
    for whole, pieces in (
        ([(0, 256)], [(0, 5), (5, 123), (128, 128)]),
        ([(0, 256), (256, 256)], [(0, 5), (5, 123), (128, 200), (328, 184)]),
    ):
        runs = []
        for blocks in (whole, pieces):
            scores.clear()
            total = sum(
                _run_block(configs, active, start, count, cbs)
                for start, count in blocks
            )
            runs.append((total, np.concatenate(scores, axis=-2)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


def test_block_of_one_scores_only_active_pairs():
    cfg = SimConfig(feedback_bits=2, **FAST)
    active = np.array([[False, True]])  # only the 6 dB point
    for idx in (0, 9):
        block = _run_block([cfg], active, idx, 1, [None])
        assert tuple(block[0, 1]) == one_trial(cfg, 6.0, idx)
        assert not block[0, 0].any()


def test_noiseless_trials_have_zero_errors():
    for kw in (dict(), dict(feedback_bits=3), dict(modulation="qpsk", n_r=2)):
        cfg = SimConfig(**FAST, **kw)
        for idx in range(6):
            assert one_trial(cfg, 300.0, idx)[1] == 0


def _replay_batch(cfg, batch):
    """The documented draws of one batch: bits, taps, pilot noise and
    data noise, 256 rows each, from one stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch])
    )
    t, n = TRIALS_PER_BATCH, cfg.n_subcarriers
    bits = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    taps = _complex_normal(
        rng, (t, cfg.n_taps, cfg.n_r, cfg.n_t), np.sqrt(0.5 / cfg.n_taps)
    )
    pilot = _complex_normal(rng, (t, n, cfg.n_r, cfg.n_pilots), np.sqrt(0.5))
    noise = _complex_normal(rng, (t, n, cfg.n_r), np.sqrt(0.5))
    h = np.fft.fft(taps, n=n, axis=1)
    return bits, h, pilot, noise


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


def _are_codewords(beams, words):
    """Whether every beam (n, n_t) is one of the codewords (k, n_t)."""
    return all((words == beam).all(axis=1).any() for beam in beams)


def test_draw_order_is_documented_order():
    """Replaying (bits, taps, pilot noise, data noise) from the batch
    stream reproduces the draws the simulator used: for a whole batch,
    for one trial in mid-batch and for a block that straddles a batch
    boundary.  The fresh codebooks come from each batch's codebook
    stream: trials 500-529 get their batch's codeword-major draw, scaled
    to unit length, and the beams of trial 277 and of trials 500-529 are
    codewords of it."""
    cfg = SimConfig(feedback_bits=3, csi_mode="estimated", master_seed=7,
                    **FAST)
    replay = [
        np.concatenate(arrays)
        for arrays in zip(_replay_batch(cfg, 1), _replay_batch(cfg, 2))
    ]
    for start, count in ((256, 256), (256 + 21, 1), (500, 30)):
        rows = slice(start - 256, start - 256 + count)
        for drawn, want in zip(_draw_block(cfg, start, count), replay):
            assert np.array_equal(drawn, want[rows])
    books = np.concatenate(
        [_replay_codebooks(cfg, b, cfg.feedback_bits) for b in (1, 2)], axis=1
    )
    drawn = lfbeam.simulator._fresh_draws(cfg, 500, 30, cfg.feedback_bits)
    assert np.array_equal(
        np.concatenate(list(drawn), axis=1), books[:, 244:274].swapaxes(0, 1)
    )
    d = trial_effective_gains(cfg, 6.0, 256 + 21)
    assert np.array_equal(d["channel"], replay[1][21])
    assert _are_codewords(d["beams"], books[:, 21])
    _, h, pilot, noise = _draw_block(cfg, 500, 30)
    _, links = _receiver_links([cfg], [0], 6.0, h, pilot, noise, 500, [None])
    for r, beams in enumerate(links[0][0]):
        assert _are_codewords(beams, books[:, 500 - 256 + r])


def test_every_curve_sees_the_same_noise():
    """Fresh codebooks come from streams of their own, so they leave a
    trial's noise as on the perfect-CSI curve."""
    perfect = _draw_block(SimConfig(**FAST), 5, 1)
    fresh = _draw_block(SimConfig(feedback_bits=4, **FAST), 5, 1)
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


def test_fixed_codebook_mode_shares_one_codebook():
    cfg = SimConfig(feedback_bits=3, fresh_codebook=False, **FAST)
    assert one_trial(cfg, 6.0, 0) == one_trial(cfg, 6.0, 0)
    fresh = SimConfig(feedback_bits=3, fresh_codebook=True, **FAST)
    diffs = sum(
        one_trial(cfg, 6.0, i) != one_trial(fresh, 6.0, i) for i in range(40)
    )
    assert diffs > 0  # the two modes really simulate different links


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
    (dict(), [None, 1, 8], [
        [(16384, 903, 0), (49152, 898, 0)],
        [(16384, 1545, 0), (16384, 602, 0)],
        [(16384, 910, 0), (49152, 797, 0)],
    ]),
    (dict(csi_mode="estimated", fresh_codebook=False, snr_db_points=(0.0, 8.0)),
     [None, 6], [
        [(16384, 1843, 0), (81920, 678, 0)],
        [(16384, 1802, 0), (81920, 657, 0)],
    ]),
], ids=["miso", "estimated-fixed-b6"])
def test_link_counts_are_pinned(link, curves, pinned):
    """Short 2x1 BPSK sweeps, with fresh codebooks under perfect CSI and
    with one fixed B=6 codebook under estimated CSI, give the counts
    they gave when detection scaled each pair's beams and sent them
    through the channel, before it read the per-curve effective gains."""
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
    _, h, _, _ = _draw_block(cfg, 256 + 40, 8)
    beams = lfbeam.simulator._beam_directions(
        configs, [0, 1, 2], h, 256 + 40, [None] * 3
    )
    books = _replay_codebooks(cfg, 1, 8)
    for c, bits in enumerate(curves):
        for r in range(8):
            prefix = books[: 1 << bits, 40 + r]
            assert _are_codewords(beams[c][r], prefix)
    assert (beams[0] == books[0, 40:48, None]).all()  # B=0: codeword 0


def test_codeword_chunks_do_not_change_results(monkeypatch):
    """A fresh B=8 block drawn and scanned in 4-codeword chunks, on
    blocks within and across batches, picks the same beams and gives the
    same totals as one 256-codeword chunk."""
    cfg = SimConfig(feedback_bits=8, **FAST)
    active = np.ones((1, len(cfg.snr_db_points)), dtype=bool)

    def run(start, count):
        _, h, _, _ = _draw_block(cfg, start, count)
        beams = lfbeam.simulator._beam_directions(
            [cfg], [0], h, start, [None]
        )
        return beams[0], _run_block([cfg], active, start, count, [None])

    blocks = ((0, 256), (200, 100))
    whole = [run(*block) for block in blocks]
    assert len(list(lfbeam.simulator._fresh_draws(cfg, 0, 1, 8))) == 1
    for module in (lfbeam.codebook, lfbeam.simulator):
        monkeypatch.setattr(module, "_GAIN_BUDGET", 1 << 14)
    assert len(list(lfbeam.simulator._fresh_draws(cfg, 0, 1, 8))) == 64
    for (beams, totals), block in zip(whole, blocks):
        beams_c, totals_c = run(*block)
        assert np.array_equal(beams_c, beams)
        assert np.array_equal(totals_c, totals)


def test_fresh_curve_does_not_depend_on_the_largest_curve():
    """Codeword j of a trial depends neither on B_max nor on the chunk
    width: next to a B=10 curve, whose 1,024 codewords are drawn in
    several chunks, the B=1 curve equals the B=1 curve swept alone."""
    cfg = SimConfig(**FAST)
    assert len(list(lfbeam.simulator._fresh_draws(cfg, 0, 1, 10))) > 1
    joint = run_sweeps(cfg, [1, 10])
    alone = run_sweep(replace(cfg, feedback_bits=1))
    assert joint[0].to_csv_text() == alone.to_csv_text()


def test_fresh_codebook_memory_is_bounded():
    """One fresh B=14 block on 8 subcarriers peaks below 32 MB, a
    quarter of the 128 MB that the batch's 16,384 codewords of 256
    trials take when drawn at once; the codeword chunks keep it near the
    gain budget (8 MB) plus the chunk's draws and features."""
    cfg = SimConfig(n_subcarriers=8, feedback_bits=14, snr_db_points=(6.0,))
    whole = (1 << 14) * TRIALS_PER_BATCH * cfg.n_t * 16
    assert whole == 128 << 20
    tracemalloc.start()
    try:
        totals = _run_block([cfg], np.ones((1, 1), bool), 0, 256, [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals[0, 0, 0] == 256 * cfg.n_subcarriers
    assert peak < whole // 4


def test_duplicate_curves_rejected():
    with pytest.raises(ConfigError):
        run_sweeps(SimConfig(**FAST), [2, None, 2])
    with pytest.raises(ConfigError):
        run_sweeps(SimConfig(**FAST), [None, None])


@pytest.fixture
def pool_tasks(monkeypatch):
    """The tasks every worker pool is sent, one ``_run_block`` call each."""
    sent = []
    starmap = multiprocessing.pool.Pool.starmap

    def spy(self, fn, tasks, *args, **kwargs):
        sent.extend(tasks)
        return starmap(self, fn, tasks, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "starmap", spy)
    return sent


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

    monkeypatch.setattr(lfbeam.simulator, "_run_block", spy)
    solo = run_sweep(cfg, n_workers=1)
    duo = run_sweep(cfg, n_workers=2)
    want = -(-cfg.max_bits // batch_bits)
    assert want == 3
    assert len(calls) == want  # the serial sweep runs in this process
    assert len(pool_tasks) == want
    assert solo.to_csv_text() == duo.to_csv_text()
    assert all(not p.converged for p in solo.points)


def test_tasks_do_not_carry_the_codebook(pool_tasks):
    """Fixed codebooks reach the workers once, through the pool
    initializer, so a task's size does not grow with the codebook."""
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


def test_sweep_flags_unconverged_points():
    cfg = SimConfig(snr_db_points=(20.0,), target_errors=10_000,
                    max_bits=20_000)
    point = run_sweep(cfg).points[0]
    assert not point.converged
    assert point.bits_sent >= 20_000


def test_sweep_labels():
    assert run_sweep(SimConfig(**FAST)).label == "perfect"
    assert run_sweep(SimConfig(feedback_bits=2, **FAST)).label == "rvq-b2"


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
])
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        SimConfig(**bad).validate()


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
])
def test_config_from_dict_rejects(bad):
    with pytest.raises(ConfigError):
        SimConfig.from_dict(bad)


@given(st.integers(0, 1000), st.integers(0, 600))
@settings(max_examples=20, deadline=None)
def test_trial_streams_are_reproducible(seed, idx):
    """A trial's draws depend only on (master seed, trial index)."""
    cfg = SimConfig(csi_mode="estimated", n_subcarriers=8, master_seed=seed)
    a = _draw_block(cfg, idx, 1)
    b = _draw_block(cfg, idx, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
