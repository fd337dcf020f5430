import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbeam.channel import (
    InvalidLengthError,
    ShapeMismatchError,
    TrainingSequence,
    gen_rayleigh_flat,
    gen_selective_taps,
    ls_estimate,
    make_phase_shift_training,
    to_subcarriers,
)
from oracles import circular_convolve_mimo


# ------------------------------------------------------------- flat fading


def test_flat_same_seed_same_channel():
    a = gen_rayleigh_flat(2, 3, np.random.default_rng(42))
    b = gen_rayleigh_flat(2, 3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_flat_entry_statistics():
    """10^5 draws of a 2x1 channel: unit entry variance, CN fourth moment."""
    rng = np.random.default_rng(1234)
    h = np.stack([gen_rayleigh_flat(2, 1, rng) for _ in range(100_000)])
    power = np.abs(h) ** 2
    var = power.mean()
    assert 0.98 <= var <= 1.02, var
    # E|h|^4 / (E|h|^2)^2 is exactly 2 for a circular complex Gaussian
    kurt = (power**2).mean() / var**2
    assert abs(kurt - 2.0) <= 0.05 * 2.0, kurt
    assert abs(h.mean()) <= 0.01


def test_flat_real_imag_balance():
    rng = np.random.default_rng(5)
    h = gen_rayleigh_flat(200, 200, rng)
    assert abs(h.real.var() - 0.5) <= 0.02
    assert abs(h.imag.var() - 0.5) <= 0.02


# ---------------------------------------------------------- selective taps


def test_single_tap_reduces_to_flat_statistics():
    taps = gen_selective_taps(2, 2, 1, np.random.default_rng(3))
    assert taps.shape == (1, 2, 2)
    flat = gen_rayleigh_flat(2, 2, np.random.default_rng(3))
    assert np.array_equal(taps[0], flat)


def test_tap_power_sums_to_one():
    rng = np.random.default_rng(99)
    total = np.empty(100_000)
    for i in range(total.shape[0]):
        t = gen_selective_taps(1, 1, 4, rng)
        total[i] = (np.abs(t) ** 2).sum()
    mean = total.mean()
    assert 0.95 <= mean <= 1.05, mean


def test_taps_same_seed_identical():
    a = gen_selective_taps(2, 2, 4, np.random.default_rng(7))
    b = gen_selective_taps(2, 2, 4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_taps_validation():
    with pytest.raises(InvalidLengthError):
        gen_selective_taps(1, 1, 0, np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError):
        to_subcarriers(np.ones((2, 2), dtype=complex), 4)


# ----------------------------------------------------------- to_subcarriers


def test_single_tap_gives_flat_subcarriers():
    taps = gen_selective_taps(2, 2, 1, np.random.default_rng(8))
    h = to_subcarriers(taps, 16)
    assert h.shape == (16, 2, 2)
    for k in range(16):
        assert np.allclose(h[k], taps[0], atol=1e-12)


def test_two_equal_taps_null_mid_band():
    """Taps [g, g] cancel at the half-rate subcarrier for even N."""
    g = np.array([[1.0 + 2.0j]])
    h = to_subcarriers(np.stack([g, g]), 8)
    assert abs(h[4, 0, 0]) <= 1e-12
    assert abs(h[0, 0, 0] - 2.0 * g[0, 0]) <= 1e-12


def test_subcarrier_view_matches_circular_convolution():
    """Per-subcarrier multiplication == time-domain circular convolution.

    Send one frequency-domain symbol vector per transmit antenna, IDFT
    to time domain, circularly convolve with the taps, DFT back: that
    must equal H_k @ s_k on every subcarrier.
    """
    rng = np.random.default_rng(21)
    n = 16
    taps = gen_selective_taps(2, 2, 4, rng)
    h = to_subcarriers(taps, n)
    s_freq = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x_time = np.fft.ifft(s_freq, axis=1)
    y_time = circular_convolve_mimo(x_time, taps)
    y_freq = np.fft.fft(y_time, axis=1)
    for k in range(n):
        direct = h[k] @ s_freq[:, k]
        assert np.allclose(direct, y_freq[:, k], atol=1e-10)


def test_subcarrier_parseval():
    taps = gen_selective_taps(3, 2, 4, np.random.default_rng(13))
    lhs = (np.abs(to_subcarriers(taps, 64)) ** 2).sum()
    rhs = 64.0 * (np.abs(taps) ** 2).sum()
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_subcarrier_count_must_cover_taps():
    taps = gen_selective_taps(1, 1, 8, np.random.default_rng(0))
    with pytest.raises(InvalidLengthError):
        to_subcarriers(taps, 4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_subcarrier_map_is_linear(seed):
    rng = np.random.default_rng(seed)
    t1 = gen_selective_taps(1, 2, 3, rng)
    t2 = gen_selective_taps(1, 2, 3, rng)
    c = complex(rng.standard_normal(), rng.standard_normal())
    lhs = to_subcarriers(t1 + c * t2, 8)
    rhs = to_subcarriers(t1, 8) + c * to_subcarriers(t2, 8)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_stacked_taps_match_one_call_per_trial():
    """A (T, L, n_r, n_t) stack, as the simulator draws it, gives each
    trial exactly the subcarriers of its own call."""
    rng = np.random.default_rng(17)
    taps = np.stack([gen_selective_taps(2, 3, 4, rng) for _ in range(5)])
    h = to_subcarriers(taps, 16)
    assert h.shape == (5, 16, 2, 3)
    for t in range(5):
        assert np.array_equal(h[t], to_subcarriers(taps[t], 16))


# ----------------------------------------------------------------- training


def test_training_single_antenna():
    s = make_phase_shift_training(1, 2)
    assert np.allclose(s.symbols, [[1.0, 1.0]], atol=1e-15)


def test_training_two_antennas_two_pilots():
    s = make_phase_shift_training(2, 2)
    assert np.allclose(s.symbols[0], [1.0, 1.0], atol=1e-12)
    assert np.allclose(s.symbols[1], [1.0, -1.0], atol=1e-12)


def test_training_rows_orthogonal_unit_modulus():
    s = make_phase_shift_training(2, 8)
    gram = s.symbols @ s.symbols.conj().T
    assert np.allclose(gram, 8.0 * np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(s.symbols), 1.0, atol=1e-12)


def test_training_too_short_raises():
    with pytest.raises(InvalidLengthError):
        make_phase_shift_training(4, 3)


# -------------------------------------------------------------- ls_estimate


def test_ls_noiseless_recovery(rng):
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    s = make_phase_shift_training(3, 4)
    est = ls_estimate(h @ s.symbols, s)
    assert np.allclose(est, h, atol=1e-10)


def test_ls_error_variance_matches_theory():
    """Estimation MSE per entry is noise_var / n_pilots."""
    rng = np.random.default_rng(77)
    n_p = 4
    s = make_phase_shift_training(2, n_p)
    noise_var = 0.5
    trials = 10_000
    err = np.empty((trials, 1, 2), dtype=complex)
    for i in range(trials):
        h = (rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))) / np.sqrt(2)
        w = (rng.standard_normal((1, n_p)) + 1j * rng.standard_normal((1, n_p))) * np.sqrt(noise_var / 2)
        err[i] = ls_estimate(h @ s.symbols + w, s) - h
    mse = (np.abs(err) ** 2).mean()
    expected = noise_var / n_p
    assert abs(mse - expected) <= 0.10 * expected, (mse, expected)


def test_ls_global_phase_of_training_cancels():
    rng = np.random.default_rng(31)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = make_phase_shift_training(2, 4)
    rotated = TrainingSequence(np.exp(0.7j) * s.symbols)
    est = ls_estimate(h @ rotated.symbols, rotated)
    assert np.allclose(est, h, atol=1e-10)


def test_ls_batched_leading_axes(rng):
    h = rng.standard_normal((5, 3, 2, 2)) + 1j * rng.standard_normal((5, 3, 2, 2))
    s = make_phase_shift_training(2, 4)
    est = ls_estimate(h @ s.symbols, s)
    assert est.shape == (5, 3, 2, 2)
    assert np.allclose(est, h, atol=1e-10)


def test_ls_shape_mismatch_raises():
    s = make_phase_shift_training(2, 4)
    with pytest.raises(ShapeMismatchError):
        ls_estimate(np.ones((2, 3), dtype=complex), s)
