"""Rayleigh MIMO channels, OFDM subcarrier views, and LS estimation.

Channels are i.i.d. circularly-symmetric complex Gaussian.  A
frequency-selective channel is a set of time-domain taps whose total
average power is normalized to one per receive/transmit antenna pair,
so each subcarrier of the DFT view is marginally CN(0, 1) per entry.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "InvalidLengthError",
    "gen_rayleigh_flat",
    "gen_selective_taps",
    "to_subcarriers",
    "make_phase_shift_training",
    "ls_estimate",
]


class ShapeMismatchError(ValueError):
    """Array arguments have incompatible shapes."""


class InvalidLengthError(ValueError):
    """A requested sequence length is out of range."""


def _complex_normal(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """CN(0, 2*scale^2) samples; real block drawn before imaginary."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * scale


def gen_rayleigh_flat(n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_r, n_t) matrix with i.i.d. CN(0, 1) entries."""
    return _complex_normal(rng, (n_r, n_t), np.sqrt(0.5))


def gen_selective_taps(
    n_r: int, n_t: int, n_taps: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_taps`` i.i.d. taps with uniform power profile, as an
    (n_taps, n_r, n_t) array.

    Each tap entry is CN(0, 1/n_taps), so the summed tap power per
    antenna pair averages to one and every DFT bin of the subcarrier
    view is marginally CN(0, 1).
    """
    if n_taps < 1:
        raise InvalidLengthError(f"n_taps must be >= 1, got {n_taps}")
    return _complex_normal(rng, (n_taps, n_r, n_t), np.sqrt(0.5 / n_taps))


def to_subcarriers(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """DFT taps (..., n_taps, n_r, n_t) into per-subcarrier channel
    matrices (..., n_subcarriers, n_r, n_t); leading axes are trials.

    Subcarrier ``k`` gets ``sum_l taps[l] * exp(-2j*pi*k*l/N)``, the
    frequency response a cyclic-prefix OFDM system sees on that bin.
    Requires ``n_subcarriers >= n_taps`` so the cyclic prefix assumption
    makes sense.
    """
    taps = np.asarray(taps)
    if taps.ndim < 3:
        raise ShapeMismatchError(f"taps must be (..., n_taps, n_r, n_t), "
                                 f"got shape {taps.shape}")
    if n_subcarriers < taps.shape[-3]:
        raise InvalidLengthError(
            f"n_subcarriers={n_subcarriers} is less than "
            f"n_taps={taps.shape[-3]}"
        )
    return np.fft.fft(taps, n=n_subcarriers, axis=-3)


def make_phase_shift_training(n_t: int, n_pilots: int) -> np.ndarray:
    """Known pilot symbols, an (n_t, n_pilots) array with one row per
    transmit antenna, unit-modulus entries and orthogonal rows:
    ``s @ s.conj().T`` equals ``n_pilots * I``.

    Antenna ``r`` transmits ``exp(2j*pi*r*c/n_pilots)`` at pilot slot
    ``c``.  Distinct rows are orthogonal whenever ``n_pilots >= n_t``,
    which is required.
    """
    if n_pilots < n_t:
        raise InvalidLengthError(
            f"n_pilots={n_pilots} must be at least n_t={n_t}"
        )
    r = np.arange(n_t)[:, None]
    c = np.arange(n_pilots)[None, :]
    return np.exp(2j * np.pi * r * c / n_pilots)


def ls_estimate(received: np.ndarray, training: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from known training.

    With ``received = H @ S + noise`` and orthogonal unit-modulus
    training ``S``, the (n_t, n_pilots) array that
    :func:`make_phase_shift_training` returns, the LS estimate is
    ``received @ S^H / n_pilots``.  For pilots at amplitude ``sqrt(rho_p)``
    in unit i.i.d. noise, scaled back by it, the error entries are i.i.d.
    CN(0, 1/(n_pilots * rho_p)) as ``S S^H = n_pilots * I``.
    ``received`` has shape (..., n_r, n_pilots); leading batch axes are
    allowed and are flattened into the rows of one 2-D GEMM, so a stack
    of trials and subcarriers costs one BLAS call, not one per matrix.
    Returns (..., n_r, n_t).
    """
    y = np.asarray(received, dtype=np.complex128)
    s = np.asarray(training)
    if s.ndim != 2 or y.ndim < 2 or y.shape[-1] != s.shape[1]:
        raise ShapeMismatchError(f"received shape {y.shape} does not "
                                 f"match (n_t, n_pilots) training {s.shape}")
    n_t, n_pilots = s.shape
    w = s.conj().T / n_pilots
    return (y.reshape(-1, n_pilots) @ w).reshape(y.shape[:-1] + (n_t,))
