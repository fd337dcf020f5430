"""The dominant right singular direction (the MRT beam) of a stack of
small complex matrices.

One batched routine on complex128 arrays, written for the tiny matrices
of beamforming (a handful of rows and columns), with three routes: the
rank-one closed form for single-row channels, the closed-form top
eigenpair of the 2x2 Gram matrix for two-column channels, and
``np.linalg.eigh`` on the Gram matrix otherwise.  All three are exact up
to rounding and have no convergence criterion.
"""

from __future__ import annotations

import numpy as np


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a 2-D ``x``, bit for bit: one or two columns
    are added directly, without the reduction's cost per row."""
    if x.shape[1] > 2:
        return x.sum(axis=1)
    # numpy's sum starts from +0.0, so -0.0 sums read +0.0
    s = x[:, 0] + 0.0
    if x.shape[1] == 2:
        s += x[:, 1]
    return s


def _phase_fix_rows(v: np.ndarray) -> np.ndarray:
    """Rotate each row of ``v`` in place so its first nonzero entry is
    real and >= 0, and return it."""
    lead = v[:, -1]
    for j in range(v.shape[1] - 2, -1, -1):
        lead = np.where(v[:, j] != 0.0, v[:, j], lead)
    lead_mag = np.abs(lead)
    ok = lead_mag > 0.0
    v *= np.where(ok, np.conj(lead) / np.where(ok, lead_mag, 1.0), 1.0)[:, None]
    return v


def dominant_right_eigvec_batch(
    mats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant right singular directions of a stack of matrices.

    ``mats`` has shape (n, r, c).  There are three routes:

    - a single row (``r == 1``) has the closed form ``conj(a) / ||a||``
      and ``lam = ||a||^2``, and an all-zero row gets the first unit
      vector;
    - two columns (``c == 2``) take the top eigenpair of the 2x2 Gram
      matrix in closed form: with ``half = (g11 - g22)/2`` and
      ``root = sqrt(half^2 + |g12|^2)``, ``lam = (g11 + g22)/2 + root``
      and ``v`` is ``(root + half, conj g12)`` if ``g11 >= g22``, else
      ``(g12, root - half)``, so neither subtracts nearly equal numbers;
      its squared norm is ``2 root (root + |half|)``, and a zero ``v``
      (no unique direction) becomes the first unit vector;
    - otherwise ``(lam, v)`` is the top eigenpair of the Gram matrix
      ``a^H a`` from ``np.linalg.eigh``.

    Returns ``(v, lam)`` of shapes (n, c) and (n,): ``||v|| = 1`` with
    the first nonzero entry of each ``v`` real and nonnegative, and
    ``lam`` the largest eigenvalue of ``a^H a``.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.shape[1] == 1:
        v = mats[:, 0, :].conj()
        # np.linalg.norm's arithmetic
        lam = _sum_rows((v.conj() * v).real)
        norms = np.sqrt(lam)
        zero = norms == 0.0
        v /= np.where(zero, 1.0, norms)[:, None]
        if zero.any():
            v[zero] = 0.0
            v[zero, 0] = 1.0
    elif mats.shape[2] == 2:
        a1, a2 = mats[:, :, 0], mats[:, :, 1]
        g11 = _sum_rows(a1.real**2 + a1.imag**2)
        g22 = _sum_rows(a2.real**2 + a2.imag**2)
        g12 = _sum_rows(a1.conj() * a2)
        half = 0.5 * (g11 - g22)
        root = np.hypot(half, np.abs(g12))
        top = half >= 0.0
        v = np.empty((mats.shape[0], 2), dtype=np.complex128)
        v[:, 0] = np.where(top, root + half, g12)
        v[:, 1] = np.where(top, g12.conj(), root - half)
        norms = np.sqrt(2.0 * root * (root + np.abs(half)))
        zero = norms == 0.0
        v /= np.where(zero, 1.0, norms)[:, None]
        if zero.any():
            v[zero] = (1.0, 0.0)
        lam = 0.5 * (g11 + g22) + root
    else:
        gram = np.einsum("nij,nik->njk", mats.conj(), mats)
        w, vecs = np.linalg.eigh(gram)
        v, lam = vecs[:, :, -1], w[:, -1]
    return _phase_fix_rows(v), lam
