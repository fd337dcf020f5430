"""Transmit power constraint and zero-forcing precoders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SingularMatrixError, mat_inverse

__all__ = [
    "SingularStackError",
    "PrecoderSet",
    "apply_power_constraint",
    "zfbf_precoders",
    "zfbf_sinr",
]


class SingularStackError(ValueError):
    """Stacked user directions are linearly dependent (or nearly so)."""


@dataclass(frozen=True)
class PrecoderSet:
    """Per-user zero-forcing beams; ``vectors[j]`` is user j's column."""

    vectors: np.ndarray
    source_directions: np.ndarray


def apply_power_constraint(beams: np.ndarray, total_power: float) -> np.ndarray:
    """Rescale per-subcarrier beams to split a power budget uniformly.

    ``beams`` is (n, dim) with nonzero rows.  Each row is scaled to
    ``||b_k||^2 = total_power / n``, so the rows keep their directions
    and the budget is met with equality.
    """
    beams = np.asarray(beams, dtype=np.complex128)
    if total_power <= 0.0:
        raise ValueError(f"total_power must be positive, got {total_power}")
    norms = np.linalg.norm(beams, axis=1)
    if (norms == 0.0).any():
        raise ValueError("beams must have nonzero norm")
    scale = np.sqrt(total_power / beams.shape[0]) / norms
    return beams * scale[:, None]


def zfbf_precoders(directions: np.ndarray) -> PrecoderSet:
    """Zero-forcing beams from stacked unit user directions.

    ``directions`` is (n_users, dim) with row ``i`` the fed-back unit
    direction of user ``i`` and ``n_users == dim``.  Stacking the
    conjugated directions as rows and inverting, the normalized j-th
    column of the inverse is user j's beam: it is orthogonal to every
    other user's direction, so users hear no intended-signal crosstalk
    through their quantized directions.
    """
    d = np.asarray(directions, dtype=np.complex128)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(
            f"need a square stack of directions, got shape {d.shape}"
        )
    try:
        inv = mat_inverse(np.conj(d))
    except SingularMatrixError as e:
        raise SingularStackError(f"user directions are dependent: {e}") from e
    cols = inv / np.linalg.norm(inv, axis=0, keepdims=True)
    return PrecoderSet(cols.T.copy(), d.copy())


def zfbf_sinr(
    h: np.ndarray,
    precoders: PrecoderSet,
    user: int,
    total_power: float,
) -> float:
    """Post-precoding SINR of one user under uniform power split.

    With ``n_users`` beams sharing ``total_power`` equally and unit
    noise power, user ``i`` with true channel ``h`` sees

        SINR = (P/M) |h^H v_i|^2 / (1 + sum_{j != i} (P/M) |h^H v_j|^2).

    Residual interference is zero only when the fed-back direction of
    user ``i`` matches the true channel direction exactly.
    """
    v = precoders.vectors
    m = v.shape[0]
    if not 0 <= user < m:
        raise ValueError(f"user index {user} out of range for {m} users")
    if total_power <= 0.0:
        raise ValueError(f"total_power must be positive, got {total_power}")
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    p = np.abs(v @ h.conj()) ** 2  # |h^H v_j|^2 for every beam j
    share = total_power / m
    signal = share * p[user]
    interference = share * (p.sum() - p[user])
    return float(signal / (1.0 + interference))
