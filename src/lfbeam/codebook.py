"""Random vector quantization codebooks for beamforming feedback.

A codebook is 2**bits unit vectors drawn isotropically on the complex
unit sphere from a seeded generator.  Transmitter and receiver both
regenerate the codebook from (seed, bits, dim), or exchange it through
the binary file format below, so only the selected index needs feedback.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numerics import dominant_right_eigvec_batch

__all__ = [
    "CodebookTooLargeError",
    "ZeroChannelError",
    "Codebook",
    "QuantizationResult",
    "gen_rvq",
    "quantize_direction",
    "select_beamformer",
    "save_codebook",
    "load_codebook",
]

MAX_BITS = 20

_HEADER = struct.Struct("<III")  # dim, bits, seed

# Element budget for one chunk of the (trials, subcarriers, receive
# antennas, codewords) amplitude tensor: 2**19 complex128 values, 8 MB.
# The simulator stacks whole trials up to it, so a trial that fits is
# scored in one chunk, the same in a block of any size.
_GAIN_BUDGET = 1 << 19


class CodebookTooLargeError(ValueError):
    """Requested more feedback bits than supported."""


class ZeroChannelError(ValueError):
    """The channel vector is exactly zero; no direction to quantize."""


@dataclass(frozen=True)
class Codebook:
    """An indexed set of unit-norm beamforming vectors.

    ``vectors`` has shape (2**bits, dim).  Regenerating with the same
    (seed, bits, dim) reproduces the vectors bit for bit.
    """

    vectors: np.ndarray
    bits: int
    dim: int
    seed: int

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class QuantizationResult:
    index: int
    distortion: float
    metric: float


def gen_rvq(dim: int, bits: int, seed: int) -> Codebook:
    """Generate a random vector quantization codebook.

    Draws 2**bits i.i.d. CN(0, I_dim) vectors from
    ``default_rng(seed)`` and normalizes each to unit length, which is
    the uniform distribution on the complex unit sphere.

    Real/imaginary parts are drawn interleaved per vector entry, so for
    a fixed seed the first 2**b vectors of a larger codebook equal the
    full codebook generated with ``bits=b``: codebooks of growing size
    are nested, and quantization quality is monotone in ``bits`` on any
    fixed channel.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if bits > MAX_BITS:
        raise CodebookTooLargeError(
            f"bits={bits} exceeds the maximum of {MAX_BITS}"
        )
    rng = np.random.default_rng(int(seed))
    size = 1 << bits
    z = rng.standard_normal((size, dim, 2))
    g = z[..., 0] + 1j * z[..., 1]
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return Codebook(g / norms, bits, dim, int(seed))


def quantize_direction(h: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Pick the codeword best aligned with the channel direction.

    Maximizes ``|h^H w|^2`` over the codebook, the same as minimizing
    the squared sine of the angle between ``h`` and ``w``; phase and
    scale of ``h`` are irrelevant.  Ties resolve to the lowest index.

    Returns the winning index, the alignment ``metric = |h^H w|^2``,
    and ``distortion = 1 - metric / ||h||^2`` (the squared sine, i.e.
    the fraction of beamforming gain lost to quantization).
    """
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    if h.shape[0] != codebook.dim:
        raise ValueError(
            f"channel has dim {h.shape[0]}, codebook has dim {codebook.dim}"
        )
    power = float(np.dot(h.conj(), h).real)
    if power == 0.0:
        raise ZeroChannelError("cannot quantize an all-zero channel")
    # |h^H w|^2 is ||H w||^2 for the one-row channel H = h^H
    index, gain = _best_codewords(h.conj()[None, None, None], codebook.vectors)
    metric = float(gain[0, 0])
    distortion = min(max(1.0 - metric / power, 0.0), 1.0)
    return QuantizationResult(int(index[0, 0]), distortion, metric)


def select_beamformer(
    h: np.ndarray, codebook: Codebook, rho: float
) -> QuantizationResult:
    """Pick the codeword maximizing beamformed rate on a MIMO channel.

    Maximizes ``log2(1 + rho * ||H w||^2)`` over the codebook, which
    for any ``rho > 0`` is the same ordering as ``||H w||^2``; ties
    resolve to the lowest index.  ``metric`` is the winning
    ``||H w||^2`` and ``distortion = 1 - metric / lam_max`` where
    ``lam_max`` is the largest eigenvalue of ``H^H H`` (the gain of the
    unquantized optimal direction).
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[1] != codebook.dim:
        raise ValueError(
            f"channel has {h.shape[1]} columns, codebook has dim {codebook.dim}"
        )
    index, gain = _best_codewords(h[None, None], codebook.vectors)
    metric = float(gain[0, 0])
    _, lam = dominant_right_eigvec_batch(h[None])
    top = float(lam[0])
    if top <= 0.0:
        distortion = 0.0
    else:
        distortion = min(max(1.0 - metric / top, 0.0), 1.0)
    return QuantizationResult(int(index[0, 0]), distortion, metric)


def _best_codewords(
    h: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best codeword per channel matrix: argmax over w of ``||H w||^2``.

    ``h`` is a (t, n, n_r, dim) stack of channel matrices.  ``vectors``
    is one codebook (k, dim) shared by the whole stack, or one codebook
    per group (t, k, dim).  Returns ``(index, gain)``, both (t, n).
    Codewords are scored in chunks that keep the amplitude tensor within
    ``_GAIN_BUDGET`` elements; within and across chunks the first
    maximizer wins, so ties break to the lowest index.
    """
    t, n, n_r, dim = h.shape
    rows = h.reshape(t, n * n_r, dim)
    step = max(1, _GAIN_BUDGET // (t * n * n_r))
    cells = np.arange(t * n)
    for lo in range(0, vectors.shape[-2], step):
        gains = np.abs(rows @ vectors[..., lo : lo + step, :].swapaxes(-1, -2))
        gains **= 2  # in place: one float tensor per chunk, not two
        gains = gains.reshape(t * n, n_r, -1)
        gains = gains.sum(axis=1) if n_r > 1 else gains[:, 0]
        idx = gains.argmax(axis=1)
        gain = gains[cells, idx]
        if lo == 0:
            best_idx, best_gain = idx, gain
        else:
            better = gain > best_gain  # strict: earlier chunks keep ties
            best_idx = np.where(better, idx + lo, best_idx)
            best_gain = np.where(better, gain, best_gain)
    return best_idx.reshape(t, n), best_gain.reshape(t, n)


def save_codebook(codebook: Codebook, path) -> None:
    """Write a codebook to the interchange format.

    Layout: little-endian u32 header (dim, bits, seed) followed by the
    vectors as row-major float64 with real/imaginary interleaved per
    entry.  The payload round-trips bit for bit.
    """
    if not 0 <= codebook.seed < 2**32:
        raise ValueError(
            f"seed {codebook.seed} does not fit the u32 header field"
        )
    pairs = np.empty(codebook.vectors.shape + (2,), dtype="<f8")
    pairs[..., 0] = codebook.vectors.real
    pairs[..., 1] = codebook.vectors.imag
    with open(path, "wb") as f:
        f.write(_HEADER.pack(codebook.dim, codebook.bits, codebook.seed))
        f.write(pairs.tobytes())


def load_codebook(path) -> Codebook:
    """Read a codebook written by :func:`save_codebook`."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated codebook file: missing header")
    dim, bits, seed = _HEADER.unpack_from(raw)
    if dim < 1 or bits > MAX_BITS:
        raise ValueError(f"implausible codebook header: dim={dim} bits={bits}")
    size = 1 << bits
    expected = _HEADER.size + size * dim * 2 * 8
    if len(raw) != expected:
        raise ValueError(
            f"codebook payload has {len(raw)} bytes, expected {expected}"
        )
    pairs = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    pairs = pairs.reshape(size, dim, 2)
    vectors = pairs[..., 0] + 1j * pairs[..., 1]
    norms = np.linalg.norm(vectors, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise ValueError("corrupt codebook file: vectors are not unit norm")
    return Codebook(vectors, int(bits), int(dim), int(seed))
