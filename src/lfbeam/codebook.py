"""Random vector quantization codebooks for beamforming feedback.

A codebook is 2**bits unit vectors drawn isotropically on the complex
unit sphere from a seeded generator.  Transmitter and receiver both
regenerate the codebook from (seed, bits, dim), or exchange it through
the binary file format below, so only the selected index needs feedback.
"""

from __future__ import annotations

import functools
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

# Element budget for one chunk of the (trials, subcarriers, codewords)
# gain tensor: 2**20 float64 values, 8 MB.  The simulator stacks whole
# trials up to it, so a trial that fits is scored in one chunk, the
# same in a block of any size.  At 4 MB, glibc's malloc handed the heap
# back to the system after every block and faulted it in again (about
# 1,500 page faults per 256-trial estimated-CSI block, a quarter of its
# time).
_GAIN_BUDGET = 1 << 20


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

    @functools.cached_property
    def features(self) -> np.ndarray:
        """The codewords' lifted features for the codeword search,
        computed on first use and kept."""
        return _codeword_features(self.vectors)


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
    fixed channel.  The simulator relies on this: its fresh-codebook
    curves share one codebook per trial, and the curve with ``b`` bits
    searches its first 2**b codewords.
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
    # each drawn (re, im) pair read in place as one complex128 entry
    g = rng.standard_normal((size, dim, 2)).view(np.complex128)[..., 0]
    norms = np.sqrt(np.add.reduce((g.conj() * g).real, axis=1, keepdims=True))
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
    power = float(np.vdot(h, h).real)
    if power == 0.0:
        raise ZeroChannelError("cannot quantize an all-zero channel")
    # |h^H w|^2 is ||H w||^2 for the one-row channel H = h^H
    index, gain = _best_codewords(h.conj()[None, None, None], codebook.features)
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
    index, gain = _best_codewords(h[None, None], codebook.features)
    metric = float(gain[0, 0])
    _, lam = dominant_right_eigvec_batch(h[None])
    top = float(lam[0])
    if top <= 0.0:
        distortion = 0.0
    else:
        distortion = min(max(1.0 - metric / top, 0.0), 1.0)
    return QuantizationResult(int(index[0, 0]), distortion, metric)


@functools.lru_cache(maxsize=None)
def _layout(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs i < j of a ``dim``-vector, and the weights that double
    the off-diagonal lifted features; built once per ``dim``."""
    i, j = np.triu_indices(dim, 1)
    return i, j, np.repeat([1.0, 2.0], [dim, dim * dim - dim])


def _lift(x: np.ndarray) -> np.ndarray:
    """Real features of the Hermitian outer products of ``x`` (..., m):
    ``|x_i|^2``, then ``Re(conj(x_i) x_j), Im(conj(x_i) x_j)`` for each
    i < j, m*m reals in all.

    For a row ``a`` and a vector ``w``, ``|a w|^2`` is the dot product of
    ``_lift(conj(a))`` with ``_lift(w)`` whose off-diagonal entries are
    doubled (see :func:`_codeword_features`).
    """
    i, j, _ = _layout(x.shape[-1])
    xc = x.conj()
    cross = xc.take(i, axis=-1) * x.take(j, axis=-1)
    return np.concatenate([(xc * x).real, cross.view(np.float64)], axis=-1)


def _codeword_features(vectors: np.ndarray) -> np.ndarray:
    """The search's features of codewords (..., k, dim): ``_lift`` with
    the off-diagonal entries doubled, as columns, (..., dim*dim, k)."""
    words = _lift(vectors) * _layout(vectors.shape[-1])[2]
    return words.swapaxes(-1, -2)


def _best_codewords(
    h: np.ndarray, words: np.ndarray, sizes: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Best codeword per channel matrix: argmax over w of ``||H w||^2``.

    ``h`` is a (t, n, n_r, dim) stack of channel matrices.  ``words``
    holds the :func:`_codeword_features` of one codebook (k, dim) shared
    by the whole stack, or of one codebook per group (t, k, dim), so
    codeword ``j`` is column ``j``.  Returns ``(index, gain)``, both
    (t, n); with ``sizes``, a list of prefix sizes, both
    (len(sizes), t, n), the best of the first ``s`` codewords for each
    ``s``.

    Gains are one real GEMM in lifted form: the channel's features
    ``sum_r _lift(conj(H_r))`` times the codewords', so the cost does not
    grow with n_r.  Codewords are scanned once, in chunks that keep the
    gain tensor within ``_GAIN_BUDGET`` elements; within and across
    chunks the first maximizer wins, so ties break to the lowest index.
    """
    t, n, n_r, _ = h.shape
    feats = _lift(h.conj())
    feats = feats.sum(axis=2) if n_r > 1 else feats[:, :, 0]
    ends = [words.shape[-1]] if sizes is None else sorted(set(sizes))
    step = max(1, _GAIN_BUDGET // (t * n))
    cells = np.arange(t * n)
    found = {}
    for lo in range(0, ends[-1], step):
        hi = min(lo + step, ends[-1])
        gains = (feats @ words[..., lo:hi]).reshape(t * n, hi - lo)
        # the best of each requested prefix ending in this chunk, then of
        # the whole chunk, each merged with the best of earlier chunks
        for end in [e for e in ends if lo < e < hi] + [hi]:
            idx = gains[:, : end - lo].argmax(axis=1)
            gain = gains[cells, idx]
            if lo:
                better = gain > best_gain  # strict: earlier chunks keep ties
                idx = np.where(better, idx + lo, best_idx)
                gain = np.where(better, gain, best_gain)
            found[end] = idx, gain
        best_idx, best_gain = found[hi]
    if sizes is None:
        return best_idx.reshape(t, n), best_gain.reshape(t, n)
    index, gain = zip(*(found[s] for s in sizes))
    return np.stack(index).reshape(-1, t, n), np.stack(gain).reshape(-1, t, n)


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
