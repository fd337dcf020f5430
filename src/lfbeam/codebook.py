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

from .numerics import _sum_rows, dominant_right_eigvec_batch

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

# Element budget for one tile of the (trials, subcarriers, codewords)
# gain tensor: 2**17 float64 values, 1 MB.  The search stacks whole
# trials up to it, so a trial's run of codewords is scored in one
# product, the same in a block of any size.  Tiles this small stay on
# the heap because the simulator primes glibc's malloc at import.
_GAIN_BUDGET = 1 << 17

# Share of ||H||_F^2 by which a gain must clear its floor before the
# search stops early (:func:`_best_codewords`): the rounding error of a
# gain in lifted form is a few float64 ulps of ||H||_F^2.
_GAIN_SLACK = 1e-9

# Normals per chunk of drawn codewords (2 MB): a codebook is drawn,
# scored and dropped this many at a time.
_DRAW_CHUNK = 1 << 18


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
    the uniform distribution on the complex unit sphere: the one-group
    case of :func:`_draw_codewords`, the simulator's one codebook draw.

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
    chunks = _draw_codewords(rng, 1 << bits, 1, dim)
    return Codebook(np.concatenate(list(chunks))[:, 0], bits, dim, int(seed))


def _draw_codewords(rng, size: int, groups: int, dim: int):
    """``size`` unit codewords for each of ``groups`` codebooks, drawn
    from ``rng`` as the chunk source :func:`_best_codewords` takes:
    codeword-major (codeword 0 of every group first), each codeword
    ``dim`` (re, im) pairs of standard normals scaled to unit length in
    place, ``w`` codewords at a time (at most ``_DRAW_CHUNK`` normals),
    yielded as a C-ordered (w, groups, dim) array that the search lifts
    and gathers from without a copy.  ``standard_normal`` gives the same
    numbers however a draw is split into calls, so codeword ``j`` of a
    group depends on neither ``size`` nor ``w``: codebooks nest, and
    ``w`` bounds the memory up to 20 bits.
    """
    step = max(1, min(size, _DRAW_CHUNK // (2 * groups * dim)))
    for k in range(0, size, step):
        g = rng.standard_normal((min(step, size - k), groups, dim, 2))
        g /= np.sqrt(np.einsum("wtij,wtij->wt", g, g))[..., None, None]
        yield g.view(np.complex128)[..., 0]
        del g  # dropped before the next chunk is drawn


def quantize_direction(h: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Pick the codeword best aligned with the channel direction.

    Maximizes ``|h^H w|^2`` over the codebook, the same as minimizing
    the squared sine of the angle between ``h`` and ``w``; phase and
    scale of ``h`` are irrelevant.  Ties resolve to the lowest index.

    Returns the winning index, the alignment ``metric = |h^H w|^2``,
    and ``distortion = 1 - metric / ||h||^2`` (the squared sine, i.e.
    the fraction of beamforming gain lost to quantization): the
    one-row case ``H = h^H`` of :func:`select_beamformer`.
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
    return _quantize(h.conj()[None], codebook, power)


def select_beamformer(h: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Pick the codeword maximizing beamformed rate on a MIMO channel.

    The rate ``log2(1 + rho * ||H w||^2)`` ranks the codewords as
    ``||H w||^2`` does at every SNR ``rho > 0``, so the choice needs only
    the channel and the codebook; ties resolve to the lowest index.
    ``metric`` is the winning ``||H w||^2`` and ``distortion = 1 -
    metric / lam_max`` where ``lam_max`` is the largest eigenvalue of
    ``H^H H`` (the gain of the unquantized optimal direction).  An
    all-zero ``H`` raises :class:`ZeroChannelError`.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[1] != codebook.dim:
        raise ValueError(
            f"channel has {h.shape[1]} columns, codebook has dim {codebook.dim}"
        )
    _, lam = dominant_right_eigvec_batch(h[None])
    if lam[0] == 0.0:
        raise ZeroChannelError("cannot select a beam for an all-zero channel")
    return _quantize(h, codebook, float(lam[0]))


def _quantize(h: np.ndarray, codebook: Codebook, reference: float):
    """The codeword maximizing ``||H w||^2`` for one (n_r, dim) channel
    ``h``; ``distortion`` is ``1 - metric / reference`` clipped to [0, 1]
    for the positive unquantized gain ``reference``.
    """
    index, gain, _ = _best_codewords(
        h[None, None], [codebook.vectors[:, None]], [len(codebook)]
    )
    metric = float(gain[0, 0, 0])
    lost = 1.0 - metric / reference
    return QuantizationResult(int(index[0, 0, 0]), min(max(lost, 0.0), 1.0),
                              metric)


def _lift(x: np.ndarray) -> np.ndarray:
    """Real features of the Hermitian outer products of ``x`` (..., m):
    ``|x_i|^2``, then ``Re(conj(x_i) x_j), Im(conj(x_i) x_j)`` for each
    i < j, m*m reals in all, written into one new array with the
    layout of a C-ordered ``x``.

    For a row ``a`` and a vector ``w``, ``|a w|^2`` is the dot product of
    ``_lift(conj(a))`` with ``_lift(w)`` whose off-diagonal entries are
    doubled (see :func:`_best_codewords`).
    """
    x = np.asarray(x, np.complex128)
    m = x.shape[-1]
    out = np.empty(x.shape[:-1] + (m * m,))
    cross = out[..., m:].view(np.complex128)
    xc = np.conjugate(x)  # a new array: its |x_i|^2 are written over it
    k = 0
    for i in range(m - 1):
        np.multiply(xc[..., i : i + 1], x[..., i + 1 :],
                    out=cross[..., k : k + m - 1 - i])
        k += m - 1 - i
    out[..., :m] = np.multiply(xc, x, out=xc).real
    return out


def _best_codewords(
    h: np.ndarray, chunks, sizes: list[int], floors=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best codeword per channel matrix among each prefix of a codebook.

    ``h`` is a (t, n, n_r, dim) stack of channel matrices, n rows for
    each of t trials.  ``chunks`` yields the codebook codeword-major, as
    (w, g, dim) arrays of its next ``w`` unit codewords: one codebook
    shared by every trial (g = 1) or one per trial (g = t),
    ``max(sizes)`` codewords in all.  For each prefix size ``s`` in
    ``sizes`` the result holds, per row, the argmax of ``||H w||^2``
    over the first ``s`` codewords, or over a shorter prefix whose best
    already clears the row's floor: ``(index, gain, beam)``,
    (len(sizes), t, n) each and (len(sizes), t, n, dim).

    Without ``floors`` the search is exact.  ``floors`` holds one floor
    per entry of ``sizes``, a (t, n) array or a scalar for every row.
    At each prefix end ``a`` below the largest, a row is done once its
    best gain over the first ``a`` codewords is above the floor of every
    size beyond ``a`` by more than ``_GAIN_SLACK * ||H||_F^2``, which
    bounds the rounding of a gain, and that best stands for those sizes.
    A trial is no longer scored once all its rows are done, unless more
    than three quarters of the trials are left: then copying theirs out
    costs more than scoring them all.

    Gains are one real GEMM in lifted form, the channel's features
    ``sum_r _lift(conj(H_r))`` times the codewords' ``_lift(w)``, so the
    cost does not grow with n_r.  Each run of codewords between prefix
    ends is scored by :func:`_score_run` into a running best index,
    gain and vector, which every prefix end reads; the first maximizer
    wins, so ties break to the lowest index.
    """
    t, n, n_r, dim = h.shape
    feats = _lift(h[:, :, 0].conj())
    if n_r > 1:
        feats += 0.0  # summed over r in order from +0.0, as numpy sums
        for r in range(1, n_r):
            feats += _lift(h[:, :, r].conj())
    # the off-diagonal doubling goes on the channel side: scaling by 2
    # is exact, and the codewords outnumber the channels
    feats[:, :, dim:] *= 2.0
    ends = sorted(set(sizes))
    idx = np.empty((t, n), np.intp)
    gain = np.empty((t, n))
    vec, found, lo = None, {}, 0
    live = None  # the trials still scored, None for all of them
    if floors is not None:
        # a row is done only above its floor by more than the rounding
        # error of its gain, a tiny share of ||H||_F^2
        slack = _sum_rows(feats[:, :, :dim].reshape(t * n, dim))
        slack = slack.reshape(t, n) * _GAIN_SLACK
    for chunk in chunks:
        size, g = chunk.shape[:2]
        trial = np.arange(t)[:, None] if g > 1 else 0  # each row's group
        hi = lo + size
        cuts = sorted({lo, hi}.union(e for e in ends if lo < e < hi))
        for a, b in zip(cuts, cuts[1:]):
            _score_run(feats, chunk[a - lo : b - lo], idx, gain, a, live)
            # winners from this chunk take their vectors from it, once
            # scored: the chunk is dropped before the next one is drawn
            at = idx - lo
            won = chunk.reshape(-1, dim).take(at.clip(0) * g + trial, axis=0)
            if lo:  # winners from earlier chunks keep theirs
                np.copyto(won, vec, where=(at < 0)[..., None])
            vec = won
            if b in ends:
                found[b] = idx.copy(), gain.copy(), vec
                if floors is not None and b < ends[-1]:
                    above = {id(f): f for s, f in zip(sizes, floors) if s > b}
                    floor = functools.reduce(np.maximum, above.values())
                    done = (gain - slack > floor).all(axis=1)
                    live = np.flatnonzero(~done)
                    if 4 * len(live) > 3 * t:  # copying them costs more
                        live = None
        lo = hi
        chunk = None
    return tuple(np.stack(x) for x in zip(*(found[e] for e in sizes)))


def _score_run(feats, words, idx, gain, a: int, live) -> None:
    """Merge a run of codewords ``a``, ``a + 1``, ... into the running
    best ``idx`` and ``gain``, (t, n), of the trials ``live`` (an index
    array, None for all of them), in place; ``a`` = 0 sets them.
    ``feats`` are the (t, n, m*m) lifted channel features and ``words``
    the run's (w, g, dim) codewords, g = 1 for one codebook shared by
    every trial.

    The trials are taken a group at a time, their codewords lifted
    within half of ``_GAIN_BUDGET`` values (a shared codebook once, for
    all of them), so that a group's copied, conjugated and lifted
    codewords take no more memory than a tile, and scored in tiles of
    whole trials within ``_GAIN_BUDGET`` gains.  A trial's tile is the
    same (n, m*m) by (m*m, w) product whatever the tile, group or block
    size and whichever trials are scored: only whole trials are left
    out, as a one-row product would take BLAS's matrix-vector path and
    round differently.
    """
    t, n = feats.shape[:2]
    size, g, dim = words.shape
    width = max(1, min(size, _GAIN_BUDGET // n))
    stack = max(1, _GAIN_BUDGET // (n * width))
    span = t
    if g > 1:  # whole stacks of trials whose lifted codewords fit
        span = _GAIN_BUDGET // 2 // (dim * dim * size) // stack
        span = max(1, span) * stack
    for s in range(0, t if live is None else len(live), span):
        # views of a range of trials, or copies of the live ones
        sel = slice(s, s + span) if live is None else live[s : s + span]
        sub_feats, sub_idx, sub_gain = feats[sel], idx[sel], gain[sel]
        k = len(sub_feats)
        lifted = np.broadcast_to(
            _lift(words[:, sel] if g > 1 else words).transpose(1, 2, 0),
            (k, dim * dim, size))
        for c in range(0, size, width):
            w = min(c + width, size) - c
            cols = lifted[:, :, c : c + w]
            # where each row of a tile starts in its flat gains
            starts = np.arange(0, min(stack, k) * n * w, w)
            for r in range(0, k, stack):
                best_idx = sub_idx[r : r + stack].reshape(-1)
                best_gain = sub_gain[r : r + stack].reshape(-1)
                tile = sub_feats[r : r + stack] @ cols[r : r + stack]
                tile = tile.reshape(-1, w)
                best = tile.argmax(axis=1)
                score = tile.take(best + starts[: len(best)])
                del tile  # one tile at a time
                if a + c == 0:
                    best_idx[...], best_gain[...] = best, score
                else:  # strict: earlier codewords keep ties
                    better = score > best_gain
                    np.copyto(best_idx, best + a + c, where=better)
                    np.copyto(best_gain, score, where=better)
        if live is not None:
            idx[sel], gain[sel] = sub_idx, sub_gain
        lifted = cols = None  # dropped before the next group is lifted


def save_codebook(codebook: Codebook, path) -> None:
    """Write a codebook to the interchange format.

    Layout: little-endian u32 header (dim, bits, seed) followed by the
    vectors as row-major little-endian complex128: float64 real and
    imaginary parts interleaved per entry.  The payload round-trips bit
    for bit, signed zeros included.  What :func:`load_codebook` would
    refuse, and a header field that does not fit its u32, is refused
    with ``ValueError`` before the file is opened.
    """
    for key in ("dim", "bits", "seed"):
        value = getattr(codebook, key)
        if not 0 <= value < 2**32:
            raise ValueError(f"{key} {value} does not fit the u32 header field")
    if np.shape(codebook.vectors)[1:] != (codebook.dim,):
        raise ValueError(
            f"codebook vectors have shape {np.shape(codebook.vectors)}, "
            f"not (2**bits, {codebook.dim})"
        )
    raw = _HEADER.pack(codebook.dim, codebook.bits, codebook.seed)
    raw += np.ascontiguousarray(codebook.vectors, dtype="<c16").tobytes()
    _parse_codebook(raw)
    with open(path, "wb") as f:
        f.write(raw)


def load_codebook(path) -> Codebook:
    """Read a codebook written by :func:`save_codebook`."""
    with open(path, "rb") as f:
        return _parse_codebook(f.read())


def _parse_codebook(raw: bytes) -> Codebook:
    """The codebook held by the bytes of a codebook file, checked."""
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
    vectors = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    vectors = vectors.reshape(size, dim)
    norms = np.linalg.norm(vectors, axis=1)
    if not (np.abs(norms - 1.0) <= 1e-9).all():  # NaN norms fail too
        raise ValueError("corrupt codebook file: vectors are not unit norm")
    return Codebook(vectors, int(bits), int(dim), int(seed))
