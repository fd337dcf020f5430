import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfbeam.codebook
from lfbeam.codebook import (
    Codebook,
    CodebookTooLargeError,
    ZeroChannelError,
    gen_rvq,
    load_codebook,
    quantize_direction,
    _best_codewords,
    save_codebook,
    select_beamformer,
)
from oracles import min_uniform_mean, min_uniform_var, top_sv_direction

EPS = np.finfo(np.float64).eps


def gain_tolerance(h):
    """Rounding bound on ``||H w||^2`` for unit ``w``, in the direct or
    the lifted form, per (…, n_r, dim) channel matrix: a few float64 ulps
    per summed term, relative to ``||H||_F^2``, which bounds every term."""
    n_r, dim = h.shape[-2:]
    return 8 * (dim * dim + n_r) * EPS * (np.abs(h) ** 2).sum(axis=(-2, -1))


def direct_gains(h, vectors):
    """``||H w||^2`` for every codeword in the direct complex form:
    (t, n, n_r, dim) channels, (k, dim) or (t, k, dim) codewords."""
    w = np.broadcast_to(vectors, (h.shape[0],) + vectors.shape[-2:])
    return (np.abs(np.einsum("tnij,tkj->tnik", h, w)) ** 2).sum(axis=2)


def one_chunk(vectors):
    """A shared (k, dim) or per-group (t, k, dim) codebook as a chunk
    source of one codeword-major (k, g, dim) chunk."""
    return [vectors[:, None] if vectors.ndim == 2 else vectors.swapaxes(0, 1)]


def shared_chunks(vectors, bounds):
    """A shared (k, dim) codebook as a chunk source of (w, 1, dim)
    chunks between ``bounds``."""
    return (vectors[lo:hi, None] for lo, hi in zip(bounds, bounds[1:]))


# ------------------------------------------------------------------ gen_rvq


def test_zero_bits_is_single_unit_vector():
    cb = gen_rvq(2, 0, seed=5)
    assert cb.vectors.shape == (1, 2)
    assert abs(np.linalg.norm(cb.vectors[0]) - 1.0) <= 1e-12


def test_three_bits_eight_unit_rows():
    cb = gen_rvq(2, 3, seed=5)
    assert cb.vectors.shape == (8, 2)
    assert np.allclose(np.linalg.norm(cb.vectors, axis=1), 1.0, atol=1e-12)


def test_regeneration_is_bit_exact():
    a = gen_rvq(4, 6, seed=123)
    b = gen_rvq(4, 6, seed=123)
    assert np.array_equal(a.vectors, b.vectors)


def test_codebooks_nest_across_sizes():
    """Same seed: a larger codebook starts with the smaller one."""
    small = gen_rvq(2, 3, seed=9)
    big = gen_rvq(2, 7, seed=9)
    assert np.array_equal(big.vectors[:8], small.vectors)


def test_isotropy_alignment_is_uniform():
    """For dim 2, |<w, e>|^2 of an isotropic unit vector is U(0,1);
    check with a Kolmogorov-Smirnov test at the 1% level."""
    cb = gen_rvq(2, 0, seed=0)
    n = 10_000
    samples = np.empty(n)
    for seed in range(n):
        w = gen_rvq(2, 0, seed=seed).vectors[0]
        samples[seed] = abs(w[0]) ** 2
    samples.sort()
    grid = (np.arange(n) + 1) / n
    ks = max(
        np.abs(samples - grid).max(),
        np.abs(samples - (grid - 1.0 / n)).max(),
    )
    assert ks <= 1.6276 / np.sqrt(n), ks  # 1% critical value


def test_distinct_seeds_share_no_codeword():
    a = gen_rvq(2, 6, seed=1)
    b = gen_rvq(2, 6, seed=2)
    # chordal distance between every cross pair stays clearly nonzero
    overlap = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
    assert (1.0 - overlap).min() > 1e-9


def test_too_many_bits_raises():
    with pytest.raises(CodebookTooLargeError):
        gen_rvq(2, 21, seed=0)


def test_bad_dims_raise():
    with pytest.raises(ValueError):
        gen_rvq(0, 2, seed=0)
    with pytest.raises(ValueError):
        gen_rvq(2, -1, seed=0)


# ------------------------------------------------------- quantize_direction


def test_exact_member_has_zero_distortion():
    cb = gen_rvq(2, 4, seed=3)
    h = 2.7 * cb.vectors[5]
    res = quantize_direction(h, cb)
    assert res.index == 5
    assert res.distortion <= 1e-12
    assert abs(res.metric - np.abs(np.vdot(h, cb.vectors[5])) ** 2) <= 1e-9


def test_tie_breaks_to_lowest_index():
    """A codeword repeated up to phase cannot lose to its later copy."""
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    vectors = np.stack([w, 1.0j * w, np.array([1.0, 0.0], dtype=complex)])
    cb = Codebook(vectors, bits=2, dim=2, seed=0)  # size 3 is fine for math
    res = quantize_direction(w, cb)
    assert res.index == 0


def test_real_codewords_are_searched_and_left_unchanged():
    """Real-valued codewords are searched as complex ones, and neither
    the codebook's vectors nor a caller's array is written to."""
    vectors = np.array([[0.6, 0.8], [1.0, 0.0]])
    cb = Codebook(vectors.copy(), bits=1, dim=2, seed=0)
    h = np.array([1.0 + 0.5j, 0.2 - 0.1j])
    res = quantize_direction(h, cb)
    assert res.index == 1
    assert res.metric == pytest.approx(1.25)
    np.testing.assert_array_equal(cb.vectors, vectors)
    words = vectors.copy()
    index, gain, beam = _best_codewords(
        h[None, None, None], [words[:, None]], [2]
    )
    assert index[0, 0, 0] == 1
    assert gain[0, 0, 0] == pytest.approx(1.25)
    np.testing.assert_array_equal(beam[0, 0, 0], vectors[1])
    np.testing.assert_array_equal(words, vectors)


def test_zero_channel_raises():
    cb = gen_rvq(2, 2, seed=0)
    with pytest.raises(ZeroChannelError):
        quantize_direction(np.zeros(2, dtype=complex), cb)


def test_dim_mismatch_raises():
    cb = gen_rvq(3, 2, seed=0)
    with pytest.raises(ValueError):
        quantize_direction(np.ones(2, dtype=complex), cb)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 10.0),
    st.floats(-np.pi, np.pi),
)
@settings(max_examples=40, deadline=None)
def test_quantization_ignores_phase_and_scale(seed, scale, phase):
    rng = np.random.default_rng(seed)
    cb = gen_rvq(2, 3, seed=seed)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if np.linalg.norm(h) < 1e-6:
        return
    base = quantize_direction(h, cb)
    moved = quantize_direction(scale * np.exp(1j * phase) * h, cb)
    assert moved.index == base.index
    assert abs(moved.distortion - base.distortion) <= 1e-9


def test_distortion_recomputes(rng):
    cb = gen_rvq(2, 4, seed=8)
    for _ in range(50):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = quantize_direction(h, cb)
        w = cb.vectors[res.index]
        direct = 1.0 - abs(np.vdot(h, w)) ** 2 / (np.abs(h) ** 2).sum()
        assert abs(res.distortion - direct) <= 1e-12


def test_nested_codebooks_never_hurt():
    """More bits from the same seed can only reduce distortion."""
    rng = np.random.default_rng(17)
    books = {b: gen_rvq(2, b, seed=77) for b in (1, 3, 5)}
    for _ in range(200):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = [quantize_direction(h, books[b]).distortion for b in (1, 3, 5)]
        assert d[0] >= d[1] >= d[2]


def test_distortion_law_sanity():
    """Mean distortion for dim 2 is 1/(2^B + 1): quick 4-sigma check
    at B=2 (the full ensemble check lives in the acceptance tests)."""
    n = 20_000
    rng = np.random.default_rng(123)
    d = np.empty(n)
    for i in range(n):
        cb = gen_rvq(2, 2, seed=i)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d[i] = quantize_direction(h, cb).distortion
    expected = min_uniform_mean(4)
    se = np.sqrt(min_uniform_var(4) / n)
    assert abs(d.mean() - expected) <= 4.0 * se, (d.mean(), expected, se)


# -------------------------------------------------------- select_beamformer


def test_select_hand_case():
    """H = diag(2,1) with codebook {e1, e2}: e1 wins with ||H e1||^2 = 4."""
    h = np.diag([2.0 + 0j, 1.0 + 0j])
    vectors = np.eye(2, dtype=complex)
    cb = Codebook(vectors, bits=1, dim=2, seed=0)
    res = select_beamformer(h, cb)
    assert res.index == 0
    assert abs(res.metric - 4.0) <= 1e-12
    assert res.distortion <= 1e-10


def test_selection_metric_bounded_by_top_eigenvalue(rng):
    cb = gen_rvq(2, 6, seed=11)
    for _ in range(50):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        res = select_beamformer(h, cb)
        lam, _ = top_sv_direction(h)
        assert res.metric <= lam * (1.0 + 1e-9)
        assert abs(res.distortion - (1.0 - res.metric / lam)) <= 1e-9


def test_selection_beats_every_other_codeword(rng):
    """The lifted search scores in another order than the direct form,
    so the metric agrees to rounding; the winner is the same."""
    cb = gen_rvq(2, 4, seed=2)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    res = select_beamformer(h, cb)
    gains = (np.abs(h @ cb.vectors.T) ** 2).sum(axis=0)
    assert abs(res.metric - gains.max()) <= gain_tolerance(h)
    assert res.index == int(np.argmax(gains))


def test_selection_ratio_grows_with_bits():
    """At B=10 the selected gain is nearly the unquantized optimum."""
    rng = np.random.default_rng(31)
    cb = gen_rvq(2, 10, seed=31)
    ratios = np.empty(2000)
    for i in range(ratios.shape[0]):
        h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        res = select_beamformer(h, cb)
        lam, _ = top_sv_direction(h)
        ratios[i] = res.metric / lam
    assert ratios.mean() >= 0.95


@pytest.mark.parametrize("shape", [(2,), (1, 3), (2, 2), (3, 4)],
                         ids=["vector", "1x3", "2x2", "3x4"])
def test_select_refuses_a_zero_channel(shape):
    """As in ``quantize_direction``, an all-zero channel has no
    direction to pick, on each eigen route."""
    cb = gen_rvq(shape[-1], 3, seed=0)
    with pytest.raises(ZeroChannelError):
        select_beamformer(np.zeros(shape, dtype=complex), cb)


# ---------------------------------------------------------- _best_codewords


def test_kernel_chunked_scan_matches_single_pass(rng, monkeypatch):
    h = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
    shared = gen_rvq(2, 6, seed=1)
    per_trial = np.stack([gen_rvq(2, 6, seed=s).vectors for s in range(3)])
    # a shared codebook in one chunk and in ragged chunks of 10, 1 and 53
    for words, vectors in (
        (lambda: one_chunk(shared.vectors), shared.vectors),
        (lambda: shared_chunks(shared.vectors, (0, 10, 11, 64)),
         shared.vectors),
        (lambda: one_chunk(per_trial), per_trial),
    ):
        idx, gain, _ = (x[0] for x in _best_codewords(h, words(), [64]))
        assert np.array_equal(idx, np.argmax(direct_gains(h, vectors), axis=2))
        # 7 codewords of 5 subcarriers per tile: ten tiles of one
        # chunk, the last one ragged, each scored one trial at a time
        monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", 7 * 5)
        idx_c, gain_c, _ = (x[0] for x in _best_codewords(h, words(), [64]))
        monkeypatch.undo()
        assert np.array_equal(idx_c, idx)
        # BLAS may round a narrower column block differently in the
        # last bit, so the chunked gains agree to rounding, not bitwise
        assert np.allclose(gain_c, gain, rtol=1e-14, atol=0.0)


def test_kernel_tie_across_chunk_boundary_breaks_low(monkeypatch):
    """e1 wins at indices 2, 3 and 4; chunks of three put index 2 in
    the first chunk and 3, 4 in the second.  Every gain is exact."""
    e1, e2 = np.eye(2, dtype=complex)
    vectors = np.stack([e2, e2, e1, e1, e1, e2])
    h = np.array([[[[1.0, 0.0]]]], dtype=complex)
    monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", 3)
    idx, gain, _ = _best_codewords(h, one_chunk(vectors), [6])
    assert idx[0, 0, 0] == 2 and gain[0, 0, 0] == 1.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lifted_kernel_matches_direct_form(dim):
    """For every antenna geometry and every codebook form, the lifted
    winner is a direct-form maximizer and its gain is the direct-form
    maximum, both to rounding; where the direct-form runner-up trails by
    more than rounding, the indices are equal.  An all-zero channel
    scores every codeword 0 and picks index 0."""
    rng = np.random.default_rng(40 + dim)
    t, n = 3, 7
    shared = gen_rvq(dim, 5, seed=dim)
    per_trial = np.stack([gen_rvq(dim, 5, seed=10 * dim + s).vectors
                          for s in range(t)])
    for n_r in (1, 2, 3):
        h = (rng.standard_normal((t, n, n_r, dim))
             + 1j * rng.standard_normal((t, n, n_r, dim)))
        h[0, 0] = 0.0
        tol = gain_tolerance(h)
        for words, vectors in (
            (one_chunk(shared.vectors), shared.vectors),
            (shared_chunks(shared.vectors, (0, 3, 32)), shared.vectors),
            (one_chunk(per_trial), per_trial),
        ):
            idx, gain, _ = (x[0] for x in _best_codewords(h, words, [32]))
            direct = direct_gains(h, vectors)
            best = direct.max(axis=2)
            assert idx[0, 0] == 0 and gain[0, 0] == 0.0
            assert (np.abs(gain - best) <= tol).all()
            picked = np.take_along_axis(direct, idx[..., None], 2)[..., 0]
            assert (picked >= best - 2 * tol).all()
            runner_up = np.sort(direct, axis=2)[..., -2]
            clear = best - runner_up > 4 * tol
            assert np.array_equal(idx[clear], direct.argmax(axis=2)[clear])
            if dim > 1:
                assert clear.sum() >= t * n - 1  # all but the zero channel


def test_prefix_search_equals_separate_searches(rng, monkeypatch):
    """Each requested prefix size gets the best of its first ``s``
    codewords, as a search of that prefix alone finds it, and the
    winning codeword itself: for every size from 1 to k, in one pass and
    with chunk boundaries (every 5 codewords) inside prefixes."""
    t, n, k = 3, 4, 64
    h = rng.standard_normal((t, n, 2, 2)) + 1j * rng.standard_normal((t, n, 2, 2))
    tol = gain_tolerance(h)
    sizes = list(range(k, 0, -1))  # any order
    for vectors in (gen_rvq(2, 6, seed=3).vectors,
                    np.stack([gen_rvq(2, 6, seed=s).vectors for s in range(t)])):
        alone = [
            [x[0] for x in _best_codewords(
                h, one_chunk(vectors[..., :s, :]), [s])[:2]]
            for s in sizes
        ]
        for budget in (None, 5 * n):
            if budget is not None:
                monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", budget)
            idx, gain, beam = _best_codewords(h, one_chunk(vectors), sizes)
            monkeypatch.undo()
            assert idx.shape == gain.shape == (k, t, n)
            # each winner's vector is kept with its index
            words = np.broadcast_to(vectors, (t,) + vectors.shape[-2:])
            assert np.array_equal(beam, words[np.arange(t)[:, None], idx])
            for i, (idx_s, gain_s) in enumerate(alone):
                assert np.array_equal(idx[i], idx_s)
                # BLAS takes a one-codeword prefix as a matrix-vector
                # product, which may round differently in the last bit
                assert (np.abs(gain[i] - gain_s) <= tol).all()


def test_kernel_scans_a_chunk_source(rng):
    """Unit codewords handed over as a chunk source, in ragged chunks of
    5, 1, 9 and 17 codewords per trial with prefix ends inside chunks,
    give what one search of the whole (t, k, dim) array gives: the same
    index and codeword for every prefix, the direct-form argmax wherever
    the runner-up trails by more than rounding, and gains within
    rounding of the direct-form maximum."""
    t, n, k = 3, 4, 32
    h = rng.standard_normal((t, n, 2, 2)) + 1j * rng.standard_normal((t, n, 2, 2))
    g = rng.standard_normal((t, k, 2)) + 1j * rng.standard_normal((t, k, 2))
    words = g / np.linalg.norm(g, axis=-1, keepdims=True)
    sizes = [32, 3, 6, 1, 15, 20]
    bounds = [0, 5, 6, 15, 32]
    # codeword-major chunks, (w, t, dim)
    chunks = (words[:, lo:hi].swapaxes(0, 1)
              for lo, hi in zip(bounds, bounds[1:]))
    idx, gain, beam = _best_codewords(h, chunks, sizes)
    want_idx, _, want_beam = _best_codewords(h, one_chunk(words), sizes)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(beam, want_beam)
    tol = gain_tolerance(h)
    for i, s in enumerate(sizes):
        direct = direct_gains(h, words[:, :s])
        best = direct.max(axis=2)
        assert (np.abs(gain[i] - best) <= tol).all()
        if s > 1:
            clear = best - np.sort(direct, axis=2)[..., -2] > 4 * tol
            assert clear.all()
        assert np.array_equal(idx[i], direct.argmax(axis=2))
        assert np.array_equal(beam[i], words[np.arange(t)[:, None], idx[i]])


def test_tile_size_does_not_change_the_search(rng, monkeypatch):
    """Tiles of 7 codewords of one group, the 2**17-gain default (four
    stacks of groups on the last run of codewords) and the whole stack
    in one tile give the same index and codeword for every prefix, and
    gains equal to rounding: for a shared codebook in one chunk and in
    chunks, for per-group codebooks in one chunk, for a per-group
    chunk source whose chunk ends fall inside and on prefix ends, and
    for the shared codebook broadcast to every group, which gives what
    its one group gives bit for bit: one product scores both."""
    t, n, k = 128, 64, 64
    h = rng.standard_normal((t, n, 2, 2)) + 1j * rng.standard_normal((t, n, 2, 2))
    tol = gain_tolerance(h)
    shared = gen_rvq(2, 6, seed=5)
    per_group = np.stack([gen_rvq(2, 6, seed=20 + s).vectors
                          for s in range(t)])
    sizes = [64, 2, 4, 16]
    bounds = (0, 3, 16, 64)
    sources = (
        lambda: one_chunk(shared.vectors),
        lambda: shared_chunks(shared.vectors, bounds),
        lambda: one_chunk(per_group),
        lambda: (per_group[:, lo:hi].swapaxes(0, 1)
                 for lo, hi in zip(bounds, bounds[1:])),
        lambda: [np.broadcast_to(shared.vectors[:, None], (k, t, 2))],
    )
    assert lfbeam.codebook._GAIN_BUDGET == 1 << 17
    # stacks of 42 groups on the last run of 48 codewords
    assert -(-t // ((1 << 17) // (n * (k - 16)))) == 4
    by_source = []
    for words in sources:
        found = []
        for budget in (7 * n, 1 << 17, t * n * k):
            monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", budget)
            found.append(_best_codewords(h, words(), sizes))
        idx, gain, beam = found[0]
        assert idx.shape == (len(sizes), t, n)
        for idx_b, gain_b, beam_b in found[1:]:
            assert np.array_equal(idx_b, idx)
            assert np.array_equal(beam_b, beam)
            assert (np.abs(gain_b - gain) <= tol).all()
        by_source.append(found)
    for one, every in zip(by_source[0], by_source[-1]):
        for x, y in zip(one, every):
            assert np.array_equal(x, y)


def test_prefix_tie_across_chunk_boundary_breaks_low(monkeypatch):
    """Chunks of three: e1 first wins at index 2, and its copies at 3
    and 4, past the boundary, do not displace it in any prefix; where
    the first chunk holds no e1, the second chunk's first e1 wins."""
    e1, e2 = np.eye(2, dtype=complex)
    h = np.array([[[[1.0, 0.0]]]], dtype=complex)
    monkeypatch.setattr(lfbeam.codebook, "_GAIN_BUDGET", 3)
    for vectors, want in (
        ([e2, e2, e1, e1, e1, e2], [0, 0, 2, 2, 2, 2]),
        ([e2, e2, e2, e1, e1, e1], [0, 0, 0, 3, 3, 3]),
    ):
        idx, gain, _ = _best_codewords(
            h, one_chunk(np.stack(vectors)), [1, 2, 3, 4, 5, 6]
        )
        assert idx[:, 0, 0].tolist() == want
        assert gain[:, 0, 0].tolist() == [
            float(any(v is e1 for v in vectors[:s])) for s in range(1, 7)
        ]


# ------------------------------------------------------------- file format


def test_save_load_round_trip(tmp_path):
    cb = gen_rvq(3, 5, seed=4242)
    path = tmp_path / "book.rvq"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.dim == 3 and back.bits == 5 and back.seed == 4242
    assert np.array_equal(back.vectors, cb.vectors)


def test_file_header_layout(tmp_path):
    cb = gen_rvq(2, 1, seed=7)
    path = tmp_path / "book.rvq"
    save_codebook(cb, path)
    raw = path.read_bytes()
    dim, bits, seed = struct.unpack_from("<III", raw)
    assert (dim, bits, seed) == (2, 1, 7)
    assert len(raw) == 12 + 2 * 2 * 2 * 8
    # first payload float is the real part of vectors[0, 0]
    first = struct.unpack_from("<d", raw, 12)[0]
    assert first == cb.vectors[0, 0].real


def test_signed_zero_round_trips(tmp_path):
    """The payload is each entry's (re, im) float64 pair, and a -0.0
    imaginary part comes back as -0.0, not rebuilt as +0.0."""
    vectors = np.array([[complex(0.6, -0.0), complex(0.0, 0.8)],
                        [complex(-0.0, -0.0), complex(1.0, -0.0)]])
    cb = Codebook(vectors, bits=1, dim=2, seed=3)
    path = tmp_path / "book.rvq"
    save_codebook(cb, path)
    raw = path.read_bytes()
    assert raw[12:] == struct.pack("<8d", 0.6, -0.0, 0.0, 0.8,
                                   -0.0, -0.0, 1.0, -0.0)
    back = load_codebook(path)
    assert back.vectors.tobytes() == vectors.tobytes()
    assert np.signbit(back.vectors.imag).tolist() == [[True, False],
                                                      [True, True]]


def test_truncated_file_raises(tmp_path):
    cb = gen_rvq(2, 2, seed=1)
    path = tmp_path / "book.rvq"
    save_codebook(cb, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_codebook(path)


def test_corrupt_norms_raise(tmp_path):
    cb = gen_rvq(2, 1, seed=1)
    path = tmp_path / "book.rvq"
    save_codebook(cb, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 12, 5.0)  # blow up one component
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_codebook(path)


def test_oversized_seed_rejected_on_save(tmp_path):
    cb = Codebook(gen_rvq(2, 1, seed=1).vectors, bits=1, dim=2, seed=2**32)
    with pytest.raises(ValueError):
        save_codebook(cb, tmp_path / "book.rvq")


@pytest.mark.parametrize("vectors, bits, dim", [
    (np.eye(3, 2), 2, 2),  # 3 vectors where bits=2 needs 4
    (gen_rvq(3, 2, seed=1).vectors, 2, 2),  # dim-3 vectors labelled dim 2
    (2.0 * gen_rvq(2, 1, seed=1).vectors, 1, 2),  # not unit norm
    (np.full((2, 2), np.nan + 0j), 1, 2),
    (gen_rvq(2, 0, seed=1).vectors, -1, 2),  # bits outside the u32 field
    (gen_rvq(2, 0, seed=1).vectors, 2**32, 2),
])
def test_save_refuses_what_load_refuses(tmp_path, vectors, bits, dim):
    """A codebook that would not load back is refused before the file
    is opened, so no file is left behind."""
    path = tmp_path / "book.rvq"
    with pytest.raises(ValueError):
        save_codebook(Codebook(vectors, bits=bits, dim=dim, seed=0), path)
    assert not path.exists()
