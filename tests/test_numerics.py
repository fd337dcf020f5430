import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbeam.beamforming import SingularStackError, zfbf_precoders
from lfbeam.numerics import dominant_right_eigvec_batch
from oracles import top_sv_direction


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def top_direction(a):
    """``(v, lam)`` of one matrix, as a batch of one."""
    v, lam = dominant_right_eigvec_batch(np.asarray(a)[None])
    return v[0], float(lam[0])


def eigh_route(mats):
    """Top eigenpair of each Gram matrix ``a^H a`` from ``np.linalg.eigh``."""
    w, vecs = np.linalg.eigh(np.einsum("nij,nik->njk", mats.conj(), mats))
    return vecs[:, :, -1], w[:, -1]


def assert_phase_convention(v):
    """Unit rows whose first nonzero entry is real and >= 0."""
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
    for row in v:
        first = row[np.flatnonzero(np.abs(row) > 0)[0]]
        assert abs(first.imag) <= 1e-12 * abs(first)
        assert first.real >= 0.0


# ------------------------------- inverse of a direction stack (zfbf_precoders)


def test_singular_matrix_raises():
    with pytest.raises(SingularStackError):
        zfbf_precoders(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))


def test_zero_pivot_raises():
    with pytest.raises(SingularStackError):
        zfbf_precoders(np.zeros((2, 2), dtype=complex))


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        zfbf_precoders(np.ones((2, 3), dtype=complex))


# ------------------------------------------- dominant_right_eigvec_batch


def test_eigvec_diagonal_case():
    a = np.diag([2.0 + 0j, 1.0 + 0j])
    v, lam = top_direction(a)
    assert abs(lam - 4.0) <= 1e-10
    assert np.allclose(v, [1.0, 0.0], atol=1e-6)


def test_eigvec_rank_one():
    """For A = u w^H the dominant right direction is w (up to phase)."""
    rng = np.random.default_rng(11)
    u = random_complex(rng, 3)
    w = random_complex(rng, 2)
    w /= np.linalg.norm(w)
    a = np.outer(u, w.conj())
    v, lam = top_direction(a)
    overlap = abs(np.vdot(w, v))
    assert abs(overlap - 1.0) <= 1e-9
    assert abs(lam - np.linalg.norm(u) ** 2) <= 1e-9 * lam


def test_eigvec_matches_closed_form(rng):
    for _ in range(50):
        a = random_complex(rng, (2, 2))
        v, lam = top_direction(a)
        lam_ref, v_ref = top_sv_direction(a)
        assert abs(lam - lam_ref) <= 1e-9 * max(1.0, lam_ref)
        assert abs(abs(np.vdot(v_ref, v)) - 1.0) <= 1e-7


def test_eigvec_is_maximizer(rng):
    """No random unit direction beats the returned one."""
    a = random_complex(rng, (2, 2))
    v, lam = top_direction(a)
    assert abs(np.linalg.norm(a @ v) ** 2 - lam) <= 1e-9 * lam
    for _ in range(1000):
        w = random_complex(rng, 2)
        w /= np.linalg.norm(w)
        assert np.linalg.norm(a @ w) ** 2 <= lam * (1.0 + 1e-9)


def test_eigvec_unit_norm_and_phase(rng):
    for shape in ((20, 3, 3), (20, 1, 3), (20, 3, 2)):
        v, _ = dominant_right_eigvec_batch(random_complex(rng, shape))
        assert_phase_convention(v)


def test_eigvec_zero_matrix_converges():
    v, lam = top_direction(np.zeros((2, 2), dtype=complex))
    assert lam == 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_batch_matches_scalar(rng):
    """Each row of a batch equals its matrix solved as a batch of one."""
    mats = random_complex(rng, (40, 2, 2))
    vb, lb = dominant_right_eigvec_batch(mats)
    for i in range(mats.shape[0]):
        v, lam = top_direction(mats[i])
        assert abs(lam - lb[i]) <= 1e-9 * max(1.0, lam)
        assert np.allclose(v, vb[i], atol=1e-8)


def test_batch_falls_back_on_degenerate_2x2():
    """Near-equal eigenvalues (ratio 1 - 1e-6) still give the true
    dominant eigenvalue."""
    mats = np.stack([
        np.diag([1.0 + 0j, np.sqrt(1.0 - 1e-6)]),
        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex),
    ])
    vb, lb = dominant_right_eigvec_batch(mats)
    assert abs(lb[0] - 1.0) <= 1e-9
    lam_ref, _ = top_sv_direction(mats[1])
    assert abs(lb[1] - lam_ref) <= 1e-9 * lam_ref
    assert np.allclose(np.linalg.norm(vb, axis=1), 1.0, atol=1e-12)


def test_single_row_closed_form_matches_eigh_route(rng):
    """A 1 x n_t row and the same row padded with a zero row (which
    takes the eigh route for n_t = 4 and the two-column closed form for
    n_t = 2) give the same direction and gain."""
    for n_t in (4, 2):
        rows = random_complex(rng, (200, 1, n_t))
        rows[3] = 0.0
        padded = np.concatenate([rows, np.zeros_like(rows)], axis=1)
        v1, lam1 = dominant_right_eigvec_batch(rows)
        v2, lam2 = dominant_right_eigvec_batch(padded)
        live = np.arange(rows.shape[0]) != 3
        assert np.abs(v1[live] - v2[live]).max() <= 1e-12
        assert np.abs(lam1 - lam2).max() <= 1e-12
        assert lam1[3] == 0.0 and np.array_equal(v1[3], np.eye(n_t)[0])
    assert np.array_equal(v2[3], [1, 0])  # the closed form's zero case


@pytest.mark.parametrize("n_r", [2, 3, 4])
def test_two_column_closed_form_matches_eigh_route(rng, n_r):
    """The closed form for (n, n_r, 2) stacks gives the eigh route's
    direction up to phase and its eigenvalue, with the phase
    convention."""
    mats = random_complex(rng, (500, n_r, 2))
    mats[:50, :, 0] *= 1e-3  # a weak column on either side: |g12| << |half|
    mats[50:100, :, 1] *= 1e-3
    v, lam = dominant_right_eigvec_batch(mats)
    v_ref, lam_ref = eigh_route(mats)
    overlap = np.abs(np.einsum("ni,ni->n", v.conj(), v_ref))
    assert np.abs(overlap - 1.0).max() <= 1e-12
    assert np.abs(lam / lam_ref - 1.0).max() <= 1e-12
    assert_phase_convention(v)


@pytest.mark.parametrize(
    "a, v_want, lam_want",
    [
        (np.zeros((2, 2)), [1, 0], 0.0),  # zero Gram
        (np.eye(2), [1, 0], 1.0),  # g I: every direction is dominant
        (3.0 * np.eye(3)[:, :2], [1, 0], 9.0),
        (np.diag([1.0, 2.0]), [0, 1], 4.0),  # g12 = 0, g11 < g22
        (np.array([[0.0, 2.0j], [1.0, 0.0]]), [0, 1], 4.0),
        (np.diag([2.0, 1.0]), [1, 0], 4.0),  # g12 = 0, g11 > g22
    ],
    ids=["zero", "identity", "scaled-identity-3-rows", "diag-rising",
         "orthogonal-columns-rising", "diag-falling"],
)
def test_two_column_closed_form_edge_cases(a, v_want, lam_want):
    v, lam = top_direction(np.asarray(a, dtype=complex))
    assert np.array_equal(v, v_want)
    assert lam == lam_want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_eigvec_gain_bounds_random_directions(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, (2, 2))
    v, lam = top_direction(a)
    w = random_complex(rng, 2)
    w /= np.linalg.norm(w)
    assert np.linalg.norm(a @ w) ** 2 <= lam * (1.0 + 1e-9)
