import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbeam.beamforming import (
    SingularStackError,
    apply_power_constraint,
    zfbf_precoders,
    zfbf_sinr,
)
from lfbeam.numerics import dominant_right_eigvec_batch
from lfbeam.simulator import SimConfig, _receiver_links, trial_effective_gains


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------- MRC in the simulator's links


def perfect_link(h, noise=None):
    """The simulator's perfect-CSI link on one subcarrier of channel
    ``h``: its beam, effective gain, combined noise and skip flag."""
    h = np.asarray(h, dtype=complex)[None, None]
    if noise is None:
        noise = np.zeros(h.shape[:3], dtype=complex)
    cfg = SimConfig(n_r=h.shape[2], n_t=h.shape[3])
    _, links = _receiver_links([cfg], [0], 0.0, h, None, noise, 0, [None])
    return [part[0, 0] for part in links[0]]


QPSK22 = SimConfig(n_r=2, modulation="qpsk")


def test_mrc_identity_channel():
    noise = np.array([[[0.5 - 1j, 2j]]])
    beam, g, z, ok = perfect_link(np.eye(2), noise)
    assert np.array_equal(beam, [1.0, 0.0])
    assert g == 1.0 and z == 0.5 - 1j and ok


def test_mrc_diag_channel_gain():
    beam, g, _, ok = perfect_link(np.diag([3.0, 4.0]))
    assert np.allclose(beam, [0.0, 1.0], atol=1e-15)
    assert abs(abs(g) ** 2 - 16.0) <= 1e-12 and ok


def test_mrc_null_channel_is_skipped():
    _, g, z, ok = perfect_link(np.zeros((2, 2)), np.ones((1, 1, 2)))
    assert g == 0.0 and z == 0.0 and not ok


def test_mrc_output_is_unit_and_aligned():
    """On 2x2 QPSK with perfect CSI the gains detection uses are real,
    nonnegative and equal to ||H_k b_k||: a unit combiner aligned with
    the effective channel."""
    for idx in (0, 300):
        d = trial_effective_gains(QPSK22, 6.0, idx)
        g = d["gains"]
        h_b = np.einsum("nij,nj->ni", d["channel"], d["beams"])
        assert (np.abs(g.imag) <= 1e-12 * np.abs(g)).all()
        assert (g.real >= 0.0).all() and d["ok"].all()
        assert np.allclose(g.real, np.linalg.norm(h_b, axis=1), rtol=1e-12)


def test_mrc_beats_random_combiners(rng):
    d = trial_effective_gains(QPSK22, 6.0, 7)
    h_b = np.einsum("nij,nj->ni", d["channel"], d["beams"])
    best = np.abs(d["gains"]) ** 2
    w = random_complex(rng, (1000, 1, 2))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    other = np.abs(np.einsum("cni,ni->cn", w.conj(), h_b)) ** 2
    assert (other <= best * (1.0 + 1e-9)).all()


def test_mrc_with_dominant_beam_hits_top_eigenvalue():
    """The perfect-CSI beam makes |a^H H b|^2 the top eigenvalue of
    H^H H, as ``dominant_right_eigvec_batch`` reports it."""
    for idx in (0, 300):
        d = trial_effective_gains(QPSK22, 6.0, idx)
        _, lam = dominant_right_eigvec_batch(d["channel"])
        assert np.allclose(np.abs(d["gains"]) ** 2, lam, rtol=1e-10, atol=0)


# --------------------------------------------------- apply_power_constraint


def test_power_single_beam():
    out = apply_power_constraint(np.array([[3.0, 4.0 + 0j]]), 1.0)
    assert abs(np.linalg.norm(out[0]) ** 2 - 1.0) <= 1e-12


def test_power_uniform_split():
    beams = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0j, 0.0]],
                     dtype=complex)
    out = apply_power_constraint(beams, 2.0)
    powers = (np.abs(out) ** 2).sum(axis=1)
    assert np.allclose(powers, 0.5, atol=1e-12)
    assert abs(powers.sum() - 2.0) <= 1e-12
    # directions are preserved
    for before, after in zip(beams, out):
        cross = abs(np.vdot(before, after)) ** 2
        assert abs(cross - np.vdot(before, before).real
                   * np.vdot(after, after).real) <= 1e-9


def test_power_rejects_zero_rows():
    with pytest.raises(ValueError):
        apply_power_constraint(np.zeros((2, 2), dtype=complex), 1.0)


def test_power_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        apply_power_constraint(np.ones((1, 2), dtype=complex), 0.0)


@given(st.floats(0.01, 100.0), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_power_budget_always_met(total, n):
    rng = np.random.default_rng(n)
    beams = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    out = apply_power_constraint(beams, total)
    assert abs((np.abs(out) ** 2).sum() - total) <= 1e-9 * total


# ---------------------------------------------------------- zfbf_precoders


def test_zfbf_orthonormal_directions_pass_through():
    p = zfbf_precoders(np.eye(2, dtype=complex))
    assert np.allclose(np.abs(p.vectors), np.eye(2), atol=1e-12)


def test_zfbf_hand_case():
    """Directions (1,0) and (1,1)/sqrt(2): beams land on (1,-1)/sqrt(2)
    and (0,1) up to phase."""
    d = np.array([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]],
                 dtype=complex)
    p = zfbf_precoders(d)
    v0, v1 = p.vectors
    expect0 = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(expect0, v0)) - 1.0) <= 1e-12
    assert abs(abs(np.vdot(np.array([0.0, 1.0]), v1)) - 1.0) <= 1e-12
    # cross terms vanish
    assert abs(np.vdot(d[0], v1)) <= 1e-12
    assert abs(np.vdot(d[1], v0)) <= 1e-12


def test_zfbf_zero_forcing_invariant(rng):
    """h_i^H v_j == 0 for i != j on random direction stacks."""
    for _ in range(50):
        d = random_complex(rng, (2, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        p = zfbf_precoders(d)
        for i in range(2):
            for j in range(2):
                cross = abs(np.vdot(d[i], p.vectors[j]))
                if i == j:
                    assert cross > 1e-6
                else:
                    assert cross <= 1e-9
        assert np.allclose(np.linalg.norm(p.vectors, axis=1), 1.0, atol=1e-12)


def test_zfbf_dependent_directions_raise():
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    with pytest.raises(SingularStackError):
        zfbf_precoders(np.stack([w, w]))


def test_zfbf_rejects_non_square():
    with pytest.raises(ValueError):
        zfbf_precoders(np.ones((1, 2), dtype=complex))


# --------------------------------------------------------------- zfbf_sinr


def test_sinr_orthonormal_hand_value():
    """Two orthonormal users, total power 4: each gets SINR 2."""
    p = zfbf_precoders(np.eye(2, dtype=complex))
    h = np.array([1.0, 0.0], dtype=complex)
    assert abs(zfbf_sinr(h, p, 0, 4.0) - 2.0) <= 1e-12


def test_sinr_perfect_directions_no_interference(rng):
    for _ in range(25):
        h = random_complex(rng, (2, 2))
        d = h / np.linalg.norm(h, axis=1, keepdims=True)
        p = zfbf_precoders(d)
        for i in range(2):
            full = zfbf_sinr(h[i], p, i, 10.0)
            sig = 5.0 * abs(np.vdot(h[i], p.vectors[i])) ** 2
            # denominator is 1 + interference with interference ~ 0
            assert abs(full - sig) <= 1e-9 * max(1.0, sig)


def test_sinr_matches_transmit_chain_measurement():
    """Symbol-level measurement of signal and interference powers on a
    fixed channel agrees with the formula within Monte Carlo error."""
    rng = np.random.default_rng(5150)
    h = random_complex(rng, (2, 2))
    quantized = h / np.linalg.norm(h, axis=1, keepdims=True)
    # user 0 feeds back a slightly rotated direction: real interference
    rot = quantized.copy()
    rot[0] = (rot[0] + 0.2 * quantized[1])
    rot[0] /= np.linalg.norm(rot[0])
    p = zfbf_precoders(rot)
    total_power = 8.0
    share = np.sqrt(total_power / 2.0)
    n_sym = 200_000
    s = np.exp(2j * np.pi * rng.random((2, n_sym)))  # unit-power symbols
    tx = share * (p.vectors.T @ s)  # (2 antennas, n_sym)
    noise = (rng.standard_normal(n_sym)
             + 1j * rng.standard_normal(n_sym)) / np.sqrt(2)
    rx = h[0].conj() @ tx + noise  # user 0 hears h^H x + n
    wanted = share * (h[0].conj() @ p.vectors[0]) * s[0]
    rest = rx - wanted  # other user's beam plus noise
    measured = (np.abs(wanted) ** 2).mean() / (np.abs(rest) ** 2).mean()
    formula = zfbf_sinr(h[0], p, 0, total_power)
    assert abs(measured - formula) <= 0.02 * formula


def test_sinr_argument_validation():
    p = zfbf_precoders(np.eye(2, dtype=complex))
    h = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        zfbf_sinr(h, p, 2, 1.0)
    with pytest.raises(ValueError):
        zfbf_sinr(h, p, 0, -1.0)
