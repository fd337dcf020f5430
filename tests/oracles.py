"""Independent reference computations used to check the package.

Everything here is implemented from first principles, separately from
the package code: closed-form BER expressions for Rayleigh diversity
reception, for 2x2 max-eigenmode beamforming and for beamforming on an
LS channel estimate, a brute-force circular-convolution channel model,
a direct 2x2 Hermitian eigensolver (self-checked via its residual), and
order statistics of uniform variates.
"""

import numpy as np


def rayleigh_mrc_bpsk_ber(snr_db: float, branches: int) -> float:
    """Exact BPSK BER with maximum ratio combining of i.i.d. Rayleigh
    branches, each at average symbol SNR ``10**(snr_db/10)``.

    Uses the standard closed form: with
    ``p = (1 - sqrt(g/(1+g))) / 2``, one branch gives ``p`` and two
    branches give ``p^2 * (1 + 2*(1 - p))``.
    """
    g = 10.0 ** (snr_db / 10.0)
    p = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
    if branches == 1:
        return float(p)
    if branches == 2:
        return float(p * p * (1.0 + 2.0 * (1.0 - p)))
    raise ValueError(f"no closed form wired up for {branches} branches")


def max_eigenmode_qpsk_ber(snr_db: float) -> float:
    """Exact QPSK BER of 2x2 i.i.d. Rayleigh max-eigenmode beamforming
    (perfect CSI, MRC), at symbol SNR ``rho = 10**(snr_db/10)``.

    Each quadrature sees ``Q(sqrt(rho * lam))`` with ``lam`` the largest
    eigenvalue of ``H^H H``, whose density is
    ``e^-x (x^2 - 2x + 2) - 2 e^-2x``, so its moment generating function
    is ``M(s) = 2/(1-s)^3 - 2/(1-s)^2 + 2/(1-s) - 2/(2-s)``.  Craig's
    formula turns ``E Q(sqrt(rho * lam))`` into
    ``(1/pi) * int_0^{pi/2} M(-rho / (2 sin^2 t)) dt``, a smooth integral
    evaluated by Gauss-Legendre quadrature over ``t``.
    """
    x, w = np.polynomial.legendre.leggauss(400)
    theta = np.pi / 4.0 * (x + 1.0)  # nodes on (0, pi/2)
    a = 1.0 + 10.0 ** (snr_db / 10.0) / (2.0 * np.sin(theta) ** 2)  # 1 - s
    mgf = 2.0 / a**3 - 2.0 / a**2 + 2.0 / a - 2.0 / (a + 1.0)
    return float(w @ mgf / 4.0)  # 1/pi times the Jacobian pi/4


def estimated_mrc_bpsk_ber(snr_db: float, n_t: int, n_pilots: int) -> float:
    """Exact BPSK BER of 2x1 Rayleigh beamforming with perfect feedback
    of the LS-estimated channel, pilots at ``rho / n_t`` per antenna.

    The estimate is ``h + e`` with ``e ~ CN(0, s2 I)`` and
    ``s2 = n_t / (n_pilots * rho)``.  Given the estimate, ``h`` is
    ``CN(k * estimate, (1 - k) I)`` with ``k = 1 / (1 + s2)``; the beam
    and the combiner come from the estimate, so the link is two-branch
    MRC at the effective SNR ``rho k / (rho (1 - k) + 1)``.
    """
    rho = 10.0 ** (snr_db / 10.0)
    k = 1.0 / (1.0 + n_t / (n_pilots * rho))
    eff = rho * k / (rho * (1.0 - k) + 1.0)
    return rayleigh_mrc_bpsk_ber(10.0 * np.log10(eff), 2)


def top_eig_2x2_hermitian(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a 2x2 Hermitian
    matrix, from the characteristic polynomial.  The result is verified
    against the eigen-equation residual before being returned, so a
    wrong value cannot silently agree with the code under test."""
    g = np.asarray(g, dtype=np.complex128)
    assert g.shape == (2, 2)
    assert abs(g[0, 1] - np.conj(g[1, 0])) < 1e-12
    a = g[0, 0].real
    d = g[1, 1].real
    b = g[0, 1]
    tr = a + d
    det = a * d - (b * np.conj(b)).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    lam = tr / 2.0 + np.sqrt(disc)
    if abs(b) > 1e-300:
        v = np.array([b, lam - a], dtype=np.complex128)
    elif a >= d:
        v = np.array([1.0, 0.0], dtype=np.complex128)
    else:
        v = np.array([0.0, 1.0], dtype=np.complex128)
    v = v / np.linalg.norm(v)
    residual = np.linalg.norm(g @ v - lam * v)
    assert residual <= 1e-9 * max(1.0, abs(lam)), residual
    return float(lam), v


def top_sv_direction(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of ``a^H a`` and its eigenvector for a matrix
    with two columns."""
    a = np.asarray(a, dtype=np.complex128)
    assert a.shape[1] == 2
    return top_eig_2x2_hermitian(a.conj().T @ a)


def circular_convolve_mimo(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Time-domain circular convolution of per-antenna sequences with
    MIMO taps, written as the literal sum.

    ``x`` is (n_t, n) and ``taps`` is (L, n_r, n_t); output sample
    ``y[:, i] = sum_l taps[l] @ x[:, (i - l) mod n]``.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[1]
    n_r = taps.shape[1]
    y = np.zeros((n_r, n), dtype=np.complex128)
    for i in range(n):
        for l in range(taps.shape[0]):
            y[:, i] += taps[l] @ x[:, (i - l) % n]
    return y


def min_uniform_mean(k: int) -> float:
    """Mean of the minimum of ``k`` i.i.d. U(0,1) variates."""
    return 1.0 / (k + 1.0)


def min_uniform_var(k: int) -> float:
    """Variance of the minimum of ``k`` i.i.d. U(0,1) variates."""
    m = 1.0 / (k + 1.0)
    second = 2.0 / ((k + 1.0) * (k + 2.0))
    return second - m * m


# rvq_ber's Gauss-Legendre nodes and weights, made once
_NODES_200 = np.polynomial.legendre.leggauss(200)


def rvq_ber(link: str, snr_db: float, bits: int | None, n_t: int = 2) -> float:
    """Exact BER of a beamformed link whose transmit direction is the best
    of ``2**bits`` isotropic random codewords (``bits=None``: the exact
    dominant direction), with MRC at the receiver.

    ``link`` is "miso" (n_t x 1 BPSK), "mimo22" (2x2 QPSK, ``n_t = 2``
    only) or "estimated" (n_t x 1 BPSK whose beam and combiner come from
    an LS estimate, 4 pilots at ``rho / n_t`` per antenna).  On n_t x 1
    a unit ``w`` gives ``|h^H w|^2 = ||h||^2 U`` with ``||h||^2 ~
    Gamma(n_t, 1)`` and the alignment ``U`` independent of ``h``:
    Beta(1, n_t - 1) for an isotropic ``w``, and for the best of ``N``
    codewords the law with CDF ``G(u)^N``, ``G(u) = 1 - (1 - u)^(n_t -
    1)`` (Au-Yeung & Love, IEEE Trans. Wireless Commun. 2007); perfect
    feedback has ``U = 1``.  Given ``U`` the link gain ``X`` has the
    moment generating function ``(1 - U s)^-n_t``.  On 2x2, with ``l1
    >= l2`` the eigenvalues of ``H^H H`` and ``v1`` the top eigenvector,
    ``||H w||^2 = l2 + (l1 - l2) U`` with ``U = |v1^H w|^2``, uniform on
    (0, 1) and independent of ``H``, so ``U ~ Beta(N, 1)`` for the best
    of ``N``, and ``X`` has ``2 / (2 - s) * (1 - U s)^-3`` (``l2 ~
    Exp(rate 2)`` and ``l1 - l2 ~ Gamma(3, 1)``, independent).  The
    estimated link is the n_t x 1 one at the effective SNR of
    :func:`estimated_mrc_bpsk_ber`.  The BER ``E Q(sqrt(c X))``, with
    ``c = 2 rho`` for BPSK and ``rho`` per quadrature for QPSK, is
    ``(1/pi) int_0^{pi/2} E_U M(-c / (2 sin^2 t)) dt`` by Craig's
    formula; ``U = G^-1(q^(2/N))`` turns ``E_U`` into ``int_0^1 2q f
    dq``, and both integrals are 200-node Gauss-Legendre sums.
    """
    if link == "mimo22" and n_t != 2:
        raise ValueError(f"the mimo22 link has n_t = 2, not {n_t}")
    rho = 10.0 ** (snr_db / 10.0)
    if link == "estimated":
        k = 1.0 / (1.0 + n_t / (4.0 * rho))
        rho = rho * k / (rho * (1.0 - k) + 1.0)
    x, w = _NODES_200
    theta = np.pi / 4.0 * (x + 1.0)  # nodes on (0, pi/2), weights * pi/4
    if bits is None:
        u, wu = np.ones(1), np.ones(1)
    else:
        q = 0.5 * (x + 1.0)  # nodes on (0, 1), weights * 1/2
        p = q ** (2.0 / (1 << bits))  # G(U), with P(q^2 <= a) = a
        u = 1.0 - (1.0 - p) ** (1.0 / (n_t - 1))
        wu = w * q  # 2q dq
    c = rho if link == "mimo22" else 2.0 * rho
    s = -c / (2.0 * np.sin(theta[:, None]) ** 2)  # (theta, u)
    if link == "mimo22":
        mgf = 2.0 / (2.0 - s) / (1.0 - u * s) ** 3
    elif link in ("miso", "estimated"):
        mgf = (1.0 - u * s) ** -float(n_t)
    else:
        raise ValueError(f"unknown link {link!r}")
    return float(w @ mgf @ wu / 4.0)  # 1/pi times the Jacobian pi/4
