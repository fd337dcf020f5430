"""Monte Carlo BER sweeps for beamformed MIMO-OFDM links.

One trial is one OFDM channel realization: draw taps, take the
per-subcarrier DFT view, pick a transmit beam per subcarrier from the
receiver's channel knowledge (dominant eigenvector, or the best
codeword of a random codebook when feedback is limited to B bits),
combine with MRC, and count bit errors on one OFDM data symbol.

Power bookkeeping: noise ``n_k`` is unit variance per receive antenna
and each subcarrier's beam carries power ``rho = 10**(snr_db/10)``, so
``snr_db`` is the per-subcarrier transmit SNR.  With a unit direction
``b_k`` and the unit MRC combiner ``a_k`` the receiver picks from its
channel knowledge, the detector sees ``sqrt(rho) * g_k * x_k + z_k``:
the effective gain ``g_k = a_k^H H_k b_k`` of the true channel and the
combined noise ``z_k = a_k^H n_k``, unit variance.  The post-combining
SNR on subcarrier k is ``rho * |g_k|^2``, which is ``rho * ||H_k b_k||^2``
under perfect CSI.  ``g`` and ``z`` do not depend on ``rho``, so they
are computed once per block, or once per SNR point when the pilot
power follows the SNR.

Reproducibility: trials come in fixed batches of 256, and batch ``b``
(trials ``256*b`` to ``256*b + 255``) draws from one stream,
``SeedSequence([master_seed, b])``, one call per array in a fixed order:
data bits, taps, the unit LS estimation error when CSI is estimated and
data noise, 256 rows each.  A trial's draws are its row of each array,
the same on every curve of one link.  The quantized curves of a sweep
share one codebook per trial, made once per block for the largest B
among them, and the B-bit curve searches its first 2**B codewords.  One
routine, ``codebook._draw_codewords``, draws every codebook
codeword-major: the fresh ones of a batch's 256 trials from a second
stream of the batch, ``SeedSequence([master_seed, b, 1])``, codeword 0
of every trial first, and a fixed one, shared by every trial, as its
one-group case, the seeded :func:`gen_rvq` codebook.  Smaller codebooks
are prefixes either way.  One loop over whole batches serves every SNR
point and curve: each batch is drawn once and scored for every (curve,
SNR) pair still running, and each pair stops on its own rule.  A block
is one batch and depends on the curves' configs, the running pairs and
the batch index alone.  Draws depend on neither the pair nor the worker
count, so sweeps share common random numbers across SNR points and
curves, and results are bit-identical for any worker count.
"""

from __future__ import annotations

import collections
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .channel import _complex_normal, to_subcarriers
from .channel import ls_estimate  # noqa: F401 (perfbench traces it here)
from .codebook import MAX_BITS, _best_codewords, _draw_codewords
from .codebook import gen_rvq  # noqa: F401 (perfbench traces it here)
from .numerics import _sum_rows, dominant_right_eigvec_batch
from .beamforming import apply_power_constraint  # noqa: F401 (perfbench traces it here)

__all__ = [
    "ConfigError",
    "OddBitCountError",
    "SimConfig",
    "BerPoint",
    "BerCurve",
    "modulate",
    "demodulate",
    "run_sweep",
    "run_sweeps",
    "trial_effective_gains",
    "snr_at_ber",
    "write_curve_csv",
    "TRIALS_PER_BATCH",
]

MODULATIONS = ("bpsk", "qpsk")
CSI_MODES = ("perfect", "estimated")
# integer fields and their least values (None: bounded by other fields)
_INT_FIELDS = {"n_t": 1, "n_r": 1, "n_subcarriers": None, "n_taps": 1,
               "n_pilots": None, "target_errors": 1, "max_bits": 1,
               "master_seed": 0}

# Trials are simulated in fixed-size batches; the stopping rule is
# checked between batches.  Fixed batches keep the set of simulated
# trials, and therefore the results, independent of the worker count.
TRIALS_PER_BATCH = 256

# SeedSequence stream key for the shared codebook in fixed-codebook
# mode; far outside any reachable batch index.
_CODEBOOK_STREAM = 2**62 + 11

# Prime glibc's malloc: freeing one untouched 16 MB mapping raises its
# mmap threshold to 16 MB and its trim threshold to 32 MB (mallopt(3)),
# so a block's temporaries are reused on the heap instead of being
# mapped, faulted in and handed back every block.  Forked workers
# inherit the state; the array adds no resident memory.
np.empty(1 << 21)


class ConfigError(ValueError):
    """Simulation configuration is malformed or out of range."""


class OddBitCountError(ValueError):
    """QPSK needs an even number of bits."""


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated link.

    ``feedback_bits is None`` means the transmitter gets the receiver's
    channel knowledge exactly (unquantized beamforming); an integer B
    means the receiver feeds back one index into a 2**B-word random
    codebook.  With ``fresh_codebook`` a new codebook is drawn per
    trial (the ensemble average); otherwise one seeded codebook is
    shared by all trials.

    ``csi_mode`` is "perfect" (receiver knows each subcarrier channel
    exactly) or "estimated" (receiver least-squares-estimates it from
    ``n_pilots`` orthogonal training symbols and uses the estimate for
    beam selection, combining, and feedback).  Pilot symbols carry
    power ``rho_p = 10**(pilot_snr_db/10)`` per antenna, defaulting to
    an equal split of the data power ``rho / n_t`` when ``pilot_snr_db``
    is None.  ``n_pilots`` sets only the variance of the estimate's error,
    i.i.d. CN(0, 1/(n_pilots * rho_p)), which the simulator draws.
    """

    n_t: int = 2
    n_r: int = 1
    n_subcarriers: int = 64
    n_taps: int = 4
    modulation: str = "bpsk"
    feedback_bits: int | None = None
    fresh_codebook: bool = True
    csi_mode: str = "perfect"
    n_pilots: int = 4
    pilot_snr_db: float | None = None
    snr_db_points: tuple[float, ...] = tuple(float(s) for s in range(0, 21, 2))
    target_errors: int = 200
    max_bits: int = 10_000_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        """Read each field the way a config file is read (``4.0`` as 4,
        ``"perfect"`` as None, a list of SNRs as a tuple of floats), then
        check every range: a ``SimConfig`` that exists is a valid one."""
        def put(key, value):
            object.__setattr__(self, key, value)

        for key, least in _INT_FIELDS.items():
            value = _as_int(key, getattr(self, key))
            if least is not None and value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
            put(key, value)
        bits = self.feedback_bits
        if isinstance(bits, str) and bits == "perfect":
            put("feedback_bits", None)
        elif bits is not None:
            put("feedback_bits", _as_int("feedback_bits", bits))
        try:
            put("snr_db_points", tuple(
                _as_float("snr_db_points entry", s) for s in self.snr_db_points
            ))
        except TypeError as e:
            raise ConfigError(f"bad snr_db_points: {e}") from e
        if self.pilot_snr_db is not None:
            put("pilot_snr_db", _as_float("pilot_snr_db", self.pilot_snr_db))
        if not isinstance(self.fresh_codebook, bool):
            raise ConfigError(
                f"fresh_codebook must be true or false, got "
                f"{self.fresh_codebook!r}"
            )
        if self.n_subcarriers < self.n_taps:
            raise ConfigError(
                f"n_subcarriers={self.n_subcarriers} must be >= "
                f"n_taps={self.n_taps}"
            )
        if self.modulation not in MODULATIONS:
            raise ConfigError(
                f"modulation must be one of {MODULATIONS}, got "
                f"{self.modulation!r}"
            )
        if self.feedback_bits is not None and not (
            0 <= self.feedback_bits <= MAX_BITS
        ):
            raise ConfigError(
                f"feedback_bits must be in [0, {MAX_BITS}] or "
                f"'perfect', got {self.feedback_bits}"
            )
        if self.csi_mode not in CSI_MODES:
            raise ConfigError(
                f"csi_mode must be one of {CSI_MODES}, got {self.csi_mode!r}"
            )
        if self.csi_mode == "estimated" and self.n_pilots < self.n_t:
            raise ConfigError(
                f"n_pilots={self.n_pilots} must be >= n_t={self.n_t} "
                "for estimated CSI"
            )
        if len(self.snr_db_points) == 0:
            raise ConfigError("snr_db_points must not be empty")
        if any(
            b <= a for a, b in zip(self.snr_db_points, self.snr_db_points[1:])
        ):
            raise ConfigError("snr_db_points must be strictly increasing")
        # beyond +-1000 dB, 10**(snr_db/10) overflows mid-run, or a pilot
        # power (rho / n_t by default) so small that the LS estimate
        # overflows null-skips every subcarrier and no bit is ever sent
        for key in ("snr_db_points", "pilot_snr_db"):
            db = getattr(self, key)
            if db is not None and not (np.abs(db) <= 1000.0).all():
                raise ConfigError(f"{key} must be finite and within +-1000 dB")

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self.modulation == "qpsk" else 1

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.feedback_bits is None:
            out["feedback_bits"] = "perfect"
        out["snr_db_points"] = list(self.snr_db_points)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        unknown = [k for k in raw if k not in cls.__dataclass_fields__]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**raw)


def _as_int(key: str, value) -> int:
    """``value`` as an int: a number equal to its ``int()`` (an int, a
    numpy integer, ``4.0``) is read; booleans (numpy's too), strings and
    every value whose ``int()`` differs (``Fraction(5, 2)``,
    ``Decimal("2.5")``, ``np.float32(2.7)``, inf, NaN) are errors rather
    than being read as 0/1, parsed or truncated."""
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _as_float(key: str, value) -> float:
    """``value`` as a float; booleans (numpy's too) and strings are errors
    rather than being read as 0/1 or parsed."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {key}: {e}") from e


@dataclass(frozen=True)
class BerPoint:
    """One SNR point of a BER curve.

    ``converged`` records whether the error target was met before the
    bit budget ran out; ``half_width_95`` is the normal-approximation
    95% confidence half-width of ``ber``.
    """

    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    half_width_95: float
    converged: bool
    null_skips: int


@dataclass(frozen=True)
class BerCurve:
    """BER points of one config over its SNR grid, in grid order."""

    label: str
    config: SimConfig
    points: tuple[BerPoint, ...]

    def to_csv_text(self) -> str:
        lines = ["snr_db,bits,errors,ber,ci95"]
        for p in self.points:
            lines.append(
                f"{p.snr_db:.10g},{p.bits_sent},{p.bit_errors},"
                f"{p.ber:.12g},{p.half_width_95:.12g}"
            )
        return "\n".join(lines) + "\n"


def modulate(bits: np.ndarray, scheme: str) -> np.ndarray:
    """Map bits to unit-energy symbols.

    BPSK maps bit b to ``1 - 2b``.  QPSK maps bit pairs Gray-coded per
    quadrature: the first bit sets the sign of the real part, the
    second the sign of the imaginary part, scaled by 1/sqrt(2).
    """
    bits = np.asarray(bits)
    if scheme == "bpsk":
        return (1.0 - 2.0 * bits).astype(np.complex128)
    if scheme == "qpsk":
        if bits.ndim != 1:
            bits = bits.reshape(-1)
        if bits.shape[0] % 2:
            raise OddBitCountError(
                f"qpsk needs an even bit count, got {bits.shape[0]}"
            )
        re = 1.0 - 2.0 * bits[0::2]
        im = 1.0 - 2.0 * bits[1::2]
        return (re + 1j * im) / np.sqrt(2.0)
    raise ValueError(f"unknown modulation {scheme!r}")


def demodulate(symbols: np.ndarray, scheme: str) -> np.ndarray:
    """Hard decisions back to bits; exact inverse of noiseless modulate."""
    symbols = np.asarray(symbols)
    if scheme == "bpsk":
        return (symbols.real < 0.0).astype(np.uint8)
    if scheme == "qpsk":
        flat = symbols.reshape(-1)
        out = np.empty(2 * flat.shape[0], dtype=np.uint8)
        out[0::2] = flat.real < 0.0
        out[1::2] = flat.imag < 0.0
        return out
    raise ValueError(f"unknown modulation {scheme!r}")


def _codebook_seed(config: SimConfig) -> int:
    """Seed of the codebook shared by every trial when
    ``fresh_codebook`` is off; it does not depend on the bits."""
    return int(
        np.random.SeedSequence(
            [config.master_seed, _CODEBOOK_STREAM]
        ).generate_state(1, dtype=np.uint32)[0]
    )


def _draw_batch(config: SimConfig, batch: int):
    """Bits, subcarrier channel ``h`` (:func:`to_subcarriers` of the
    taps), unit LS estimation error ``e`` (None under perfect CSI; the
    error's law is i.i.d. CN(0, 1), see :func:`ls_estimate`) and data
    noise of the trials of batch ``batch``, drawn from its one stream in
    the order bits, taps, ``e``, data noise, one call per array."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, batch])
    )
    t, n = TRIALS_PER_BATCH, config.n_subcarriers
    bits = rng.integers(
        0, 2, size=(t, n * config.bits_per_symbol), dtype=np.uint8
    )
    taps = _complex_normal(
        rng, (t, config.n_taps, config.n_r, config.n_t),
        np.sqrt(0.5 / config.n_taps),
    )
    e = None
    if config.csi_mode == "estimated":
        e = _complex_normal(rng, (t, n, config.n_r, config.n_t), np.sqrt(0.5))
    noise = _complex_normal(rng, (t, n, config.n_r), np.sqrt(0.5))
    return bits, to_subcarriers(taps, n), e, noise


def _beam_directions(
    configs: list[SimConfig],
    running: list[int],
    hr: np.ndarray,
    batch: int,
) -> dict[int, np.ndarray]:
    """Unit transmit directions per trial and subcarrier from receiver CSI.

    ``hr`` is (256, N, n_r, n_t), the receiver's view of batch
    ``batch``; returns a (256, N, n_t) array for each curve in
    ``running``, and for every quantized curve when one of them is
    running.  Unquantized curves take the dominant right eigenvector.
    Quantized curves share one codebook per trial for the largest B of
    the sweep's quantized curves, running or not, so the search has one
    shape all sweep: one per trial from the batch's stream
    ``SeedSequence([master_seed, batch, 1])`` when codebooks are fresh,
    else one that every trial shares, from :func:`_codebook_seed`, drawn
    here once per block by :func:`_draw_codewords`.  The B-bit curve
    takes the best of the first 2**B codewords.
    """
    t, n, n_r, n_t = hr.shape
    beams = {}
    for c in running:
        if configs[c].feedback_bits is None:
            v, _ = dominant_right_eigvec_batch(hr.reshape(t * n, n_r, n_t))
            beams[c] = v.reshape(t, n, n_t)
    quantized = [
        c for c, cfg in enumerate(configs) if cfg.feedback_bits is not None
    ]
    if set(quantized) & set(running):
        bits = [configs[c].feedback_bits for c in quantized]
        if configs[0].fresh_codebook:
            seed, groups = [configs[0].master_seed, batch, 1], t
        else:
            seed, groups = _codebook_seed(configs[0]), 1
        chunks = _draw_codewords(
            np.random.default_rng(seed), 1 << max(bits), groups, n_t
        )
        _, _, found = _best_codewords(hr, chunks, [1 << b for b in bits])
        beams.update(zip(quantized, found))
    return beams


def _receiver_links(
    configs: list[SimConfig],
    running: list[int],
    snr_db: float,
    h: np.ndarray,
    e: np.ndarray | None,
    noise: np.ndarray,
    batch: int,
):
    """The links of the curves in ``running`` at one SNR point.

    Returns ``(hr, links)``: the receiver's channel knowledge (the LS
    estimate ``h + e / sqrt(n_pilots * rho_p)`` at pilot power ``rho_p``
    under estimated CSI, else ``h``), shared by every curve, and for each
    running curve ``c`` the tuple ``links[c] = (beams, g, z, ok)``: the
    unit beam directions selected from ``hr``, the effective gains
    ``a^H h b`` of the true channel ``h`` and the combined data noise
    ``a^H noise`` under the unit MRC combiners ``a`` built from ``hr``,
    and the mask of subcarriers whose effective channel ``hr_k b_k`` is
    nonzero (``g`` and ``z`` are 0 elsewhere).
    Under perfect CSI ``a`` is ``conj(h b) / ||h b||``, so ``g`` is the
    norm ``||h b||`` that scales the combiner, a real gain.
    """
    config = configs[0]
    if config.csi_mode == "estimated":
        if config.pilot_snr_db is None:
            rho_p = 10.0 ** (snr_db / 10.0) / config.n_t
        else:
            rho_p = 10.0 ** (config.pilot_snr_db / 10.0)
        hr = e * (1.0 / np.sqrt(config.n_pilots * rho_p))
        hr += h
    else:
        hr = h
    beams = _beam_directions(configs, running, hr, batch)
    t, n = h.shape[:2]
    links = {}
    for c in running:
        # the combiner comes from the receiver's channel knowledge
        t_eff = np.einsum("tnij,tnj->tni", hr, beams[c])
        t_norm = np.sqrt(_sum_rows(np.abs(t_eff).reshape(t * n, -1) ** 2))
        t_norm = t_norm.reshape(t, n)
        ok = t_norm > 0.0
        comb = t_eff.conj() / np.where(ok, t_norm, 1.0)[:, :, None]
        if not ok.all():
            comb[~ok] = 0.0
        if hr is h:
            # a^H h b = ||h b||
            g = t_norm.astype(np.complex128)
        else:
            g = np.einsum("tni,tni->tn", comb,
                          np.einsum("tnij,tnj->tni", h, beams[c]))
        links[c] = beams[c], g, np.einsum("tni,tni->tn", comb, noise), ok
    return hr, links


def _run_block(
    configs: list[SimConfig], active: np.ndarray, batch: int
) -> np.ndarray:
    """Simulate the 256 trials of batch ``batch`` for the running pairs.

    ``configs`` are the curves of one link (they differ only in
    ``feedback_bits``) and ``active`` masks the running (curve, SNR)
    pairs.  The result depends on these three arguments alone, so any
    process can run any batch.  The batch is drawn once, and the channel
    is estimated, beams are selected and each curve's effective gains
    and combined noise are computed once for all curves (per SNR point
    when the pilot power follows the SNR); each (curve, SNR) pair then
    detects ``sqrt(rho) * g * x + z`` in one buffer, reads each bit as
    the sign of the real or imaginary part of its symbol (the hard
    decisions of :func:`demodulate`) and counts its errors on the
    subcarriers that are not null-skipped.  Returns an int64 (curves,
    SNR points, 3) array of bits sent, bit errors and null skips, zero
    where inactive.
    """
    config = configs[0]
    n = config.n_subcarriers
    bps = config.bits_per_symbol
    bits, h, e, noise = _draw_batch(config, batch)
    x = modulate(bits.reshape(-1), config.modulation).reshape(-1, n)
    # bit b of symbol k, as the sign of part b of its float64 view reads it
    sent = bits.view(bool).reshape(-1, n, bps)
    per_snr = config.csi_mode == "estimated" and config.pilot_snr_db is None
    out = np.zeros(active.shape + (3,), dtype=np.int64)
    links = None
    for s, snr_db in enumerate(config.snr_db_points):
        if not active[:, s].any():
            continue
        if links is None or per_snr:
            running = np.flatnonzero(
                active[:, s] if per_snr else active.any(axis=1)
            ).tolist()
            _, links = _receiver_links(
                configs, running, snr_db, h, e, noise, batch
            )
        amp = np.sqrt(10.0 ** (snr_db / 10.0))
        for c in np.flatnonzero(active[:, s]).tolist():
            _, g, z, ok = links[c]
            y = amp * g
            y *= x
            y += z
            # hard decisions: the real part, then the imaginary part for
            # QPSK, is negative for a 1
            errors = y.view(np.float64).reshape(-1, n, 2)[..., :bps] < 0.0
            errors ^= sent
            errors &= ok[..., None]
            kept = np.count_nonzero(ok)
            out[c, s] = kept * bps, np.count_nonzero(errors), ok.size - kept
    return out


def trial_effective_gains(
    config: SimConfig, snr_db: float, trial_index: int
) -> dict:
    """Diagnostic view of one trial's beamformed link.

    Returns a dict with the per-subcarrier effective gains ``a^H H b``
    that detection uses (``gains``), the skip mask (``ok``), the true
    and receiver-side channels, and the unit beam directions.  The
    post-combining SNR on subcarrier k is ``rho * |gains[k]|^2``.  One
    call runs the receiver side of the trial's whole batch, fresh
    codebooks included, and returns the trial's row, so its cost grows
    with 256 * 2**B.  An ``snr_db`` that a config would refuse, or a
    ``trial_index`` that is not a count, raises :class:`ConfigError`.
    """
    # snr_db is read and checked as a config's SNR point is
    config = replace(config, snr_db_points=(snr_db,))
    batch, row = divmod(_as_int("trial_index", trial_index), TRIALS_PER_BATCH)
    if batch < 0:
        raise ConfigError(f"trial_index must be >= 0, got {trial_index}")
    _, h, e, noise = _draw_batch(config, batch)
    hr, links = _receiver_links(
        [config], [0], config.snr_db_points[0], h, e, noise, batch
    )
    beams, gains, _, ok = links[0]
    return {"gains": gains[row], "ok": ok[row], "channel": h[row],
            "rx_channel": hr[row], "beams": beams[row]}


def _sweep_curves(config: SimConfig, curves: list) -> tuple[list, list]:
    """The config and label of each curve of ``curves``: ``config`` with
    that ``feedback_bits``, read and checked as a config is.  Each curve
    may appear once; a repeated curve raises :class:`ConfigError`."""
    configs = [replace(config, feedback_bits=bits) for bits in curves]
    labels = ["perfect" if c.feedback_bits is None
              else f"rvq-b{c.feedback_bits}" for c in configs]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"duplicate curves in {labels}")
    return configs, labels


def run_sweeps(
    config: SimConfig,
    curves: list[int | None],
    n_workers: int = 1,
    on_point: Callable[[str, BerPoint], None] | None = None,
) -> list[BerCurve]:
    """Run one BER curve per feedback budget in ``curves`` (None for
    unquantized CSI) over the SNR grid of ``config``.

    Trials run in fixed batches of ``TRIALS_PER_BATCH`` from trial 0.
    Each batch is drawn once and scored for every (curve, SNR) pair
    still running.  A batch spends ``256 * N * bits_per_symbol`` bits of
    every pair it scores, sent or null-skipped, and a running pair has
    been scored on every batch reduced so far, so the bit cap is a batch
    count: a pair stops once it has counted ``target_errors`` bit errors
    or ``ceil(max_bits / batch_bits)`` batches have been reduced, and
    ``on_point(label, point)`` is called as it does.  ``n_workers``
    processes (0 picks the CPU count; a negative or non-integer count
    raises :class:`ConfigError`) take whole batches, up to
    ``2 * n_workers`` in flight and topped up as each result comes back
    (one at a time in this process for one worker), but none past the
    cap.  A batch carries the running pairs as they stood when it was
    sent, and pairs only stop; results are reduced in batch order and a
    pair ignores batches past its stopping point, so the result is
    identical for every worker count.  An error, a worker's own or the
    ``BrokenProcessPool`` of a worker that died, is raised at once and
    stops the workers without waiting for the batches in flight.  Each
    curve may appear once; a repeated curve raises :class:`ConfigError`.
    """
    configs, labels = _sweep_curves(config, curves)
    n_workers = _as_int("n_workers", n_workers)
    if n_workers < 0:
        raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
    n_workers = n_workers or os.cpu_count() or 1
    snrs = config.snr_db_points
    totals = np.zeros((len(configs), len(snrs), 3), dtype=np.int64)
    active = np.ones(totals.shape[:2], dtype=bool)
    points: dict[tuple[int, int], BerPoint] = {}
    cap = -(-config.max_bits // (TRIALS_PER_BATCH * config.n_subcarriers
                                 * config.bits_per_symbol))  # in batches
    pool = None
    if n_workers > 1:  # imported here: one worker needs neither it nor logging
        import concurrent.futures
        pool = concurrent.futures.ProcessPoolExecutor(n_workers)
    window = 2 * n_workers if pool is not None else 1

    def submit(task):
        if pool is None:
            return lambda: _run_block(*task)
        return pool.submit(_run_block, *task).result

    in_flight = collections.deque()
    next_batch = reduced = 0
    try:
        while active.any():
            while next_batch < min(reduced + window, cap):
                in_flight.append(submit((configs, active, next_batch)))
                next_batch += 1
            # reduced in batch order, whichever worker finishes first
            totals += in_flight.popleft()()
            reduced += 1
            done = active & (
                (totals[..., 1] >= config.target_errors) | (reduced >= cap)
            )
            # a new array: the batches in flight keep the mask they
            # were sent with
            active = active & ~done
            for c, s in zip(*np.nonzero(done)):
                b, e, skips = totals[c, s].tolist()
                ber = e / b if b else 0.0
                half = 1.96 * np.sqrt(ber * (1.0 - ber) / b) if b else 0.0
                points[c, s] = BerPoint(
                    snr_db=float(snrs[s]),
                    bits_sent=b,
                    bit_errors=e,
                    ber=ber,
                    half_width_95=float(half),
                    converged=e >= config.target_errors,
                    null_skips=skips,
                )
                if on_point is not None:
                    on_point(labels[c], points[c, s])
    finally:
        if pool is not None:
            # shutdown() waits for running batches; Python 3.11 has no
            # terminate_workers(), so stop them via private ``_processes``
            for proc in list(pool._processes.values()):
                proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
    return [
        BerCurve(labels[c], cfg, tuple(points[c, s] for s in range(len(snrs))))
        for c, cfg in enumerate(configs)
    ]


def run_sweep(config: SimConfig, n_workers: int = 1) -> BerCurve:
    """The BER curve of ``config`` alone, through :func:`run_sweeps`."""
    return run_sweeps(config, [config.feedback_bits], n_workers)[0]


def snr_at_ber(curve: BerCurve, target: float) -> float | None:
    """SNR (dB) where the curve crosses ``target``, or None.

    Scans adjacent point pairs for the first bracket
    ``ber[i] >= target >= ber[i+1]`` and interpolates the SNR linearly
    in log10(ber).  Pairs containing a zero BER cannot be interpolated
    on a log scale and are skipped.
    """
    pts = curve.points
    for a, b in zip(pts, pts[1:]):
        if a.ber >= target >= b.ber:
            if a.ber == target:
                return a.snr_db
            if b.ber == target:
                return b.snr_db
            if a.ber <= 0.0 or b.ber <= 0.0 or a.ber == b.ber:
                continue
            la, lb, lt = np.log10(a.ber), np.log10(b.ber), np.log10(target)
            return float(a.snr_db + (b.snr_db - a.snr_db) * (lt - la) / (lb - la))
    return None


def write_curve_csv(curve: BerCurve, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(curve.to_csv_text())
