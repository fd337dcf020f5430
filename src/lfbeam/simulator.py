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
data bits, taps, pilot noise when CSI is estimated and data noise, 256
rows each.  A trial's draws are its row of each array, the same on
every curve of one link.  Fresh codebooks come from a second stream of
the batch, ``SeedSequence([master_seed, b, 1])``, codeword-major: the
2**B codewords of all 256 trials, codeword 0 first.  Fresh-codebook
curves share each trial's codebook, each searching its own prefix.  One
loop over whole batches serves every SNR point and curve: each batch
is drawn once and scored for every (curve, SNR) pair still running,
and each pair stops on its own rule.  Draws depend on neither the pair
nor the worker count, so sweeps share common random numbers across SNR
points and curves, and results are bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import numbers
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .channel import (
    _complex_normal, ls_estimate, make_phase_shift_training, to_subcarriers,
)
from .codebook import _GAIN_BUDGET, Codebook, _best_codewords, gen_rvq
from .numerics import dominant_right_eigvec_batch
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
MAX_FEEDBACK_BITS = 20
_INT_FIELDS = ("n_t", "n_r", "n_subcarriers", "n_taps", "n_pilots",
               "target_errors", "max_bits", "master_seed")

# Trials are simulated in fixed-size batches; the stopping rule is
# checked between batches.  Fixed batches keep the set of simulated
# trials, and therefore the results, independent of the worker count.
TRIALS_PER_BATCH = 256

# SeedSequence stream key for the shared codebook in fixed-codebook
# mode; far outside any reachable batch index.
_CODEBOOK_STREAM = 2**62 + 11


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
    ``n_pilots`` phase-shift training symbols and uses the estimate for
    beam selection, combining, and feedback).  Pilot symbols carry
    power ``10**(pilot_snr_db/10)`` per antenna, defaulting to an equal
    split of the data power ``rho / n_t`` when ``pilot_snr_db`` is
    None.
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

    def validate(self) -> None:
        for key in _INT_FIELDS + ("feedback_bits",):
            value = getattr(self, key)
            if key == "feedback_bits" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.fresh_codebook, bool):
            raise ConfigError(
                f"fresh_codebook must be true or false, got "
                f"{self.fresh_codebook!r}"
            )
        if self.n_t < 1 or self.n_r < 1:
            raise ConfigError(
                f"antenna counts must be >= 1, got n_t={self.n_t} n_r={self.n_r}"
            )
        if self.n_taps < 1:
            raise ConfigError(f"n_taps must be >= 1, got {self.n_taps}")
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
            0 <= self.feedback_bits <= MAX_FEEDBACK_BITS
        ):
            raise ConfigError(
                f"feedback_bits must be in [0, {MAX_FEEDBACK_BITS}] or "
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
        if self.pilot_snr_db is not None and not np.isfinite(self.pilot_snr_db):
            raise ConfigError("pilot_snr_db must be finite")
        if len(self.snr_db_points) == 0:
            raise ConfigError("snr_db_points must not be empty")
        if not np.isfinite(self.snr_db_points).all():
            raise ConfigError("snr_db_points must be finite")
        if any(
            b <= a for a, b in zip(self.snr_db_points, self.snr_db_points[1:])
        ):
            raise ConfigError("snr_db_points must be strictly increasing")
        if self.target_errors < 1:
            raise ConfigError(
                f"target_errors must be >= 1, got {self.target_errors}"
            )
        if self.max_bits < 1:
            raise ConfigError(f"max_bits must be >= 1, got {self.max_bits}")
        if self.master_seed < 0:
            raise ConfigError(
                f"master_seed must be >= 0, got {self.master_seed}"
            )

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
        known = {f: True for f in cls.__dataclass_fields__}
        unknown = [k for k in raw if k not in known]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        kwargs = dict(raw)
        if "feedback_bits" in kwargs:
            kwargs["feedback_bits"] = _parse_feedback_bits(
                kwargs["feedback_bits"]
            )
        if "snr_db_points" in kwargs:
            try:
                kwargs["snr_db_points"] = tuple(
                    _as_float("snr_db_points entry", s)
                    for s in kwargs["snr_db_points"]
                )
            except TypeError as e:
                raise ConfigError(f"bad snr_db_points: {e}") from e
        for key in _INT_FIELDS:
            if key in kwargs:
                kwargs[key] = _as_int(key, kwargs[key])
        if kwargs.get("pilot_snr_db") is not None:
            kwargs["pilot_snr_db"] = _as_float(
                "pilot_snr_db", kwargs["pilot_snr_db"]
            )
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _as_int(key: str, value) -> int:
    """``value`` as an int; booleans and non-integral numbers are errors
    rather than being read as 0/1 or truncated."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {key}: {e}") from e


def _as_float(key: str, value) -> float:
    """``value`` as a float; booleans and strings are errors rather than
    being read as 0/1 or parsed."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {key}: {e}") from e


def _parse_feedback_bits(value) -> int | None:
    """Accept 'perfect'/None for unquantized CSI or an integer bit count."""
    if value is None or value == "perfect":
        return None
    return _as_int("feedback_bits", value)


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


def _fixed_codebook(config: SimConfig) -> Codebook | None:
    """The shared codebook used when ``fresh_codebook`` is off."""
    if config.feedback_bits is None or config.fresh_codebook:
        return None
    seed = int(
        np.random.SeedSequence(
            [config.master_seed, _CODEBOOK_STREAM]
        ).generate_state(1, dtype=np.uint32)[0]
    )
    return gen_rvq(config.n_t, config.feedback_bits, seed)


def _draw_batch(config: SimConfig, batch: int):
    """Bits, taps, pilot noise (None under perfect CSI) and data noise
    of all trials of batch ``batch``, drawn from its one stream in that
    order, one call per array."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.master_seed), batch])
    )
    t, n = TRIALS_PER_BATCH, config.n_subcarriers
    bits = rng.integers(
        0, 2, size=(t, n * config.bits_per_symbol), dtype=np.uint8
    )
    taps = _complex_normal(
        rng, (t, config.n_taps, config.n_r, config.n_t),
        np.sqrt(0.5 / config.n_taps),
    )
    pilot = (
        _complex_normal(rng, (t, n, config.n_r, config.n_pilots), np.sqrt(0.5))
        if config.csi_mode == "estimated"
        else None
    )
    noise = _complex_normal(rng, (t, n, config.n_r), np.sqrt(0.5))
    return bits, taps, pilot, noise


def _draw_block(config: SimConfig, start: int, count: int):
    """Random draws of trials [start, start+count): ``(bits, h, pilot,
    noise)`` with the taps already transformed by :func:`to_subcarriers`
    to the (T, N, n_r, n_t) subcarrier channel ``h``.

    Every batch the range touches is drawn whole (see the module
    docstring) and the range's rows are cut out, so a trial's draws
    depend only on the master seed and the trial index: not on the
    block it is simulated in, the SNR point or the curve.
    """
    first = start // TRIALS_PER_BATCH
    stop = -(-(start + count) // TRIALS_PER_BATCH)
    batches = [_draw_batch(config, b) for b in range(first, stop)]
    lo = start - first * TRIALS_PER_BATCH
    bits, taps, pilot, noise = (
        None if parts[0] is None else np.concatenate(parts)[lo : lo + count]
        for parts in zip(*batches)
    )
    return bits, to_subcarriers(taps, config.n_subcarriers), pilot, noise


def _fresh_draws(config: SimConfig, start: int, count: int, bits: int):
    """The fresh codebooks of trials [start, start+count), as a chunk
    source for :func:`_best_codewords`.

    Batch ``b`` draws the 2**bits codewords of its 256 trials from a
    stream of its own, ``SeedSequence([master_seed, b, 1])``,
    codeword-major (codeword 0 of every trial first), each as n_t
    (re, im) pairs of standard normals scaled to unit length, ``w``
    codewords at a time, yielded (count, w, n_t).  ``standard_normal``
    gives the same numbers however a draw is split into calls, so
    codeword ``j`` of a trial depends on neither ``bits`` nor ``w``,
    and ``w`` bounds the memory up to 20 bits.
    """
    t, seed = TRIALS_PER_BATCH, int(config.master_seed)
    batches = range(start // t, -(-(start + count) // t))
    rngs = [np.random.default_rng([seed, b, 1]) for b in batches]
    size = 1 << bits
    # a chunk's gains for one trial fit the gain budget, and its draws
    # for a whole batch take a quarter of it
    step = max(1, min(size, _GAIN_BUDGET // config.n_subcarriers,
                      _GAIN_BUDGET // (8 * t * config.n_t)))
    for k in range(0, size, step):
        shape = (min(step, size - k), t, config.n_t, 2)
        out = np.empty((count,) + shape[:1] + shape[2:])
        for b, rng in zip(batches, rngs):
            lo, hi = max(start, b * t), min(start + count, b * t + t)
            out[lo - start : hi - start] = rng.standard_normal(shape)[
                :, lo - b * t : hi - b * t
            ].swapaxes(0, 1)
        out /= np.sqrt(np.einsum("twij,twij->tw", out, out))[..., None, None]
        yield out.view(np.complex128)[..., 0]


def _beam_directions(
    configs: list[SimConfig],
    running: list[int],
    hr: np.ndarray,
    start: int,
    fixed_cbs: list[Codebook | None],
) -> dict[int, np.ndarray]:
    """Unit transmit directions per trial and subcarrier from receiver CSI.

    ``hr`` is (T, N, n_r, n_t), the receiver's view of trials
    [start, start+T); returns a (T, N, n_t) array for each curve in
    ``running``, and for every fresh-codebook curve when one of them is
    running.  Unquantized curves take the dominant right eigenvector,
    fixed-codebook curves their codebook's best codeword.  Fresh-codebook
    curves share one codebook per trial (:func:`_fresh_draws`) for the
    largest B of the sweep's fresh curves, running or not, so the search
    has one shape all sweep; the B-bit curve takes the best of the first
    2**B codewords.
    """
    t, n, n_r, n_t = hr.shape
    beams = {}
    for c in running:
        if configs[c].feedback_bits is None:
            v, _ = dominant_right_eigvec_batch(hr.reshape(t * n, n_r, n_t))
            beams[c] = v.reshape(t, n, n_t)
        elif not configs[c].fresh_codebook:
            _, _, beams[c] = _best_codewords(hr, fixed_cbs[c])
    fresh = [
        c for c, cfg in enumerate(configs)
        if cfg.feedback_bits is not None and cfg.fresh_codebook
    ]
    if set(fresh) & set(running):
        bits = [configs[c].feedback_bits for c in fresh]
        draws = _fresh_draws(configs[0], start, t, max(bits))
        _, _, found = _best_codewords(hr, draws, [1 << b for b in bits])
        beams.update(zip(fresh, found))
    return beams


def _receiver_links(
    configs: list[SimConfig],
    running: list[int],
    snr_db: float,
    h: np.ndarray,
    pilot: np.ndarray | None,
    noise: np.ndarray,
    start: int,
    fixed_cbs: list[Codebook | None],
):
    """The links of the curves in ``running`` at one SNR point.

    Returns ``(hr, links)``: the receiver's channel knowledge (the LS
    estimate under estimated CSI, else ``h``), shared by every curve,
    and for each running curve ``c`` the tuple ``links[c] = (beams, g,
    z, ok)``: the unit beam directions selected from ``hr``, the
    effective gains ``a^H h b`` of the true channel ``h`` and the
    combined data noise ``a^H noise`` under the unit MRC combiners ``a``
    built from ``hr``, and the mask of subcarriers whose effective
    channel ``hr_k b_k`` is nonzero (``g`` and ``z`` are 0 elsewhere).
    """
    config = configs[0]
    if config.csi_mode == "estimated":
        training = make_phase_shift_training(config.n_t, config.n_pilots)
        if config.pilot_snr_db is None:
            rho_p = 10.0 ** (snr_db / 10.0) / config.n_t
        else:
            rho_p = 10.0 ** (config.pilot_snr_db / 10.0)
        amp = np.sqrt(rho_p)
        hr = ls_estimate(amp * (h @ training.symbols) + pilot, training) / amp
    else:
        hr = h
    beams = _beam_directions(configs, running, hr, start, fixed_cbs)
    links = {}
    for c in running:
        # the combiner comes from the receiver's channel knowledge
        t_eff = np.einsum("tnij,tnj->tni", hr, beams[c])
        t_norm = np.sqrt((np.abs(t_eff) ** 2).sum(axis=2))
        ok = t_norm > 0.0
        comb = t_eff.conj() / np.where(ok, t_norm, 1.0)[:, :, None]
        comb[~ok] = 0.0
        h_b = t_eff if hr is h else np.einsum("tnij,tnj->tni", h, beams[c])
        g = np.einsum("tni,tni->tn", comb, h_b)
        links[c] = beams[c], g, np.einsum("tni,tni->tn", comb, noise), ok
    return hr, links


def _run_block(
    configs: list[SimConfig],
    active: np.ndarray,
    start: int,
    count: int,
    fixed_cbs: list[Codebook | None],
) -> np.ndarray:
    """Simulate trials [start, start+count) for the running pairs.

    ``configs`` are the curves of one link (they differ only in
    ``feedback_bits``), ``active`` masks the running (curve, SNR) pairs
    and ``fixed_cbs`` holds each curve's shared codebook.  The block is
    drawn once, and the channel is estimated, beams are selected and
    each curve's effective gains and combined noise are computed once
    for all curves (per SNR point when the pilot power follows the
    SNR); each (curve, SNR) pair then detects ``sqrt(rho) * g * x + z``.
    Returns an int64 (curves, SNR points, 3) array of bits sent, bit
    errors and null skips, zero where inactive.  All per-trial math is
    elementwise over trials, so any partition of a trial range into
    blocks gives identical totals.
    """
    config = configs[0]
    n = config.n_subcarriers
    bps = config.bits_per_symbol
    bits, h, pilot, noise = _draw_block(config, start, count)
    x = modulate(bits.reshape(-1), config.modulation).reshape(count, n)
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
                configs, running, snr_db, h, pilot, noise, start, fixed_cbs
            )
        amp = np.sqrt(10.0 ** (snr_db / 10.0))
        for c in np.flatnonzero(active[:, s]).tolist():
            _, g, z, ok = links[c]
            x_hat = amp * g * x + z
            rx_bits = demodulate(x_hat.reshape(-1), config.modulation).reshape(
                count, n * bps
            )
            errors = (rx_bits != bits) & np.repeat(ok, bps, axis=1)
            out[c, s] = ok.sum() * bps, errors.sum(), (~ok).sum()
    return out


def trial_effective_gains(
    config: SimConfig, snr_db: float, trial_index: int
) -> dict:
    """Diagnostic view of one trial's beamformed link.

    Returns a dict with the per-subcarrier effective gains ``a^H H b``
    that detection uses (``gains``), the skip mask (``ok``), the true
    and receiver-side channels, and the unit beam directions.  The
    post-combining SNR on subcarrier k is ``rho * |gains[k]|^2``.  One
    call draws the trial's whole batch, fresh codebooks included, so its
    cost grows with 256 * 2**B.
    """
    config.validate()
    _, h, pilot, noise = _draw_block(config, trial_index, 1)
    hr, links = _receiver_links(
        [config], [0], snr_db, h, pilot, noise, trial_index,
        [_fixed_codebook(config)],
    )
    beams, gains, _, ok = links[0]
    return {"gains": gains[0], "ok": ok[0], "channel": h[0],
            "rx_channel": hr[0], "beams": beams[0]}


# (configs, fixed codebooks) of the sweep this process serves: set once
# per pool worker by the initializer, so a task carries only its batch
_served: tuple = (None, None)


def _serve(configs: list[SimConfig], fixed_cbs: list[Codebook | None]):
    """Serve the sweep of ``configs`` from now on; returns the sweep
    served before."""
    global _served
    before, _served = _served, (configs, fixed_cbs)
    return before


def _run_task(active: np.ndarray, start: int, count: int) -> np.ndarray:
    configs, fixed_cbs = _served
    return _run_block(configs, active, start, count, fixed_cbs)


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
    still running; a pair stops once it has counted ``target_errors``
    bit errors or sent ``max_bits`` bits, and ``on_point(label, point)``
    is called as it does.  ``n_workers`` processes (0 picks the CPU
    count) take whole batches, up to one each per round but no more than
    the bit cap of the running pairs can still use; results are reduced
    in batch order and a pair ignores batches past its stopping point,
    so the result is identical for every worker count.  Each curve may
    appear once; a repeated curve raises :class:`ConfigError`.
    """
    configs = [replace(config, feedback_bits=bits) for bits in curves]
    for cfg in configs:
        cfg.validate()
    labels = ["perfect" if bits is None else f"rvq-b{bits}" for bits in curves]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"duplicate curves in {labels}")
    n_workers = max(1, n_workers or os.cpu_count() or 1)
    fixed_cbs = [_fixed_codebook(cfg) for cfg in configs]
    snrs = config.snr_db_points
    totals = np.zeros((len(configs), len(snrs), 3), dtype=np.int64)
    active = np.ones(totals.shape[:2], dtype=bool)
    points: dict[tuple[int, int], BerPoint] = {}
    batch_bits = (
        TRIALS_PER_BATCH * config.n_subcarriers * config.bits_per_symbol
    )
    # the serial run serves itself, so both run the same tasks
    if n_workers > 1:
        pool = multiprocessing.Pool(n_workers, _serve, (configs, fixed_cbs))
        starmap = pool.starmap
    else:
        pool, starmap = None, itertools.starmap
        before = _serve(configs, fixed_cbs)
    next_trial = 0
    try:
        while active.any():
            # null skips send fewer bits, so this is a lower bound and a
            # later round picks up any shortfall
            left = config.max_bits - totals[..., 0][active].min()
            n_batches = min(n_workers, -(-int(left) // batch_bits))
            tasks = [
                (active, next_trial + i * TRIALS_PER_BATCH, TRIALS_PER_BATCH)
                for i in range(n_batches)
            ]
            next_trial += n_batches * TRIALS_PER_BATCH
            for block in starmap(_run_task, tasks):
                totals += block
                bits_sent, bit_errors = totals[..., 0], totals[..., 1]
                done = active & (
                    (bit_errors >= config.target_errors)
                    | (bits_sent >= config.max_bits)
                )
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
        if pool is None:
            _serve(*before)
        else:
            pool.close()
            pool.join()
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
