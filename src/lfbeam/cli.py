"""Command line front end for BER sweep experiments.

Configuration precedence, lowest to highest: built-in defaults, preset,
JSON config file, command line flags.  Each run writes one CSV per
curve plus a ``manifest.json`` that can be fed back via ``--config`` to
reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .simulator import (  # noqa: F401 (run_sweep: perfbench traces it here)
    BerCurve,
    ConfigError,
    SimConfig,
    _sweep_curves,
    run_sweep,
    run_sweeps,
    snr_at_ber,
    write_curve_csv,
)

__all__ = ["PRESETS", "parse_config", "run_experiment", "main"]

GAP_TARGET_BER = 1e-3

PRESETS: dict[str, dict] = {
    # 2x1 downlink, BPSK, perfect receiver CSI
    "fig2-miso": {"n_t": 2, "n_r": 1},
    # 2x2 downlink, QPSK, perfect receiver CSI
    "fig3-mimo22": {"n_t": 2, "n_r": 2, "modulation": "qpsk"},
    # 2x1 downlink with least-squares channel estimation at the receiver
    "fig4-estimated": {"n_t": 2, "n_r": 1, "csi_mode": "estimated"},
}

# curve sets run when --feedback-bits is absent
_DEFAULT_CURVES: dict[str | None, list[int | None]] = {
    None: [None, 4],
    "fig2-miso": [None, 1, 2, 4, 8],
    "fig3-mimo22": [None, 1, 2, 4, 8],
    "fig4-estimated": [None, 4],
}


def _parse_curve_list(raw) -> list:
    """The ``feedback_bits`` of each curve entry, a scalar or a
    {'feedback_bits': ...} dict; :func:`parse_config` reads and checks
    them."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("curves must be a non-empty list")
    out = []
    for entry in raw:
        if isinstance(entry, dict):
            if "feedback_bits" not in entry:
                raise ConfigError(f"curve entry missing feedback_bits: {entry}")
            entry = entry["feedback_bits"]
        out.append(entry)
    return out


def _parse_bits_flag(text: str) -> list[int | None]:
    """``--feedback-bits``: comma-separated ``perfect`` or integers."""
    out = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(None if tok == "perfect" else int(tok))
        except ValueError as e:
            raise ConfigError(f"bad --feedback-bits entry {tok!r}") from e
    return _parse_curve_list(out)


def _parse_snr_flag(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as e:
        raise ConfigError(f"bad --snr list: {e}") from e


def parse_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> tuple[SimConfig, list[int | None]]:
    """Merge preset, config file, and flag overrides into a validated
    config plus the list of curves (feedback bit counts, None for
    unquantized) to run: an explicit ``curves`` list, else the one
    ``feedback_bits`` of the file or the overrides, else the preset's
    default curves."""
    raw: dict = {}
    curves: list[int | None] | None = None
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        raw.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        if "config" in doc:  # a manifest from a previous run
            body = doc["config"]
            if not isinstance(body, dict):
                raise ConfigError("manifest 'config' must be an object")
            if doc.get("curves") is not None:
                curves = _parse_curve_list(doc["curves"])
        else:
            body = dict(doc)
            if "curves" in body:
                curves = _parse_curve_list(body.pop("curves"))
        raw.update(body)
    if overrides:
        o = dict(overrides)
        if "curves" in o:
            curves = _parse_curve_list(o.pop("curves"))
        raw.update({k: v for k, v in o.items() if v is not None})
    config = SimConfig.from_dict(raw)
    if curves is None and "feedback_bits" in raw:  # never from a preset
        curves = [config.feedback_bits]
    elif curves is None:
        curves = list(_DEFAULT_CURVES.get(preset, _DEFAULT_CURVES[None]))
    # each curve read and checked, and none repeated, before any run starts
    return config, [c.feedback_bits for c in _sweep_curves(config, curves)[0]]


def run_experiment(
    config: SimConfig,
    curves: list[int | None],
    out_dir: str,
    n_workers: int = 1,
    stream=None,
) -> list[BerCurve]:
    """Run every curve, write CSVs and a manifest, print a summary."""
    stream = stream if stream is not None else sys.stdout
    os.makedirs(out_dir, exist_ok=True)

    def show(label, point):
        flag = "" if point.converged else "  (low confidence)"
        print(
            f"{label:<8} snr {point.snr_db:6.2f} dB   ber {point.ber:.6g}   "
            f"({point.bit_errors} errors / {point.bits_sent} bits){flag}",
            file=stream,
        )

    results = run_sweeps(config, curves, n_workers=n_workers, on_point=show)
    for curve in results:
        write_curve_csv(curve, os.path.join(out_dir, f"{curve.label}.csv"))
    manifest = {
        "config": config.to_dict(),
        "curves": [
            {
                "label": c.label,
                "feedback_bits": c.config.to_dict()["feedback_bits"],
            }
            for c in results
        ],
        "csv_files": {c.label: f"{c.label}.csv" for c in results},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _print_summary(config, results, stream)
    return results


def _print_summary(config: SimConfig, results: list[BerCurve], stream) -> None:
    print("\nsummary (ber per snr point):", file=stream)
    header = "snr_db".rjust(8) + "".join(
        c.label.rjust(14) for c in results
    )
    print(header, file=stream)
    for snr, *row in zip(config.snr_db_points, *(c.points for c in results)):
        cells = "".join(f"{p.ber:.4e}".rjust(14) for p in row)
        print(f"{snr:8.2f}{cells}", file=stream)
    perfect = next(
        (c for c in results if c.config.feedback_bits is None), None
    )
    if perfect is None or len(results) < 2:
        return
    base = snr_at_ber(perfect, GAP_TARGET_BER)
    print(f"\nsnr gap to perfect at ber={GAP_TARGET_BER:g}:", file=stream)
    for c in results:
        if c is perfect:
            continue
        own = snr_at_ber(c, GAP_TARGET_BER)
        if base is None or own is None:
            print(f"  {c.label}: n/a (no crossing in the swept range)",
                  file=stream)
        else:
            print(f"  {c.label}: {own - base:+.2f} dB", file=stream)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="lfbeam",
        description="Monte Carlo BER sweeps for limited-feedback "
        "MIMO-OFDM beamforming",
    )
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named scenario to start from")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="JSON config file or a manifest.json of a prior run")
    p.add_argument("--out-dir", default="results", metavar="DIR",
                   help="directory for CSVs and manifest (default: results)")
    p.add_argument("--feedback-bits", default=None, metavar="LIST",
                   help="comma list of curves, e.g. 'perfect,1,4'")
    p.add_argument("--snr", default=None, metavar="LIST",
                   help="comma list of SNR points in dB, e.g. '0,5,10'")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="master seed for all randomness")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="worker processes (0 = cpu count); results do not "
                   "depend on this")
    p.add_argument("--modulation", choices=["bpsk", "qpsk"], default=None)
    p.add_argument("--pilots", type=int, default=None, metavar="N",
                   help="training symbols per subcarrier for estimated CSI")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides: dict = {
            "master_seed": args.seed,
            "modulation": args.modulation,
            "n_pilots": args.pilots,
        }
        if args.snr is not None:
            overrides["snr_db_points"] = _parse_snr_flag(args.snr)
        if args.feedback_bits is not None:
            overrides["curves"] = _parse_bits_flag(args.feedback_bits)
        if args.threads < 0:
            raise ConfigError(f"--threads must be >= 0, got {args.threads}")
        config, curves = parse_config(
            path=args.config, preset=args.preset, overrides=overrides
        )
        run_experiment(config, curves, args.out_dir, n_workers=args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # I/O and anything else at runtime
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
