import json

import pytest

from lfbeam.cli import main, parse_config
from lfbeam.simulator import ConfigError


def tiny_config(tmp_path, **extra):
    body = {
        "snr_db_points": [0.0, 4.0],
        "target_errors": 30,
        "max_bits": 50_000,
        "master_seed": 1,
    }
    body.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return path


# ------------------------------------------------------------- parse_config


def test_defaults_without_any_input():
    cfg, curves = parse_config()
    assert cfg.n_subcarriers == 64
    assert cfg.n_taps == 4
    assert cfg.modulation == "bpsk"
    assert cfg.target_errors == 200
    assert cfg.max_bits == 10_000_000
    assert cfg.snr_db_points == tuple(float(s) for s in range(0, 21, 2))
    assert curves == [None, 4]


def test_presets_shape_the_link():
    miso, _ = parse_config(preset="fig2-miso")
    assert (miso.n_t, miso.n_r) == (2, 1)
    mimo, _ = parse_config(preset="fig3-mimo22")
    assert (mimo.n_t, mimo.n_r) == (2, 2)
    assert mimo.modulation == "qpsk"
    est, _ = parse_config(preset="fig4-estimated")
    assert est.csi_mode == "estimated"
    assert est.n_pilots >= est.n_t


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        parse_config(preset="fig9-nope")


def test_file_overrides_preset_and_flags_override_file(tmp_path):
    path = tiny_config(tmp_path, modulation="qpsk")
    cfg, _ = parse_config(path=str(path), preset="fig2-miso")
    assert cfg.modulation == "qpsk"  # file beats preset
    cfg, _ = parse_config(
        path=str(path), preset="fig2-miso", overrides={"modulation": "bpsk"}
    )
    assert cfg.modulation == "bpsk"  # flag beats file


def test_curves_from_file(tmp_path):
    path = tiny_config(tmp_path, curves=["perfect", 1, 8])
    _, curves = parse_config(path=str(path))
    assert curves == [None, 1, 8]


def test_feedback_bits_from_file_or_overrides_is_the_one_curve(tmp_path):
    """Without a curves list, a ``feedback_bits`` of the file or the
    overrides is the one curve run, as the manifest records it; an
    explicit curves list still wins."""
    path = str(tiny_config(tmp_path, feedback_bits=8))
    for preset in (None, "fig2-miso"):
        cfg, curves = parse_config(path=path, preset=preset)
        assert (cfg.feedback_bits, curves) == (8, [8])
    cfg, curves = parse_config(preset="fig2-miso",
                               overrides={"feedback_bits": "perfect"})
    assert (cfg.feedback_bits, curves) == (None, [None])
    _, curves = parse_config(path=path, overrides={"curves": [None, 2]})
    assert curves == [None, 2]
    both = str(tiny_config(tmp_path, feedback_bits=8, curves=[1]))
    assert parse_config(path=both)[1] == [1]


def test_unknown_key_rejected(tmp_path):
    path = tiny_config(tmp_path, carrier_freq=2.4e9)
    with pytest.raises(ConfigError):
        parse_config(path=str(path))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(path=str(path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(path=str(tmp_path / "absent.json"))


# --------------------------------------------------------------------- main


def test_main_runs_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "--preset", "fig2-miso",
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", "perfect,1",
        "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "perfect.csv").exists()
    assert (out / "rvq-b1.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_t"] == 2
    assert manifest["curves"] == [
        {"label": "perfect", "feedback_bits": "perfect"},
        {"label": "rvq-b1", "feedback_bits": 1},
    ]
    stdout = capsys.readouterr().out
    assert "summary" in stdout
    assert "snr gap to perfect" in stdout


def test_manifest_reproduces_run_bit_for_bit(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    args = [
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", "perfect,2",
    ]
    assert main(args + ["--out-dir", str(first)]) == 0
    assert main([
        "--config", str(first / "manifest.json"),
        "--out-dir", str(again),
    ]) == 0
    for name in ("perfect.csv", "rvq-b2.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_threads_flag_does_not_change_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = ["--config", str(tiny_config(tmp_path)),
            "--feedback-bits", "perfect"]
    assert main(base + ["--out-dir", str(a), "--threads", "1"]) == 0
    assert main(base + ["--out-dir", str(b), "--threads", "2"]) == 0
    assert (a / "perfect.csv").read_bytes() == (b / "perfect.csv").read_bytes()


def test_snr_and_seed_flags(tmp_path):
    out = tmp_path / "out"
    code = main([
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", "perfect",
        "--snr", "2,6",
        "--seed", "9",
        "--out-dir", str(out),
    ])
    assert code == 0
    text = (out / "perfect.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in text[1:]] == ["2", "6"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 9
    assert manifest["config"]["snr_db_points"] == [2.0, 6.0]


def test_config_error_exits_1(tmp_path, capsys):
    path = tiny_config(tmp_path, snr_db_points=[4.0, 0.0])
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_bad_flag_value_exits_1(tmp_path, capsys):
    code = main(["--preset", "made-up", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_bad_feedback_bits_exits_1(tmp_path, capsys):
    code = main([
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", "perfect,many",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    dict(n_pilots="4"), dict(master_seed="7"), dict(curves=["perfect", "2"]),
])
def test_numbers_as_strings_exit_1(tmp_path, capsys, extra):
    out = tmp_path / "x"
    code = main([
        "--config", str(tiny_config(tmp_path, **extra)),
        "--out-dir", str(out),
    ])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bits", ["4,4", "perfect,perfect", "perfect,2,1,2"])
def test_duplicate_curves_exit_1(tmp_path, capsys, bits):
    out = tmp_path / "x"
    code = main([
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", bits,
        "--out-dir", str(out),
    ])
    assert code == 1
    assert "duplicate curves" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_curves_rejected_from_every_source(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(overrides={"curves": [None, 4, None]})
    with pytest.raises(ConfigError):
        parse_config(overrides={"curves": [4, {"feedback_bits": 4}]})
    with pytest.raises(ConfigError):
        parse_config(
            path=str(tiny_config(tmp_path, curves=[1, {"feedback_bits": 1}]))
        )


@pytest.mark.parametrize("bad", [-1, 21])
def test_out_of_range_curve_rejected_at_load(tmp_path, bad):
    with pytest.raises(ConfigError):
        parse_config(preset="fig2-miso", overrides={"curves": [None, bad]})
    with pytest.raises(ConfigError):
        parse_config(
            path=str(tiny_config(tmp_path, curves=[{"feedback_bits": bad}]))
        )
    parse_config(preset="fig2-miso", overrides={"curves": [None, 0, 20]})


def test_out_of_range_curve_exits_1_before_the_run(tmp_path, capsys):
    out = tmp_path / "x"
    code = main([
        "--preset", "fig2-miso", "--feedback-bits", "perfect,25",
        "--out-dir", str(out),
    ])
    assert code == 1
    assert "feedback_bits" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main([
        "--config", str(tiny_config(tmp_path)),
        "--feedback-bits", "perfect",
        "--out-dir", str(blocker),
    ])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err
