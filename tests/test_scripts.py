"""The scripts under ``scripts/``: what they print and what they refuse."""

import pytest

from oracles import (
    estimated_mrc_bpsk_ber,
    max_eigenmode_qpsk_ber,
    rayleigh_mrc_bpsk_ber,
)


def test_reference_tables_hold_the_closed_forms(load_script, capsys):
    """Each preset's exact table, read from ``rvq_ber``, holds the
    older closed forms: fig2-miso's perfect and B = 0 columns are the
    two- and one-branch Rayleigh curves, and the perfect columns of
    fig3-mimo22 and fig4-estimated are the max-eigenmode and LS-estimate
    curves, to the printed digits."""
    assert load_script("reference_curves").main(["--snr", "0,4"]) == 0
    cells = {}
    for block in capsys.readouterr().out.split("\n\n"):
        title, header, *rows = block.splitlines()
        if title.startswith("fig"):
            preset = title.split(",")[0]
            for row in rows:
                snr, *values = row.split()
                for name, value in zip(header.split()[1:], values):
                    cells[preset, float(snr), name] = value
    for s in (0.0, 4.0):
        assert cells["fig2-miso", s, "perfect"] == \
            f"{rayleigh_mrc_bpsk_ber(s, 2):.4e}"
        assert cells["fig2-miso", s, "B=0"] == \
            f"{rayleigh_mrc_bpsk_ber(s, 1):.4e}"
        assert cells["fig3-mimo22", s, "perfect"] == \
            f"{max_eigenmode_qpsk_ber(s):.4e}"
        assert cells["fig4-estimated", s, "perfect"] == \
            f"{estimated_mrc_bpsk_ber(s, 2, 4):.4e}"


@pytest.mark.parametrize("snr", ["0,x", "4,0", ","])
def test_reference_curves_refuses_a_bad_snr_list(load_script, capsys, snr):
    with pytest.raises(SystemExit) as stop:
        load_script("reference_curves").main([f"--snr={snr}"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    if snr == "0,x":
        assert "bad --snr list: could not convert string to float: 'x'" in err


def test_demo_refuses_fewer_than_one_drop(load_script, capsys):
    with pytest.raises(SystemExit) as stop:
        load_script("multiuser_zfbf_demo").main(["--drops", "0"])
    assert stop.value.code == 2
    assert "--drops" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["1,,2", "99", "-1", "x"])
def test_demo_refuses_a_bad_bits_list(load_script, capsys, bits):
    with pytest.raises(SystemExit) as stop:
        load_script("multiuser_zfbf_demo").main([f"--bits={bits}"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--bits" in err
