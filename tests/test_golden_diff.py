from math import sqrt

import pytest

from golden_diff import main

FOOTER = "# seed=1, reps=100, version=0.1.0\n"


def _write(directory, name, text):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text + FOOTER)


def _run(tmp_path, capsys, files):
    """Write each (name, old, new) pair, then run the diff; its status and lines."""
    old, new = tmp_path / "old", tmp_path / "new"
    for name, before, after in files:
        _write(old, name, before)
        _write(new, name, after)
    status = main([str(old), str(new)])
    return status, capsys.readouterr().out.splitlines()


def _z_of(lines, prefix):
    (line,) = [ln for ln in lines if ln.startswith(prefix)]
    return float(line.split("z = ")[1]) if "z = " in line else None


def test_each_kind_gets_its_z(tmp_path, capsys):
    bias = "i,lambda,mc_mean_d,expansion,stderr\n1,0.5,{},0.55,{}\n2,0.3,0.29,0.29,0.001\n"
    risk = "tau1,tau2,risk0,risk1,se0,se1\n0.5,0.5,{},2.0,{},0.01\n"
    stein = "estimator,mean_trace,se_trace,mean_g,se_g,diff,se_diff\nbeta0,10.0,0.01,9.9,0.02,{},{}\n"
    dim = "criterion,estimator,true_dim,dim0,dim1,dim2\nrelative_size,classical,1,0,{},{}\n"
    inv = "i,ks_statistic,p_value,critical_1pct,accept\n1,{},{},0.03,true\n"
    status, lines = _run(tmp_path, capsys, [
        ("bias.csv", bias.format(0.55, 0.003), bias.format(0.56, 0.004)),
        ("risk.csv", risk.format(3.0, 0.03), risk.format(3.04, 0.04)),
        ("stein.csv", stein.format(0.1, 0.03), stein.format(0.16, 0.04)),
        ("dim.csv", dim.format(40, 60), dim.format(50, 50)),
        ("inv.csv", inv.format(0.02, 0.4), inv.format(0.025, 0.2)),
        ("same.csv", risk.format(3.0, 0.03), risk.format(3.0, 0.03)),
    ])
    assert status == 0
    assert _z_of(lines, "bias.csv [1] mc_mean_d: 0.55 -> 0.56") == pytest.approx(0.01 / 0.005, abs=0.005)
    assert _z_of(lines, "bias.csv [1] stderr: 0.003 -> 0.004") is None
    assert _z_of(lines, "risk.csv [row 1] risk0: 3.0 -> 3.04") == pytest.approx(0.8, abs=0.005)
    assert _z_of(lines, "stein.csv [beta0] diff: 0.1 -> 0.16") == pytest.approx(1.2, abs=0.005)
    pooled = sqrt(0.45 * 0.55 * (2 / 100))
    assert _z_of(lines, "dim.csv [relative_size,classical] dim1: 40 -> 50") == pytest.approx(0.1 / pooled, abs=0.005)
    assert _z_of(lines, "dim.csv [relative_size,classical] dim2: 60 -> 50") == pytest.approx(-0.1 / pooled, abs=0.005)
    assert _z_of(lines, "inv.csv [1] ks_statistic: 0.02 -> 0.025") is None
    assert _z_of(lines, "inv.csv [1] p_value: 0.4 -> 0.2") is None
    assert not any(ln.startswith("same.csv") for ln in lines)
    assert "understates the move" in lines[-1]


def test_large_moves_and_layout_changes_are_flagged(tmp_path, capsys):
    risk = "tau1,tau2,risk0,se0\n0.5,0.5,{},0.01\n"
    status, lines = _run(tmp_path, capsys, [("risk.csv", risk.format(3.0), risk.format(3.1))])
    assert status == 1 and _z_of(lines, "risk.csv") > 4 and lines[-1].startswith("flagged")
    bias = "i,lambda,mc_mean_d,expansion,stderr\n1,0.5,0.55,0.55,0.003\n"
    status, lines = _run(tmp_path / "rows", capsys, [("bias.csv", bias, bias + "2,0.3,0.3,0.3,0.003\n")])
    assert status == 1 and lines[0] == "bias.csv: header or row count changed; no value compared"
    (tmp_path / "rows" / "old" / "gone.csv").write_text(bias)
    assert main([str(tmp_path / "rows" / "old"), str(tmp_path / "rows" / "new")]) == 1
    assert "gone.csv: only in" in capsys.readouterr().out
