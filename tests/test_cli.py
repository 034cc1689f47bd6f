import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectra_shrink
from spectra_shrink import __version__, acceptance
from spectra_shrink.cases import (
    SPIKED_CASES,
    TABLE1_SPECTRA,
    TABLE2_SPECTRA,
    named_spectrum,
    spiked_case,
)
from spectra_shrink.cli import ExperimentSpec, builtin_cases, main
from spectra_shrink.sampling import spiked_spectrum


def _read(path):
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# builtin cases
# ---------------------------------------------------------------------------


def test_builtin_tables_shapes():
    assert len(TABLE1_SPECTRA) == 11
    assert len(TABLE2_SPECTRA) == 18
    assert len(SPIKED_CASES) == 10
    specs = builtin_cases()
    assert len(specs) == 11 + 18 + 20
    names = {s.name for s in specs}
    assert {"table1-row5", "table2-row18", "case7-n100"} <= names


def test_builtin_case_values():
    np.testing.assert_allclose(
        spiked_spectrum(spiked_case(1)).values, [19.0] * 5 + [1.0] * 5
    )
    np.testing.assert_allclose(
        spiked_spectrum(spiked_case(7)).values, [32.0, 25.5, 19.0, 12.5, 6.0] + [1.0] * 5
    )
    np.testing.assert_allclose(TABLE1_SPECTRA[4], [0.18] * 5 + [0.02] * 5)
    np.testing.assert_allclose(TABLE2_SPECTRA[0], [0.10] * 10)
    # every spiked case keeps the tabulated total variance
    for case in SPIKED_CASES:
        assert spiked_spectrum(case).values.sum() == pytest.approx(100.0)


def test_named_spectrum_resolution():
    np.testing.assert_allclose(named_spectrum("uniform10").values, [0.1] * 10)
    np.testing.assert_allclose(named_spectrum("table1:6").values, [0.198] * 5 + [0.002] * 5)
    np.testing.assert_allclose(named_spectrum("case:5").values, [91.0] + [1.0] * 9)
    with pytest.raises(ValueError):
        named_spectrum("table1:0")
    with pytest.raises(ValueError):
        named_spectrum("mystery")


# ---------------------------------------------------------------------------
# experiment runs and CSV format
# ---------------------------------------------------------------------------


def test_bias_csv_format(tmp_path):
    out = tmp_path / "bias.csv"
    code = main(
        ["bias", "--spectrum", "uniform10", "--n", "30", "--reps", "500", "--seed", "42",
         "--out", str(out)]
    )
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "i,lambda,mc_mean_d,expansion,stderr"
    assert len(lines) == 1 + 10 + 1
    assert lines[-1] == f"# seed=42, reps=500, version={__version__}"
    # repeated eigenvalues leave the expansion column as nan
    assert lines[1].split(",")[3] == "nan"


def test_bias_csv_expansion_for_distinct_spectrum(tmp_path):
    out = tmp_path / "bias.csv"
    assert main(["bias", "--spectrum", "0.5,0.3,0.2", "--n", "50", "--reps", "200",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = _read(out).splitlines()[1:-1]
    assert len(rows) == 3
    assert float(rows[0].split(",")[3]) == pytest.approx(0.5 + 0.963333333 / 50, abs=1e-6)


def test_risk_csv_shape(tmp_path):
    out = tmp_path / "risk.csv"
    assert main(["risk", "--spectrum", "table2:1", "--n", "30", "--reps", "200",
                 "--seed", "7", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["tau1", "tau2", "tau3"]
    assert header[10:] == ["risk0", "risk1", "risk2", "se0", "se1", "se2"]
    assert len(lines) == 3
    values = lines[1].split(",")
    risks = [float(v) for v in values[10:13]]
    assert risks[1] < risks[2] < risks[0]


def test_risk_table2_full(tmp_path):
    out = tmp_path / "table2.csv"
    assert main(["risk", "--table2", "--n", "30", "--reps", "200", "--seed", "7",
                 "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert len(lines) == 1 + 18 + 1


def test_dimension_csv(tmp_path):
    out = tmp_path / "dim.csv"
    assert main(["dimension", "--case", "1", "--n", "30", "--reps", "300", "--seed", "9",
                 "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "criterion,estimator,true_dim,dim0," + ",".join(
        f"dim{k}" for k in range(1, 11)
    )
    body = lines[1:-1]
    assert len(body) == 6
    for row in body:
        cells = row.split(",")
        assert cells[1] in ("classical", "q1", "q2")
        assert sum(int(c) for c in cells[3:]) == 300


def test_invariance_csv(tmp_path):
    out = tmp_path / "inv.csv"
    assert main(["invariance", "--spectrum", "0.4,0.3,0.2,0.1", "--n", "15", "--nu", "5",
                 "--reps", "400", "--seed", "3", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "i,ks_statistic,p_value,critical_1pct,accept"
    assert len(lines[1:-1]) == 4


def test_stein_haff_csv(tmp_path):
    out = tmp_path / "sh.csv"
    assert main(["stein-haff", "--spectrum", "table2:5", "--n", "30", "--reps", "300",
                 "--seed", "5", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0].startswith("estimator,mean_trace")
    assert [row.split(",")[0] for row in lines[1:-1]] == ["beta0", "beta1"]


def test_weights_subcommand(tmp_path, capsys):
    assert main(["weights", "--p", "10", "--n", "30", "--q", "1"]) == 0
    printed = capsys.readouterr().out
    assert "0.810811" in printed and "c3=10" in printed
    out = tmp_path / "w.csv"
    assert main(["weights", "--p", "6", "--n", "12", "--q", "1", "--out", str(out)]) == 0
    assert _read(out).splitlines()[0] == "i,beta"


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "500", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--jobs", "3"]) == 0
    assert _read(a) == _read(b)


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["bias", "--spectrum", "uniform10", "--n", "30", "--reps", "50"],
        ["bias", "--spectrum", "uniform10", "--n", "5"],
        ["bias", "--spectrum", "nonsense"],
        ["bias"],
        ["risk", "--spectrum", "0.5,0.3,0.2", "--n", "30"],
        ["dimension", "--case", "1", "--tstar", "1.2", "--reps", "200"],
        ["dimension", "--case", "99"],
        ["invariance", "--spectrum", "uniform10", "--nu", "2"],
        ["bias", "--spectrum", "uniform10", "--dist", "t:1"],
        ["stein-haff", "--spectrum", "uniform10", "--q", "9"],
    ],
)
def test_invalid_specs_exit_2(argv, capsys):
    assert main(argv + ["--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_invalid_jobs(jobs, monkeypatch, capsys):
    ran = []

    def criterion(jobs):
        ran.append(jobs)
        return acceptance.CriterionResult(name="stub", passed=True)

    monkeypatch.setattr(acceptance, "CRITERIA", (criterion,))
    assert main(["verify", "--jobs", jobs]) == 2
    assert "jobs must be positive" in capsys.readouterr().err
    assert ran == []
    # the same stub does run once the worker count is valid
    assert main(["verify", "--jobs", "2"]) == 0
    assert ran == [2]


def test_io_failure_exits_3(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "200",
                 "--seed", "0", "--out", str(missing_dir)])
    assert code == 3
    assert "i/o error:" in capsys.readouterr().err


def test_stdout_output(capsys):
    code = main(["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "200", "--seed", "0"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("i,lambda")
    assert "wrote 2 rows" in captured.err


# ---------------------------------------------------------------------------
# config file and environment seed
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nreps = 300\nn = 12\n# comment\n", encoding="utf-8")
    out_cfg = tmp_path / "c.csv"
    assert main(["bias", "--spectrum", "0.6,0.4", "--config", str(cfg),
                 "--out", str(out_cfg)]) == 0
    assert "# seed=5, reps=300" in _read(out_cfg)
    out_flag = tmp_path / "f.csv"
    assert main(["bias", "--spectrum", "0.6,0.4", "--config", str(cfg), "--seed", "9",
                 "--out", str(out_flag)]) == 0
    assert "# seed=9, reps=300" in _read(out_flag)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["bias", "--spectrum", "0.6,0.4", "--config", str(cfg)]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv("SPECTRA_SHRINK_SEED", "77")
    assert main(["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "200",
                 "--out", str(out)]) == 0
    assert "# seed=77," in _read(out)
    # explicit flag wins over the environment
    out2 = tmp_path / "env2.csv"
    assert main(["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "200",
                 "--seed", "3", "--out", str(out2)]) == 0
    assert "# seed=3," in _read(out2)


def test_experiment_spec_validates_before_sampling():
    spec = ExperimentSpec(kind="risk", spectrum=(0.5, 0.3, 0.2), n=30)
    with pytest.raises(ValueError, match="p >= 6"):
        spec.validate()
    spec = ExperimentSpec(kind="bias", spectrum=(0.6, 0.4), n=30, replicates=10)
    with pytest.raises(ValueError, match="replicates"):
        spec.validate()


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

# Runs in a fresh interpreter: after each step it records whether
# scipy.stats (about a second to import) has been loaded.
_COLD_START = """
import json, sys
sys.path.insert(0, {src!r})
import spectra_shrink, spectra_shrink.cli as cli
out = {out!r}
steps = [
    ("import", None),
    ("weights", ["weights", "--p", "10", "--n", "30", "--q", "1"]),
    ("bias", ["bias", "--spectrum", "0.5,0.3,0.2", "--n", "30", "--reps", "200"]),
    ("risk", ["risk", "--spectrum", "table2:1", "--reps", "200"]),
    ("dimension", ["dimension", "--case", "1", "--reps", "200"]),
    ("stein-haff", ["stein-haff", "--spectrum", "table2:5", "--reps", "200"]),
    ("invariance", ["invariance", "--spectrum", "0.4,0.3,0.2,0.1", "--n", "15", "--reps", "200"]),
]
loaded = {{}}
for name, argv in steps:
    if argv is not None:
        extra = [] if name == "weights" else ["--out", out]
        assert cli.main(argv + extra) == 0, name
    loaded[name] = "scipy.stats" in sys.modules
print(json.dumps(loaded))
"""


def test_cold_start_loads_scipy_stats_only_for_invariance(tmp_path):
    src = Path(spectra_shrink.__file__).resolve().parents[1]
    code = _COLD_START.format(src=str(src), out=str(tmp_path / "out.csv"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "weights": False,
        "bias": False,
        "risk": False,
        "dimension": False,
        "stein-haff": False,
        "invariance": True,
    }
