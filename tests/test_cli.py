import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectra_shrink
from spectra_shrink import __version__, acceptance, cli, sampling
from spectra_shrink.cases import (
    SPIKED_CASES,
    TABLE1_SPECTRA,
    TABLE2_SPECTRA,
    named_spectrum,
    spiked_case,
)
from spectra_shrink.cli import ExperimentSpec, main, run


def _read(path):
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# builtin cases
# ---------------------------------------------------------------------------


def test_builtin_tables_shapes():
    assert len(TABLE1_SPECTRA) == 11
    assert len(TABLE2_SPECTRA) == 18
    assert len(SPIKED_CASES) == 10


def test_builtin_case_values():
    np.testing.assert_allclose(spiked_case(1).values, [19.0] * 5 + [1.0] * 5)
    np.testing.assert_allclose(spiked_case(7).values, [32.0, 25.5, 19.0, 12.5, 6.0] + [1.0] * 5)
    np.testing.assert_allclose(TABLE1_SPECTRA[4], [0.18] * 5 + [0.02] * 5)
    np.testing.assert_allclose(TABLE2_SPECTRA[0], [0.10] * 10)
    # every spiked case keeps the tabulated total variance
    for case in SPIKED_CASES:
        assert case.values.sum() == pytest.approx(100.0)


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = _read(readme).split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_all_exports_resolve():
    modules = [spectra_shrink] + [
        importlib.import_module(f"spectra_shrink.{info.name}")
        for info in pkgutil.iter_modules(spectra_shrink.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_public_names_are_pinned():
    # every added or removed public name shows up in this list's diff
    assert sorted(spectra_shrink.__all__) == [
        "BiasSimulation",
        "ConditionReport",
        "ContributionRates",
        "CumulativeCriterion",
        "DimensionHistogram",
        "InvarianceReport",
        "RelativeCriterion",
        "RiskComparison",
        "SampleDecomposition",
        "ShrinkageWeights",
        "Spectrum",
        "SteinHaffCheck",
        "__version__",
        "bias_expansion",
        "check_conditions",
        "classical_weights",
        "compare_risks",
        "condition2_family_bound",
        "decide",
        "dimension_experiment_for_spectrum",
        "eigh_descending_batch",
        "entropy_loss",
        "entropy_risk_difference_bound",
        "family_weights",
        "invariance_check",
        "parse_distribution",
        "plugin_covariance",
        "quadratic_loss",
        "sample_rates",
        "scatter_chunk",
        "shrink_estimate",
        "simulate_bias",
        "simulate_stein_haff",
        "stein_haff_G",
        "symmetric_eigendecompose",
    ]


def test_named_spectrum_resolution():
    np.testing.assert_allclose(named_spectrum("uniform10").values, [0.1] * 10)
    np.testing.assert_allclose(named_spectrum("table1:6").values, [0.198] * 5 + [0.002] * 5)
    np.testing.assert_allclose(named_spectrum("case:5").values, [91.0] + [1.0] * 9)
    with pytest.raises(ValueError):
        named_spectrum("table1:0")
    with pytest.raises(ValueError):
        named_spectrum("mystery")
    with pytest.raises(ValueError, match=r"^malformed spectrum name 'case:x'$"):
        named_spectrum("case:x")
    with pytest.raises(ValueError, match=r"^spiked cases run 1\.\.10, got 11$"):
        named_spectrum("case:11")


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


def test_risk_table_prints_contribution_rates(capsys):
    # tau is lambda / sum(lambda), the rates the risks are measured against
    assert main(["risk", "--spectrum", "case:1", "--reps", "200", "--seed", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:10] == ["0.19"] * 5 + ["0.01"] * 5


def test_a_run_resolves_its_spectra_once(monkeypatch, capsys):
    calls = []

    def counted(k):
        calls.append(k)
        return spiked_case(k)

    monkeypatch.setattr(cli.cases, "spiked_case", counted)
    assert main(["dimension", "--case", "1", "--reps", "200"]) == 0
    assert calls == [1]


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
    assert out.read_bytes() == (
        "i,beta\n1,0.8\n2,0.923077\n3,1\n4,1\n5,1.09091\n6,1.33333\n"
        f"# p=6, n=12, q=1, version={__version__}\n"
    ).encode()


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "500", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--jobs", "3"]) == 0
    assert _read(a) == _read(b)


def test_every_t_law_prints_the_same_bytes(tmp_path):
    # a t chunk is its stream's Wishart draw X'X, without the chi-square mix
    # that no output reads, so nu picks no draw: bias, risk above the control
    # basis's floor (2,300 replicates at p = 10, n = 30) and dimension print
    # the same bytes under t:3 and t:9
    for argv in (
        ["bias", "--spectrum", "0.5,0.3,0.2", "--n", "20", "--reps", "500"],
        ["risk", "--spectrum", "table2:18", "--n", "30", "--reps", "2300"],
        ["dimension", "--case", "1", "--n", "30", "--reps", "500"],
    ):
        outs = []
        for nu in (3, 9):
            out = tmp_path / f"{argv[0]}-t{nu}.csv"
            assert main(argv + ["--seed", "1", "--dist", f"t:{nu}", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv[0]


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------


_INVALID_ARGVS = [
    argv + ["--seed", "0"]
    for argv in [
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
        ["bias", "--spectrum", "uniform10", "--jobs", "0"],
        ["bias", "--spectrum", "0.5"],
        ["risk", "--table2", "--n", "5"],
        ["dimension", "--case", "1", "--spectrum", "0.5,0.3,0.2"],
        ["risk", "--table2", "--spectrum", "0.5,0.3,0.2"],
    ]
] + [
    ["bias", "--spectrum", "0.5,0.3,0.2", "--seed", "-1"],
    ["stein-haff", "--spectrum", "0.5,0.3,0.2", "--n", "10", "--reps", "200", "--seed", "1", "--dist", "t:5"],
    ["invariance", "--spectrum", "0.4,0.3,0.2,0.1", "--n", "15", "--reps", "500", "--seed", "1", "--dist", "t:5"],
]


@pytest.mark.parametrize("argv", _INVALID_ARGVS)
def test_invalid_specs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_n_below_p_has_one_message(capsys):
    # the sampler and the family weights share one n >= p rule and message
    errors = []
    for command in ("bias", "risk", "dimension", "stein-haff"):
        assert main([command, "--spectrum", "uniform10", "--n", "5", "--seed", "0"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: degrees of freedom must satisfy n >= p, got n=5, p=10\n"] * 4


def test_one_entry_spectrum_has_the_shared_message(capsys):
    # every spectrum command takes --spectrum, and Spectrum words the refusal
    for command in ("bias", "risk", "dimension", "invariance", "stein-haff"):
        assert main([command, "--spectrum", "0.5", "--seed", "0"]) == 2
        assert capsys.readouterr().err == "error: eigenvalues need at least two entries, got 1\n"


def _no_stream(*args, **kwargs):
    raise AssertionError("a Philox stream was created")


@pytest.mark.parametrize("argv", _INVALID_ARGVS)
def test_invalid_specs_create_no_stream(argv, monkeypatch):
    # each input is refused by the function that uses it, before its first draw
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    assert main(argv) == 2
    # a valid spec does reach the patched stream
    with pytest.raises(AssertionError, match="Philox"):
        main(["bias", "--spectrum", "0.6,0.4", "--n", "12", "--reps", "100", "--seed", "0"])


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


def test_engine_runtime_error_exits_4(monkeypatch, capsys):
    # a tied sample eigenvalue, or one within 1e-12 of their sum, leaves the
    # Stein-Haff G undefined
    for values in ((2.0, 1.0, 1.0), (2.0, 1.0 + 1e-13, 1.0)):
        tied = np.repeat(np.diag(values)[None], sampling.CHUNK_SIZE, axis=0)
        monkeypatch.setattr(sampling, "scatter_chunk", lambda *args: tied.copy())
        code = main(["stein-haff", "--spectrum", "0.5,0.3,0.2", "--n", "10", "--reps", "200"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tied eigenvalues" in err
        assert "Traceback" not in err


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
    # a misspelt boolean is refused, not read as false
    cfg.write_text("table2 = ture\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["risk", "--config", str(cfg), "--reps", "200"]) == 2
    assert capsys.readouterr().err == "error: bad config value for table2: 'ture'\n"


@pytest.mark.parametrize(
    "raw, value",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
)
def test_config_booleans(tmp_path, raw, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"normalize_criterion2 = {raw}\n", encoding="utf-8")
    args = cli._build_parser().parse_args(["dimension", "--case", "1"])
    cli._merge_config(args, cli._load_config(str(cfg)))
    assert args.normalize_criterion2 is value


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


def test_validate_returns_the_spectra_of_its_one_source():
    table2 = ExperimentSpec(kind="risk", table2=True).validate()
    assert [tuple(s.values) for s in table2] == list(TABLE2_SPECTRA)
    (case,) = ExperimentSpec(kind="dimension", case=3).validate()
    assert case.values.tolist() == spiked_case(3).values.tolist()
    (given,) = ExperimentSpec(kind="bias", spectrum=(0.6, 0.4)).validate()
    assert given.values.tolist() == [0.6, 0.4]


@pytest.mark.parametrize(
    "spec, message",
    [
        (ExperimentSpec(kind="risk", spectrum=(0.6, 0.4), table2=True),
         "give one spectrum source: --spectrum, --case or --table2"),
        (ExperimentSpec(kind="dimension", spectrum=(0.6, 0.4), case=1),
         "give one spectrum source: --spectrum, --case or --table2"),
        (ExperimentSpec(kind="bias", table2=True),
         "no spectrum given; pass --spectrum (or --case for dimension runs)"),
        (ExperimentSpec(kind="risk", spectrum=(0.5, 0.3, 0.2)),
         "risk runs compare the q=1 and q=2 estimators and need p >= 6"),
    ],
)
def test_validate_refusals(spec, message):
    with pytest.raises(ValueError) as info:
        spec.validate()
    assert str(info.value) == message


def test_experiment_spec_validates_before_sampling(monkeypatch):
    spec = ExperimentSpec(kind="risk", spectrum=(0.5, 0.3, 0.2), n=30)
    with pytest.raises(ValueError, match="p >= 6"):
        spec.validate()
    # the replicate floor belongs to the engines, which refuse before a draw
    spec = ExperimentSpec(kind="bias", spectrum=(0.6, 0.4), n=30, replicates=10)
    spec.validate()
    monkeypatch.setattr(np.random, "Philox", _no_stream)
    with pytest.raises(ValueError, match="replicates must be at least 100, got 10"):
        run(spec)


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

# Runs in a fresh interpreter: after each command, and after the entropy
# risks on the control-variate path (2,300 replicates at p = 10, n = 30),
# whose log-det control needs digamma values, it records the scipy modules
# that have been loaded.
_COLD_START = """
import json, sys
sys.path.insert(0, {src!r})
import spectra_shrink, spectra_shrink.cli as cli
from spectra_shrink import classical_weights, compare_risks, family_weights
from spectra_shrink.cases import table2_spectrum
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
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {{}}
for name, argv in steps:
    if argv is not None:
        extra = [] if name == "weights" else ["--out", out]
        assert cli.main(argv + extra) == 0, name
    loaded[name] = scipy_modules()
w = [classical_weights(10, 30), family_weights(10, 30, 1)]
compare_risks(table2_spectrum(18), 30, w, "entropy", "wishart", 2300, seed=1)
loaded["entropy-control-variates"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    src = Path(spectra_shrink.__file__).resolve().parents[1]
    code = _COLD_START.format(src=str(src), out=str(tmp_path / "out.csv"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": [],
        "weights": [],
        "bias": [],
        "risk": [],
        "dimension": [],
        "stein-haff": [],
        "invariance": [],
        "entropy-control-variates": [],
    }
