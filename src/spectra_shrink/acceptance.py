"""Acceptance suite: one function per criterion, each at its pinned tolerance.

Used both by the ``verify`` CLI subcommand and by the test suite. Every
criterion runs with a fixed seed and reports observed-versus-expected
detail lines, so results are reproducible to the byte.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cases, cli
from .core import Spectrum
from .dimension import CumulativeCriterion, RelativeCriterion, dimension_experiment_for_spectrum
from .estimators import _compared_weights, check_conditions, condition2_family_bound, family_weights
from .evaluation import bias_expansion, compare_risks, invariance_check, simulate_bias, simulate_stein_haff

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)


def _check(result: CriterionResult, ok: bool, line: str) -> None:
    result.passed = result.passed and bool(ok)
    result.details.append(("ok   " if ok else "BAD  ") + line)


# Expected Monte Carlo means of the sample rates (bias study, n=30).
_TABLE1_ROW1 = (0.216, 0.172, 0.142, 0.118, 0.097, 0.080, 0.064, 0.050, 0.037, 0.024)
_TABLE1_ROW6 = (0.328, 0.245, 0.187, 0.139, 0.094, 0.003, 0.002, 0.002, 0.001, 0.001)

# Expected quadratic risks (risk0, risk1, risk2).
_TABLE2_ROW1 = (3.57, 2.11, 2.56)
_TABLE2_ROW18 = (3.94, 2.79, 3.28)


def criterion_1_bias_table(jobs: int = 1) -> CriterionResult:
    """Reproduce the tabulated Monte Carlo means of the sample rates."""
    res = CriterionResult("criterion-01 bias table rows 1 and 6 (+/-0.005)", True)
    for row, expected in ((1, _TABLE1_ROW1), (6, _TABLE1_ROW6)):
        sim = simulate_bias(cases.table1_spectrum(row), 30, "wishart", 10000, seed=101, jobs=jobs)
        dev = np.abs(sim.mean_rates - np.asarray(expected)).max()
        _check(res, dev < 0.005, f"row {row}: max |mc mean - table| = {dev:.4f} < 0.005")
    return res


def _table2_sweep(loss_kind: str, seed: int, jobs: int) -> list:
    """compare_risks on each of the 18 risk spectra, n = 30, the compared estimators, 10,000 replicates."""
    w = _compared_weights(10, 30)
    return [
        compare_risks(cases.table2_spectrum(row), 30, w, loss_kind, "wishart", 10000, seed=seed, jobs=jobs)
        for row in range(1, len(cases.TABLE2_SPECTRA) + 1)
    ]


def criterion_2_quadratic_risk(jobs: int = 1) -> CriterionResult:
    """Reproduce the quadratic-risk table and its strict risk ordering."""
    res = CriterionResult("criterion-02 quadratic risk table (rows 1, 18; ordering all rows)", True)
    risks = np.asarray([cmp.mean_losses for cmp in _table2_sweep("quadratic", 102, jobs)])
    for row, expected, tol in ((1, _TABLE2_ROW1, 0.1), (18, _TABLE2_ROW18, 0.15)):
        dev = np.abs(risks[row - 1] - np.asarray(expected)).max()
        _check(
            res,
            dev < tol,
            f"row {row}: risks {np.round(risks[row - 1], 3)} vs table {expected}, "
            f"max dev {dev:.3f} < {tol}",
        )
    ordered = np.all(risks[:, 1] < risks[:, 2]) and np.all(risks[:, 2] < risks[:, 0])
    _check(res, ordered, "risk(q1) < risk(q2) < risk(classical) on all 18 rows (paired draws)")
    return res


def criterion_3_entropy_dominance(jobs: int = 1) -> CriterionResult:
    """Shrunk plug-in covariances beat the classical one by 3+ paired SEs."""
    res = CriterionResult("criterion-03 entropy dominance on all 18 risk spectra", True)
    worst = np.inf
    ok = True
    for cmp in _table2_sweep("entropy", 103, jobs):
        margins = -cmp.diff_means / cmp.diff_std_errors
        worst = min(worst, margins.min())
        ok = ok and bool(np.all(margins >= 3.0))
    _check(res, ok, f"paired entropy-risk reduction >= 3 SEs everywhere (worst margin {worst:.0f} SEs)")
    return res


def criterion_4_condition_identities(jobs: int = 1) -> CriterionResult:
    """Exact algebra of the weight family for p = 4..20 and every valid q."""
    res = CriterionResult("criterion-04 family weight identities, p=4..20, all valid q", True)
    worst_inv = 0.0
    worst_bound = 0.0
    worst_c2 = -np.inf
    count = 0
    for p in range(4, 21):
        for q in range(1, (p - 2) // 2 + 1):
            for n in (p, p + 7, 30 + p):
                w = family_weights(p, n, q)
                report = check_conditions(w)
                worst_inv = max(worst_inv, abs(report.c3_value - p))
                worst_c2 = max(worst_c2, report.c2_value)
                worst_bound = max(worst_bound, abs(condition2_family_bound(w)))
                count += 1
    _check(res, worst_inv <= 1e-12, f"max |sum 1/beta - p| = {worst_inv:.2e} <= 1e-12 ({count} cases)")
    _check(res, worst_c2 <= 1e-12, f"max weighted condition sum = {worst_c2:.2e} <= 0")
    _check(res, worst_bound <= 1e-12, f"max |shifted bounding sum| = {worst_bound:.2e} <= 1e-12")
    return res


def criterion_5_stein_haff(jobs: int = 1) -> CriterionResult:
    """Trace identity within 3 paired SEs at (p,n) = (3,10) and (10,30)."""
    res = CriterionResult("criterion-05 trace identity, 1e5 replicates", True)
    configs = [
        ("p=3 n=10", Spectrum((0.5, 0.3, 0.2)), 10),
        ("p=10 n=30", cases.table2_spectrum(5), 30),
    ]
    for label, spectrum, n in configs:
        # the classical weights, and q=1 where the family exists (p >= 4)
        weights = _compared_weights(spectrum.p, n)[:2]
        checks = simulate_stein_haff(spectrum, n, weights, 100000, seed=105, jobs=jobs)
        for wlabel, c in zip(("beta0", "beta1"), checks):
            margin = abs(c.diff_mean) / c.diff_std_error
            _check(
                res,
                margin <= 3.0,
                f"{label} {wlabel}: |mean tr - mean G| = {abs(c.diff_mean):.5f} "
                f"= {margin:.2f} SEs (<= 3)",
            )
    return res


def criterion_6_invariance(jobs: int = 1) -> CriterionResult:
    """Rates from Wishart and elliptical-t draws agree per coordinate (KS, 1%)."""
    res = CriterionResult("criterion-06 elliptical invariance of the rates (KS at 1%)", True)
    spectrum = Spectrum((0.4, 0.3, 0.15, 0.1, 0.05))
    report = invariance_check(spectrum, 20, 5, 5000, seed=106, jobs=jobs)
    _check(
        res,
        report.accepted,
        f"min p-value {report.p_values.min():.3f} > 0.01 "
        f"(max KS stat {report.statistics.max():.4f}, critical {report.critical_value:.4f})",
    )
    return res


def criterion_7_bias_expansion(jobs: int = 1) -> CriterionResult:
    """First-order expansion error small at n=200 and shrinking like 1/n^2."""
    res = CriterionResult("criterion-07 bias expansion accuracy and decay rate", True)
    spectrum = Spectrum((0.5, 0.3, 0.2))
    plain = simulate_bias(spectrum, 200, "wishart", 1000000, seed=107, jobs=jobs)
    resid200_plain = np.abs(plain.mean_rates - bias_expansion(spectrum, 200)).max()
    _check(res, resid200_plain < 5e-4, f"n=200: max |mc - expansion| = {resid200_plain:.2e} < 5e-4")

    resid = {}
    for n in (200, 400):
        sim = simulate_bias(
            spectrum, n, "wishart", 4000000, seed=107, jobs=jobs, control_variate=True
        )
        resid[n] = np.abs(sim.mean_rates - bias_expansion(spectrum, n)).max()
    ratio = resid[200] / resid[400]
    _check(
        res,
        3.0 <= ratio <= 5.0,
        f"residual ratio n=200 vs n=400: {resid[200]:.2e} / {resid[400]:.2e} "
        f"= {ratio:.2f} in [3, 5]",
    )
    return res


def _histograms(case: int, n: int, jobs: int, seed: int):
    """Each histogram's share of replicates per decided dimension, keyed by (C1 or C2, estimator label)."""
    w = _compared_weights(10, n)
    crits = [CumulativeCriterion(0.8), RelativeCriterion()]
    hists = dimension_experiment_for_spectrum(cases.spiked_case(case), n, w, crits, 10000, seed, jobs=jobs)
    return {
        ("C1" if isinstance(h.criterion, CumulativeCriterion) else "C2", h.estimator_label):
            h.counts / h.replicates
        for h in hists
    }


def criterion_8_dimension_n30(jobs: int = 1) -> CriterionResult:
    """Dimension histograms at n=30: named cells within 1.5 points of the table."""
    res = CriterionResult("criterion-08 dimension histograms, n=30", True)
    case1 = _histograms(1, 30, jobs, seed=108)
    prop = case1[("C1", "classical")][4]
    _check(res, prop >= 0.95 and abs(prop - 0.9895) <= 0.015,
           f"case 1 C1 classical at dim 4: {prop:.4f} (>= 0.95, table 0.9895 +/- 0.015)")
    prop = case1[("C1", "q1")][5]
    _check(res, prop >= 0.97 and abs(prop - 0.9991) <= 0.015,
           f"case 1 C1 q1 at dim 5: {prop:.4f} (>= 0.97, table 0.9991 +/- 0.015)")
    case5 = _histograms(5, 30, jobs, seed=108)
    for est in ("classical", "q1", "q2"):
        prop = case5[("C2", est)][1]
        _check(res, abs(prop - 1.0) <= 0.005, f"case 5 C2 {est} at dim 1: {prop:.4f} (1.0 +/- 0.005)")
    return res


def criterion_9_dimension_n100(jobs: int = 1) -> CriterionResult:
    """Dimension histograms at n=100: exact concentration spot checks."""
    res = CriterionResult("criterion-09 dimension histograms, n=100", True)
    case3 = _histograms(3, 100, jobs, seed=109)
    for key, share in case3.items():
        prop = share[3]
        _check(res, abs(prop - 1.0) <= 0.005, f"case 3 {key[0]} {key[1]} at dim 3: {prop:.4f} (1.0 +/- 0.005)")
    case1 = _histograms(1, 100, jobs, seed=109)
    for est in ("classical", "q1", "q2"):
        prop = case1[("C2", est)][5]
        _check(res, abs(prop - 0.995) <= 0.005, f"case 1 C2 {est} at dim 5: {prop:.4f} (0.995 +/- 0.005)")
    return res


def criterion_10_determinism(jobs: int = 1) -> CriterionResult:
    """Byte-identical CSVs for the same seed at different --jobs levels."""
    res = CriterionResult("criterion-10 CSV determinism across worker counts", True)
    commands = [
        ("bias", ["bias", "--spectrum", "uniform10", "--n", "30", "--reps", "10000", "--seed", "42"]),
        ("risk", ["risk", "--spectrum", "table2:1", "--n", "30", "--reps", "2000", "--seed", "7"]),
        ("dimension", ["dimension", "--case", "1", "--n", "30", "--reps", "2000", "--seed", "9"]),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in commands:
            paths = []
            for jobs_level in (1, 2, 4):
                out = Path(tmp) / f"{label}-j{jobs_level}.csv"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--jobs", str(jobs_level), "--out", str(out)])
                if code != 0:
                    _check(res, False, f"{label}: exit code {code} at jobs={jobs_level}")
                    break
                paths.append(out)
            else:
                same = all(filecmp.cmp(paths[0], other, shallow=False) for other in paths[1:])
                _check(res, same, f"{label}: identical bytes at jobs=1,2,4")
    return res


CRITERIA = (
    criterion_1_bias_table,
    criterion_2_quadratic_risk,
    criterion_3_entropy_dominance,
    criterion_4_condition_identities,
    criterion_5_stein_haff,
    criterion_6_invariance,
    criterion_7_bias_expansion,
    criterion_8_dimension_n30,
    criterion_9_dimension_n100,
    criterion_10_determinism,
)


def run_acceptance(jobs: int = 1) -> list[CriterionResult]:
    """Run every acceptance criterion; results in criterion order."""
    return [criterion(jobs=jobs) for criterion in CRITERIA]
