"""Command-line front end for the simulation experiments.

Subcommands: ``bias``, ``risk``, ``dimension``, ``invariance``,
``stein-haff``, ``weights`` and ``verify``. Every experiment writes an
RFC-4180-style CSV (to ``--out`` or stdout) with a header row and a
trailing ``# seed=..., reps=..., version=...`` comment; given the same
spec and seed the bytes are identical at any ``--jobs`` level.

Exit codes: 0 success, 1 verification failure, 2 invalid spec,
3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, cases
from .core import Spectrum
from .dimension import (
    DimensionHistogram,
    cumulative_criterion,
    dimension_experiment_for_spectrum,
    relative_criterion,
)
from .estimators import _compared_weights, check_conditions, classical_weights, family_weights
from .evaluation import (
    bias_expansion,
    compare_risks,
    invariance_check,
    simulate_bias,
    simulate_stein_haff,
)

__all__ = ["ExperimentSpec", "run", "main"]

SEED_ENV_VAR = "SPECTRA_SHRINK_SEED"


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully specified experiment; validation precedes any sampling."""

    kind: str
    spectrum: tuple[float, ...] | None = None
    case: int | None = None
    n: int = 30
    replicates: int = 10000
    seed: int = 0
    distribution: str = "wishart"
    q: int = 1
    nu: int = 5
    t_star: float = 0.8
    normalize_criterion2: bool = False
    table2: bool = False
    out: str | None = None
    jobs: int = 1

    def resolve_spectrum(self) -> Spectrum:
        if self.kind == "risk" and self.table2:
            raise ValueError("a table2 risk run spans multiple spectra")
        if self.case is not None:
            return cases.spiked_case(self.case)
        if self.spectrum is None:
            raise ValueError("no spectrum given; pass --spectrum (or --case for dimension runs)")
        return Spectrum(self.spectrum)

    def validate(self) -> None:
        """Check the CLI's own policy; each library call checks its own inputs.

        Seed, jobs, replicates, distribution, t*, nu, n >= p and q are
        refused by the library function that uses them, before its first draw.
        A law other than Wishart is refused here for the two kinds whose
        engine takes none, so that it is not silently ignored.
        """
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.kind in ("stein-haff", "invariance") and self.distribution != "wishart":
            law = ("draw Wishart only" if self.kind == "stein-haff"
                   else "compare Wishart with t:<nu>; set nu with --nu")
            raise ValueError(f"--dist does not apply to {self.kind} runs, which {law}")
        if (self.spectrum is not None) + (self.case is not None) + self.table2 > 1:
            raise ValueError("give one spectrum source: --spectrum, --case or --table2")
        if self.kind == "risk" and self.table2:
            return  # every tabulated risk spectrum has p = 10
        p = self.resolve_spectrum().p
        if self.kind == "risk" and p < 6:
            raise ValueError("risk runs compare the q=1 and q=2 estimators and need p >= 6")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentSpec)}


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "nan" if np.isnan(value) else f"{value:.6g}"
    return str(value)


def _render_csv(header: list[str], rows: list[list], footer: str) -> str:
    """The CSV bytes: header, formatted rows, then ``footer`` as a comment line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    buf.write(f"# {footer}, version={__version__}\n")
    return buf.getvalue()


def _emit(text: str, summary: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(summary)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_bias(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    spectrum = spec.resolve_spectrum()
    sim = simulate_bias(
        spectrum, spec.n, spec.distribution, spec.replicates, spec.seed, spec.jobs
    )
    try:
        expansion = bias_expansion(spectrum, spec.n)
    except ValueError:
        expansion = np.full(spectrum.p, np.nan)
    header = ["i", "lambda", "mc_mean_d", "expansion", "stderr"]
    rows = [
        [i + 1, spectrum.values[i], sim.mean_rates[i], expansion[i], sim.std_errors[i]]
        for i in range(spectrum.p)
    ]
    return header, rows


def _risk_row(values: tuple[float, ...], spec: ExperimentSpec) -> list:
    spectrum = Spectrum(values)
    cmp = compare_risks(
        spectrum,
        spec.n,
        _compared_weights(spectrum.p, spec.n),
        "quadratic",
        spec.distribution,
        spec.replicates,
        spec.seed,
        spec.jobs,
    )
    return list(values) + list(cmp.mean_losses) + list(cmp.std_errors)


def _run_risk(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    if spec.table2:
        spectra = list(cases.TABLE2_SPECTRA)
        p = 10
    else:
        spectrum = spec.resolve_spectrum()
        spectra = [tuple(spectrum.values)]
        p = spectrum.p
    header = (
        [f"tau{i}" for i in range(1, p + 1)]
        + ["risk0", "risk1", "risk2"]
        + ["se0", "se1", "se2"]
    )
    rows = [_risk_row(values, spec) for values in spectra]
    return header, rows


def _histogram_row(h: DimensionHistogram) -> list:
    return [h.criterion.label(), h.estimator_label, h.true_dim] + list(h.counts)


def _run_dimension(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    spectrum = spec.resolve_spectrum()
    p = spectrum.p
    criteria = [cumulative_criterion(spec.t_star), relative_criterion(spec.normalize_criterion2)]
    hists = dimension_experiment_for_spectrum(
        spectrum,
        spec.n,
        _compared_weights(p, spec.n),
        criteria,
        spec.replicates,
        spec.seed,
        distribution=spec.distribution,
        jobs=spec.jobs,
    )
    header = ["criterion", "estimator", "true_dim"] + [f"dim{k}" for k in range(p + 1)]
    return header, [_histogram_row(h) for h in hists]


def _run_invariance(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    spectrum = spec.resolve_spectrum()
    report = invariance_check(
        spectrum, spec.n, spec.nu, spec.replicates, spec.seed, spec.jobs
    )
    header = ["i", "ks_statistic", "p_value", "critical_1pct", "accept"]
    rows = [
        [
            i + 1,
            report.statistics[i],
            report.p_values[i],
            report.critical_value,
            bool(report.p_values[i] > report.alpha),
        ]
        for i in range(spectrum.p)
    ]
    return header, rows


def _run_stein_haff(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    spectrum = spec.resolve_spectrum()
    p = spectrum.p
    weights = [classical_weights(p, spec.n)]
    labels = ["beta0"]
    if p >= 4:
        weights.append(family_weights(p, spec.n, spec.q))
        labels.append(f"beta{spec.q}")
    checks = simulate_stein_haff(
        spectrum, spec.n, weights, spec.replicates, spec.seed, spec.jobs
    )
    header = [
        "estimator",
        "mean_trace",
        "se_trace",
        "mean_g",
        "se_g",
        "diff",
        "se_diff",
    ]
    rows = [
        [
            label,
            c.mean_trace,
            c.trace_std_error,
            c.mean_g,
            c.g_std_error,
            c.diff_mean,
            c.diff_std_error,
        ]
        for label, c in zip(labels, checks)
    ]
    return header, rows


_RUNNERS = {
    "bias": _run_bias,
    "risk": _run_risk,
    "dimension": _run_dimension,
    "invariance": _run_invariance,
    "stein-haff": _run_stein_haff,
}


def run(spec: ExperimentSpec) -> int:
    """Validate and execute one experiment, writing its CSV artifact."""
    spec.validate()
    header, rows = _RUNNERS[spec.kind](spec)
    text = _render_csv(header, rows, f"seed={spec.seed}, reps={spec.replicates}")
    dest = spec.out if spec.out is not None else "stdout"
    summary = (
        f"{spec.kind}: wrote {len(rows)} rows to {dest} "
        f"(n={spec.n}, reps={spec.replicates}, seed={spec.seed}, jobs={spec.jobs})"
    )
    _emit(text, summary, spec.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_spectrum(text: str) -> tuple[float, ...]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return tuple(cases.named_spectrum(text).values)
    return tuple(sorted(values, reverse=True))


def _add_common(sub: argparse.ArgumentParser) -> None:
    d = _DEFAULTS
    sub.add_argument("--n", type=int, help=f"degrees of freedom (default {d['n']})")
    sub.add_argument("--reps", type=int, help=f"Monte Carlo replicates (default {d['replicates']})")
    sub.add_argument("--seed", type=int, help=f"stream seed (default ${SEED_ENV_VAR} or {d['seed']})")
    sub.add_argument("--dist", help=f"sampling law: wishart or t:<nu> (default {d['distribution']})")
    sub.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sub.add_argument("--jobs", type=int, help=f"worker threads (default {d['jobs']})")
    sub.add_argument("--config", default=None, help="key=value file; flags override its entries")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-shrink",
        description="Shrinkage estimation of eigenvalue contribution rates: simulation harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bias", help="Monte Carlo bias of the sample contribution rates")
    sub.add_argument("--spectrum", default=None, help="comma list or named builtin (e.g. uniform10)")
    _add_common(sub)

    sub = subs.add_parser("risk", help="quadratic risk of the classical and shrinkage estimators")
    sub.add_argument("--spectrum", default=None, help="comma list or named builtin")
    sub.add_argument("--table2", action="store_true", help="run all 18 tabulated risk spectra")
    _add_common(sub)

    sub = subs.add_parser("dimension", help="histogram of the decided dimension over replicates")
    sub.add_argument("--spectrum", default=None, help="comma list or named builtin")
    sub.add_argument("--case", type=int, default=None, help="spiked case number 1-10")
    sub.add_argument("--tstar", type=float, help=f"cumulative cut-off (default {_DEFAULTS['t_star']})")
    sub.add_argument(
        "--normalize-for-criterion2",
        action="store_true",
        dest="normalize_criterion2",
        help="rescale shrunk estimates before the relative-size rule",
    )
    _add_common(sub)

    sub = subs.add_parser("invariance", help="KS comparison of rates from Wishart vs elliptical-t")
    sub.add_argument("--spectrum", default=None, help="comma list or named builtin")
    sub.add_argument("--nu", type=int, help=f"t degrees of freedom (default {_DEFAULTS['nu']})")
    _add_common(sub)

    sub = subs.add_parser("stein-haff", help="empirical check of the trace identity")
    sub.add_argument("--spectrum", default=None, help="comma list or named builtin")
    sub.add_argument("--q", type=int, help=f"family index for the shrunk row (default {_DEFAULTS['q']})")
    _add_common(sub)

    sub = subs.add_parser("weights", help="print a family weight vector and its condition report")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, default=1)
    sub.add_argument("--out", default=None, help="optional CSV path for the weights")

    sub = subs.add_parser("verify", help="run the acceptance suite, PASS/FAIL per criterion")
    sub.add_argument("--jobs", type=int, default=1)

    return parser


def _config_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(text)


_CONFIG_COERCE = {
    "n": int,
    "reps": int,
    "seed": int,
    "jobs": int,
    "case": int,
    "nu": int,
    "q": int,
    "tstar": float,
    "spectrum": str,
    "dist": str,
    "out": str,
    "table2": _config_bool,
    "normalize_criterion2": _config_bool,
}


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _merge_config(args: argparse.Namespace, entries: dict[str, str]) -> None:
    for key, raw in entries.items():
        if key not in _CONFIG_COERCE:
            raise ValueError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            continue
        current = getattr(args, key)
        if current is None or current is False:
            try:
                setattr(args, key, _CONFIG_COERCE[key](raw))
            except ValueError:
                raise ValueError(f"bad config value for {key}: {raw!r}") from None


def _resolve_seed(value: int | None) -> int | None:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from None


#: Arguments whose ExperimentSpec field has another name.
_FIELD_NAMES = {"reps": "replicates", "dist": "distribution", "tstar": "t_star"}


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Pass the spec only the values given; ExperimentSpec holds the defaults."""
    given = {}
    for key, value in vars(args).items():
        if key not in ("command", "config", "seed") and value is not None and value is not False:
            given[_FIELD_NAMES.get(key, key)] = value
    spectrum = given.pop("spectrum", "")
    if spectrum:
        given["spectrum"] = _parse_spectrum(spectrum)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        given["seed"] = seed
    return ExperimentSpec(kind=args.command, **given)


def _cmd_weights(args: argparse.Namespace) -> int:
    w = family_weights(args.p, args.n, args.q)
    report = check_conditions(w)
    print(f"beta(q={args.q}) for p={args.p}, n={args.n}, split m={w.m}:")
    print("  " + " ".join(f"{b:.6g}" for b in w.beta))
    print(
        f"conditions: c1={'holds' if report.c1_holds else 'FAILS'}, "
        f"c2={report.c2_value:.6g} ({'holds' if report.c2_holds else 'FAILS'}), "
        f"c3={report.c3_value:.6g} vs p={args.p} ({'holds' if report.c3_holds else 'FAILS'}), "
        f"m_used={report.m_used}"
    )
    if args.out is not None:
        rows = [[i, b] for i, b in enumerate(w.beta, start=1)]
        text = _render_csv(["i", "beta"], rows, f"p={args.p}, n={args.n}, q={args.q}")
        _emit(text, f"wrote {args.out}", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be positive, got {args.jobs}")
    from .acceptance import run_acceptance

    results = run_acceptance(jobs=args.jobs)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}")
        for line in res.details:
            print(f"     {line}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _merge_config(args, _load_config(args.config))
        if args.command == "weights":
            return _cmd_weights(args)
        if args.command == "verify":
            return _cmd_verify(args)
        spec = _spec_from_args(args)
        return run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
