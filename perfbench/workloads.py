"""The benchmark's workloads: generated inputs, one operation, its gate.

Each workload is a closed loop with one caller: an operation is one engine
call or one CLI invocation, and the next starts when the previous returns.
The workload seed drives a benchmark-side generator that picks the inputs
(Monte Carlo seeds, table rows); the program only ever sees those inputs.

Every workload accumulates the per-replicate variance of its headline
statistic, so that the run can project the time to a stated standard
error: wall per replicate x variance / target^2, i.e. timed wall x
(SE / target)^2.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def import_program() -> SimpleNamespace:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"spectra_shrink.{name}")
        for name in ("cases", "cli", "core", "estimators", "evaluation", "sampling")
    }
    origin = Path(modules["core"].__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"spectra_shrink was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def _mc_seeds(rng: np.random.Generator):
    while True:
        yield int(rng.integers(0, 2**63))


class Workload:
    """One workload; subclasses set the class attributes and the hooks below."""

    name: str
    p: int
    n: int
    reps: int  # replicates per operation
    jobs: int = 1
    statistic: str  # the headline statistic time_to_se_s projects
    target_se: float
    layers: tuple[str, ...]  # layers a traced run must see calls in

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.program = import_program()

    def describe(self) -> dict:
        return {
            "name": self.name, "p": self.p, "n": self.n,
            "reps_per_op": self.reps, "jobs": self.jobs, "statistic": self.statistic,
            "target_se": self.target_se, "loop": "closed, one caller",
        }

    def inputs(self):
        """The operation inputs, as a fresh iterator that repeats for a seed."""
        return ((None, s) for s in _mc_seeds(np.random.default_rng(self.seed)))

    def covered(self, attempted: int) -> bool:
        """Whether ``attempted`` operations cover every distinct input kind."""
        return attempted >= 1

    def run(self, inp, jobs: int | None = None):
        """One operation; ``jobs`` overrides the workload's worker count."""
        raise NotImplementedError

    def check(self, output) -> str | None:
        """None when the output passes the gate, else the reason it fails."""
        raise NotImplementedError

    def fingerprint(self, output) -> bytes:
        raise NotImplementedError

    def new_tally(self) -> dict:
        return {}

    def record(self, tally: dict, inp, output) -> None:
        raise NotImplementedError

    def variance(self, tally: dict) -> float:
        """Per-replicate variance of the headline statistic, pooled over the phase."""
        raise NotImplementedError


def _arrays_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class EntropyRisk(Workload):
    name = "entropy-risk-p10"
    p, n, reps = 10, 30, 4096
    statistic = "paired q1 - classical entropy-loss difference, on every one of the 18 rows"
    target_se = 1e-3
    layers = ("sampling", "core", "evaluation")
    min_margin = 3.0  # criterion 3: risk falls by >= 3 paired SEs

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        est, cases = self.program.estimators, self.program.cases
        self.weights = [est.classical_weights(self.p, self.n),
                        est.family_weights(self.p, self.n, 1),
                        est.family_weights(self.p, self.n, 2)]
        self.spectra = [cases.table2_spectrum(r) for r in range(1, len(cases.TABLE2_SPECTRA) + 1)]

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        seeds = _mc_seeds(rng)
        while True:
            for row in rng.permutation(len(self.spectra)):
                yield int(row), next(seeds)

    def covered(self, attempted: int) -> bool:
        return attempted >= len(self.spectra)

    def run(self, inp, jobs: int | None = None):
        row, mc_seed = inp
        return self.program.evaluation.compare_risks(
            self.spectra[row], self.n, self.weights, "entropy", "wishart", self.reps, mc_seed,
            jobs or self.jobs,
        )

    def check(self, output) -> str | None:
        margins = -output.diff_means / output.diff_std_errors
        if not np.all(margins >= self.min_margin):
            return f"entropy risk fell by only {margins.min():.2f} paired SEs (< {self.min_margin})"
        return None

    def fingerprint(self, output) -> bytes:
        return _arrays_bytes(output.mean_losses, output.std_errors,
                             output.diff_means, output.diff_std_errors)

    def new_tally(self) -> dict:
        return {"reps": np.zeros(len(self.spectra)), "sumvar": np.zeros(len(self.spectra))}

    def record(self, tally, inp, output) -> None:
        row = inp[0]
        tally["reps"][row] += output.replicates
        tally["sumvar"][row] += output.diff_std_errors[0] ** 2 * output.replicates**2

    def variance(self, tally) -> float:
        # Summed over rows: the projection is the time to reach the target
        # SE on every row of the table.
        seen = tally["reps"] > 0
        return float(np.sum(tally["sumvar"][seen] / tally["reps"][seen]))


class BiasControlVariate(Workload):
    name = "bias-cv-p3"
    p, n, reps = 3, 200, 64 * 4096
    statistic = "control-variate mean rate, worst coordinate"
    target_se = 2e-6
    layers = ("sampling", "core", "evaluation")
    max_residual = 5e-4  # criterion 7 at n=200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spectrum = self.program.core.Spectrum((0.5, 0.3, 0.2))
        self.expansion = self.program.evaluation.bias_expansion(self.spectrum, self.n)

    def run(self, inp, jobs: int | None = None):
        return self.program.evaluation.simulate_bias(
            self.spectrum, self.n, "wishart", self.reps, inp[1], jobs or self.jobs,
            control_variate=True,
        )

    def check(self, output) -> str | None:
        resid = float(np.abs(output.mean_rates - self.expansion).max())
        if not resid < self.max_residual:
            return f"max |mc - expansion| = {resid:.2e} (>= {self.max_residual:.0e})"
        return None

    def fingerprint(self, output) -> bytes:
        return _arrays_bytes(output.mean_rates, output.std_errors)

    def new_tally(self) -> dict:
        return {"reps": 0, "sumvar": np.zeros(self.p)}

    def record(self, tally, inp, output) -> None:
        tally["reps"] += output.replicates
        tally["sumvar"] += output.std_errors**2 * output.replicates**2

    def variance(self, tally) -> float:
        return float(np.max(tally["sumvar"] / tally["reps"]))


class EllipticalDimension(Workload):
    name = "elliptical-dimension-n100"
    p, n, reps, jobs = 10, 100, 2 * 4096, 2
    statistic = "share of replicates in the largest cell of the leading histogram row"
    target_se = 1e-3
    layers = ("sampling", "core", "dimension", "cli")
    case = 1
    # criterion 9: case 1, relative-size rule, every estimator at dim 5
    concentration_dim, concentration, concentration_tol = 5, 0.995, 0.005

    def __init__(self, seed: int, out_dir: Path = OUT_DIR) -> None:
        super().__init__(seed)
        cli = self.program.cli
        cli.ExperimentSpec(kind="dimension", case=self.case, n=self.n, replicates=self.reps,
                           distribution="t:5", jobs=self.jobs).validate()
        self.out_dir = out_dir

    def argv(self, mc_seed: int, jobs: int, out: Path) -> list[str]:
        return ["dimension", "--case", str(self.case), "--n", str(self.n), "--dist", "t:5",
                "--reps", str(self.reps), "--seed", str(mc_seed), "--jobs", str(jobs),
                "--out", str(out)]

    def run(self, inp, jobs: int | None = None):
        jobs = jobs or self.jobs
        self.out_dir.mkdir(parents=True, exist_ok=True)
        out = self.out_dir / f"{self.name}-j{jobs}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.program.cli.main(self.argv(inp[1], jobs, out))
        if code != 0:
            raise RuntimeError(f"spectra-shrink dimension exited with code {code}")
        return out.read_bytes()

    @staticmethod
    def rows(output: bytes) -> list[list[str]]:
        lines = [ln for ln in output.decode().splitlines() if not ln.startswith("#")]
        return list(csv.reader(lines))[1:]

    def check(self, output) -> str | None:
        rows = self.rows(output)
        if len(rows) != 6:
            return f"expected 6 histogram rows, got {len(rows)}"
        for criterion, estimator, _, *counts in rows:
            if sum(map(int, counts)) != self.reps:
                return f"{criterion} {estimator}: counts sum to {sum(map(int, counts))}, not {self.reps}"
            if criterion == "relative_size":
                share = int(counts[self.concentration_dim]) / self.reps
                if abs(share - self.concentration) > self.concentration_tol:
                    return (f"relative_size {estimator} at dim {self.concentration_dim}: "
                            f"{share:.4f} not within {self.concentration} +/- {self.concentration_tol}")
        return None

    def fingerprint(self, output) -> bytes:
        return output

    def new_tally(self) -> dict:
        return {"counts": np.zeros(self.p + 1)}

    def record(self, tally, inp, output) -> None:
        tally["counts"] += np.array([int(c) for c in self.rows(output)[0][3:]])

    def variance(self, tally) -> float:
        share = tally["counts"].max() / tally["counts"].sum()
        return float(share * (1.0 - share))


WORKLOADS = {w.name: w for w in (EntropyRisk, BiasControlVariate, EllipticalDimension)}
