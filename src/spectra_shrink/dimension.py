"""Dimension-decision criteria and the dimension-histogram experiment.

Two rules: the smallest index whose cumulative rate reaches a cut-off, and
the count of rates exceeding the uniform level 1/p. Both are applied to
estimated rates replicate by replicate to build histograms of the decided
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContributionRates, Spectrum
from .estimators import ShrinkageWeights, _stack_betas
from .evaluation import _run_chunks

__all__ = [
    "DimensionCriterion",
    "DimensionHistogram",
    "cumulative_criterion",
    "relative_criterion",
    "decide",
    "dimension_experiment_for_spectrum",
]


@dataclass(frozen=True)
class DimensionCriterion:
    """A dimension rule: 'cumulative' with a cut-off, or 'relative'.

    ``normalize`` makes the relative rule rescale each estimate to sum to
    one before comparing it with 1/p; the cumulative rule takes no rescaling.
    """

    kind: str
    t_star: float | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.kind == "cumulative":
            if self.t_star is None or not 0.0 < self.t_star < 1.0:
                raise ValueError(f"cumulative criterion needs t* in (0, 1), got {self.t_star!r}")
            if self.normalize:
                raise ValueError("the cumulative criterion takes no rescaling")
        elif self.kind == "relative":
            if self.t_star is not None:
                raise ValueError("the relative-size criterion takes no cut-off")
        else:
            raise ValueError(f"unknown criterion kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "cumulative":
            return f"cumulative(t*={self.t_star:g})"
        return "relative_size(normalized)" if self.normalize else "relative_size"


def cumulative_criterion(t_star: float = 0.8) -> DimensionCriterion:
    return DimensionCriterion(kind="cumulative", t_star=t_star)


def relative_criterion(normalize: bool = False) -> DimensionCriterion:
    return DimensionCriterion(kind="relative", normalize=normalize)


@dataclass(frozen=True)
class DimensionHistogram:
    """Counts of decided dimensions: ``counts[k]`` replicates decided k, k = 0..p.

    Dimension 0 is decided only when no rate exceeds 1/p under the relative
    rule; it stays zero in every tabulated scenario.
    """

    counts: np.ndarray
    true_dim: int
    criterion: DimensionCriterion
    estimator_label: str

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0) or not np.array_equal(counts, self.counts):
            raise ValueError("counts must be a vector of non-negative integers")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def replicates(self) -> int:
        return int(self.counts.sum())


def decide(rates: ContributionRates, criterion: DimensionCriterion) -> int:
    """The dimension ``criterion`` chooses for one vector of rates.

    Cumulative: the smallest m whose leading rates sum to at least the
    cut-off, or p when even the full sum stays below it, which can happen
    for shrunk (non-normalized) estimates. Relative: the number of rates
    strictly exceeding the uniform level 1/p, after rescaling the rates to
    sum to one if the criterion normalizes; zero (a degenerate decision) is
    possible only when no rate clears it, e.g. exactly uniform rates.
    """
    return int(_decisions(rates.rates[None, :], criterion)[0])


def _cumulative_batch(rates: np.ndarray, t_star: float) -> np.ndarray:
    cum = np.cumsum(rates, axis=1)
    reached = cum >= t_star
    dims = np.argmax(reached, axis=1) + 1
    return np.where(reached.any(axis=1), dims, rates.shape[1]).astype(np.int64)


def _relative_batch(rates: np.ndarray) -> np.ndarray:
    p = rates.shape[1]
    return (rates > 1.0 / p).sum(axis=1).astype(np.int64)


def _decisions(rates: np.ndarray, criterion: DimensionCriterion) -> np.ndarray:
    if criterion.kind == "cumulative":
        return _cumulative_batch(rates, criterion.t_star)
    if criterion.normalize:
        rates = rates / rates.sum(axis=1, keepdims=True)
    return _relative_batch(rates)


def _estimator_label(weights: ShrinkageWeights) -> str:
    if weights.q is not None:
        return f"q{weights.q}"
    return "classical" if np.all(weights.beta == 1.0) else "custom"


def dimension_experiment_for_spectrum(
    spectrum: Spectrum,
    n: int,
    estimators: list[ShrinkageWeights],
    criteria: list[DimensionCriterion],
    replicates: int,
    seed: int,
    distribution: str = "wishart",
    jobs: int = 1,
) -> list[DimensionHistogram]:
    """Histogram the decided dimension for every (criterion, estimator) pair.

    The true dimension of each histogram is the criterion applied to the
    population rates of ``spectrum``; for a spiked case pass
    ``cases.spiked_case(k)``. Shrunk estimates are compared against 1/p as
    they are unless the relative criterion rescales them first
    (``relative_criterion(normalize=True)``).
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    p = spectrum.p
    betas = _stack_betas(estimators, p)
    population = spectrum.values / spectrum.values.sum()

    def stat(s, l, d, q):
        counts = np.zeros((len(criteria), len(estimators), p + 1), dtype=np.int64)
        for e, beta in enumerate(betas):
            est = beta[None, :] * d
            for c, criterion in enumerate(criteria):
                dims = _decisions(est, criterion)
                counts[c, e] = np.bincount(dims, minlength=p + 1)
        return counts

    totals = _run_chunks(spectrum, n, distribution, replicates, seed, jobs, False, stat, np.add)

    out = []
    for c, criterion in enumerate(criteria):
        true_dim = decide(ContributionRates(population), criterion)
        for e, weights in enumerate(estimators):
            out.append(
                DimensionHistogram(
                    counts=totals[c, e],
                    true_dim=true_dim,
                    criterion=criterion,
                    estimator_label=_estimator_label(weights),
                )
            )
    return out
