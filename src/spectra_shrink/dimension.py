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
from .evaluation import _run_chunks, _unit_scale

__all__ = [
    "CumulativeCriterion",
    "RelativeCriterion",
    "DimensionHistogram",
    "decide",
    "dimension_experiment_for_spectrum",
]


@dataclass(frozen=True)
class CumulativeCriterion:
    """The cumulative-percentage rule: the smallest m whose leading rates sum to at least ``t_star``.

    The comparison is inclusive. It decides p when even the full sum stays
    below the cut-off, which can happen for shrunk (non-normalized)
    estimates.
    """

    t_star: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.t_star < 1.0:
            raise ValueError(f"cumulative criterion needs t* in (0, 1), got {self.t_star!r}")

    def label(self) -> str:
        return f"cumulative(t*={self.t_star:g})"

    def decisions(self, rates: np.ndarray) -> np.ndarray:
        """The decided dimension of each rate vector along the last axis of ``rates``."""
        reached = np.cumsum(rates, axis=-1) >= self.t_star
        return np.where(reached.any(axis=-1), np.argmax(reached, axis=-1) + 1, rates.shape[-1])


@dataclass(frozen=True)
class RelativeCriterion:
    """The relative-size rule: the number of rates strictly exceeding the uniform level 1/p.

    ``normalize`` rescales each rate vector to sum to one first. Zero (a
    degenerate decision) is possible only when no rate clears the level,
    e.g. exactly uniform rates.
    """

    normalize: bool = False

    def label(self) -> str:
        return "relative_size(normalized)" if self.normalize else "relative_size"

    def decisions(self, rates: np.ndarray) -> np.ndarray:
        """The decided dimension of each rate vector along the last axis of ``rates``."""
        p = rates.shape[-1]
        if self.normalize:
            rates = rates / rates.sum(axis=-1, keepdims=True)
        return (rates > 1.0 / p).sum(axis=-1)


@dataclass(frozen=True)
class DimensionHistogram:
    """Counts of decided dimensions: ``counts[k]`` replicates decided k, k = 0..p.

    Dimension 0 is decided only when no rate exceeds 1/p under the relative
    rule; it stays zero in every tabulated scenario.
    """

    counts: np.ndarray
    true_dim: int
    criterion: CumulativeCriterion | RelativeCriterion
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


def decide(rates: ContributionRates, criterion: CumulativeCriterion | RelativeCriterion) -> int:
    """The dimension ``criterion`` chooses for one vector of rates, decided as a one-row batch."""
    return int(criterion.decisions(rates.rates[None, :])[0])


def _estimator_label(weights: ShrinkageWeights) -> str:
    if weights.q is not None:
        return f"q{weights.q}"
    return "classical" if np.all(weights.beta == 1.0) else "custom"


def dimension_experiment_for_spectrum(
    spectrum: Spectrum,
    n: int,
    estimators: list[ShrinkageWeights],
    criteria: list[CumulativeCriterion | RelativeCriterion],
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
    (``RelativeCriterion(normalize=True)``). The rates are scale-free, so
    the draws are taken at unit scale (``_unit_scale``), and the population
    rates are formed there too.
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    p = spectrum.p
    betas = _stack_betas(estimators, p)
    spectrum = _unit_scale(spectrum)
    population = spectrum.values / spectrum.values.sum()
    offsets = (p + 1) * np.arange(len(estimators))[:, None]

    def stat(s, l, d, q):
        # one pass a criterion decides every estimator; one bincount counts
        # them all, estimator e's decisions offset by e (p + 1)
        est = betas[:, None, :] * d
        counts = np.empty((len(criteria), len(estimators), p + 1), dtype=np.int64)
        for c, criterion in enumerate(criteria):
            dims = (criterion.decisions(est) + offsets).ravel()
            counts[c] = np.bincount(dims, minlength=offsets.size * (p + 1)).reshape(-1, p + 1)
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
