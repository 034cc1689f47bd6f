"""Contribution-rate estimators and the shrinkage weight family.

The classical estimator is the sample rates themselves,
``SampleDecomposition.rates``. The shrinkage family deflates the leading
rates and inflates the trailing ones through a weight vector indexed by an
integer q; the condition checker verifies the three inequalities under
which the shrunk plug-in covariance dominates the classical one under
entropy loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContributionRates, SampleDecomposition, _check_dof, _readonly_vector

__all__ = [
    "CONDITION_TOL",
    "ShrinkageWeights",
    "ConditionReport",
    "classical_weights",
    "family_weights",
    "shrink_estimate",
    "plugin_covariance",
    "check_conditions",
    "condition2_family_bound",
]

#: Absolute slack for the equality-boundary condition checks.
CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ShrinkageWeights:
    """Multiplicative weights applied to the sample contribution rates.

    ``q`` is set when the vector comes from the shrinkage family, in which
    case the family pattern (non-decreasing, at most one below/above unity
    around the split index ``m = p // 2``) is enforced. ``dof`` records the
    degrees of freedom the weights were built for, an integer n >= p.
    """

    beta: np.ndarray
    dof: int
    q: int | None = None

    def __post_init__(self) -> None:
        beta = _readonly_vector(self.beta, "weights")
        _check_dof(self.dof, beta.size)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "dof", int(self.dof))
        if self.q is not None:
            if np.any(np.diff(beta) < 0.0):
                raise ValueError("family weights must be non-decreasing")
            if np.any(beta[: self.m] > 1.0) or np.any(beta[self.m :] < 1.0):
                raise ValueError("family weights must straddle unity at the split index")

    @property
    def p(self) -> int:
        return int(self.beta.size)

    @property
    def m(self) -> int:
        return self.p // 2


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three dominance conditions for a weight vector."""

    c1_holds: bool
    c2_value: float
    c2_holds: bool
    c3_value: float
    c3_holds: bool
    m_used: int


def classical_weights(p: int, n: int) -> ShrinkageWeights:
    """All-ones weights: shrinking with these reproduces the sample rates."""
    return ShrinkageWeights(beta=np.ones(p), dof=n, q=None)


def family_weights(p: int, n: int, q: int) -> ShrinkageWeights:
    """Shrinkage weight vector for a given family index q.

    With m = floor(p / 2), the first m - q weights are n / (n + p - 2q + 1 - 2i),
    the middle block is one, and the last m - q weights are
    n / (n + p + 2q + 1 - 2i) (indices i are 1-based).

    Parameters
    ----------
    p, n : int
        Dimension and degrees of freedom, n >= p >= 4.
    q : int
        Family index, 1 <= q <= p/2 - 1. Larger q moves the weights closer
        to one (milder shrinkage).
    """
    if not isinstance(p, (int, np.integer)) or p < 4:
        raise ValueError(f"family weights need p >= 4, got {p!r}")
    _check_dof(n, p)
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= p / 2 - 1:
        raise ValueError(f"q must satisfy 1 <= q <= p/2 - 1 = {p / 2 - 1:g}, got {q!r}")
    m = p // 2
    lower_denoms = n + p - 2 * q + 1.0 - 2 * np.arange(1, m - q + 1)
    upper_denoms = n + p + 2 * q + 1.0 - 2 * np.arange(p - m + q + 1, p + 1)
    beta = np.ones(p)
    beta[: m - q] = n / lower_denoms
    beta[p - m + q :] = n / upper_denoms
    return ShrinkageWeights(beta=beta, dof=int(n), q=int(q))


def _compared_weights(p: int, n: int) -> list[ShrinkageWeights]:
    """The estimators every comparison runs: classical, then q = 1 and q = 2 where the family exists."""
    return [classical_weights(p, n)] + [family_weights(p, n, q) for q in (1, 2) if q <= p / 2 - 1]


def _stack_betas(weights_list: list[ShrinkageWeights], p: int) -> np.ndarray:
    """Weight vectors as rows, each checked against the dimension p: the one owner of that rule."""
    if not weights_list:
        raise ValueError("need at least one weight vector")
    for w in weights_list:
        if w.p != p:
            raise ValueError(f"weight length {w.p} does not match dimension {p}")
    return np.stack([w.beta for w in weights_list])


def shrink_estimate(decomp: SampleDecomposition, weights: ShrinkageWeights) -> ContributionRates:
    """Componentwise product of the weights with the sample rates.

    The estimator does not sum to one by design.
    """
    return ContributionRates(_stack_betas([weights], decomp.p)[0] * decomp.rates)


def plugin_covariance(decomp: SampleDecomposition, estimate: ContributionRates) -> np.ndarray:
    """Rebuild a covariance estimate H diag(estimate) H' from the sample basis.

    Near-singular S limits what the dense matrix is good for: the entropy
    loss of it (``evaluation.entropy_loss``) loses accuracy in proportion to
    cond(S), up to about cond(S) * eps; at n = p = 7 and cond S = 5.4e11 it
    was off by 1.3e-7 against a 60-digit reference. No engine takes this
    route: they form the loss in the sample eigenbasis, from the rates and
    the squared eigenvector entries.
    """
    if estimate.p != decomp.p:
        raise ValueError(f"estimate length {estimate.p} does not match dimension {decomp.p}")
    h = decomp.eigenvectors
    mat = (h * estimate.rates) @ h.T
    return 0.5 * (mat + mat.T)


def _condition2_value(beta: np.ndarray, n: int, m: int) -> float:
    p = beta.size
    i = np.arange(1, p + 1)
    coeff = np.where(i <= m, n + p - 1.0 - 2 * i, n + p + 1.0 - 2 * i)
    return float(np.sum(coeff * (beta - 1.0)))


def check_conditions(weights: ShrinkageWeights) -> ConditionReport:
    """Evaluate the three dominance conditions for a weight vector at its ``dof``.

    The split index m comes from the largest position where the weights are
    still at most one while the remainder are at least one; when no such
    split exists the first condition fails and the weighted sum is reported
    at the m that minimizes it.
    """
    beta = weights.beta
    p = beta.size
    n = weights.dof
    tol = CONDITION_TOL

    nondecreasing = bool(np.all(np.diff(beta) >= -tol))
    le_one = beta <= 1.0 + tol
    ge_one = beta >= 1.0 - tol
    candidates = [m for m in range(1, p) if np.all(le_one[:m]) and np.all(ge_one[m:])]
    c1_holds = nondecreasing and bool(candidates)

    if candidates:
        m_used = max(candidates)
        c2_value = _condition2_value(beta, n, m_used)
    else:
        values = [(_condition2_value(beta, n, m), m) for m in range(1, p)]
        c2_value, m_used = min(values)
    c2_holds = c2_value <= tol

    c3_value = float(np.sum(1.0 / beta))
    c3_holds = c3_value <= p + tol

    return ConditionReport(
        c1_holds=c1_holds,
        c2_value=c2_value,
        c2_holds=c2_holds,
        c3_value=c3_value,
        c3_holds=c3_holds,
        m_used=m_used,
    )


def condition2_family_bound(weights: ShrinkageWeights) -> float:
    """Bounding sum certifying the weighted-sum condition for family weights.

    Replaces the condition coefficients with the shifted ones that match the
    family denominators; for every valid family vector the result is exactly
    zero, which is what makes the weighted-sum condition hold.
    """
    if weights.q is None:
        raise ValueError("the bounding sum is defined for family weights only")
    beta = weights.beta
    p = beta.size
    n = weights.dof
    q = weights.q
    m = weights.m
    i = np.arange(1, p + 1)
    lower = (n + p - 2 * q + 1.0 - 2 * i) * (beta - 1.0)
    upper = (n + p + 2 * q + 1.0 - 2 * i) * (beta - 1.0)
    return float(np.sum(lower[: m - q]) + np.sum(upper[p - m + q :]))
