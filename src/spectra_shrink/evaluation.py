"""Loss functions, risk functionals, and the Monte Carlo engines.

Every engine runs through one chunked runner: sample a chunk of scatter
draws (see sampling), decompose it, and reduce it. Each chunk's reduction
is folded into a running result in chunk order, so results are identical
for any worker count. Every mean and standard error comes from one
estimator, ``_estimate``, the parity-fold cross-fit; a plain run has an
empty control basis. Only ``sample_rates`` keeps per-replicate arrays.
All estimators are always evaluated on the same draws: risk comparisons
are paired by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import exp, fsum, lgamma, log, sqrt
from typing import ClassVar

import numpy as np

from . import sampling
from .core import (
    ContributionRates,
    SampleDecomposition,
    Spectrum,
    _check_dof,
    _readonly_matrix,
    _unit_exponent,
    eigh_descending_batch,
)
from .estimators import ShrinkageWeights, _stack_betas, classical_weights

__all__ = [
    "RiskComparison",
    "BiasSimulation",
    "SteinHaffCheck",
    "InvarianceReport",
    "entropy_loss",
    "quadratic_loss",
    "stein_haff_G",
    "entropy_risk_difference_bound",
    "bias_expansion",
    "compare_risks",
    "simulate_bias",
    "simulate_stein_haff",
    "sample_rates",
    "invariance_check",
]

#: Smallest adjacent eigenvalue gap, relative to their sum, that every
#: eigenvalue-difference denominator accepts, scalar or batched (``_tied``).
EIGENGAP_REL_TOL = 1e-12

#: Largest relative gap between a sampled matrix's eigenvalue sum and its
#: trace that the batched engines accept; a correct solve leaves ~1e-15.
_TRACE_REL_TOL = 1e-10

#: Bytes of eigenvectors, 8 p^2 a row, that ``_batch_rates`` decomposes at a
#: time on the vector path: 327 rows at p = 10, 81 at p = 20.
_VECTOR_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class RiskComparison:
    """Paired risks of several estimators on identical draws.

    ``diff_means``/``diff_std_errors`` describe each non-first estimator's
    per-replicate loss minus the first (baseline) estimator's.
    """

    mean_losses: np.ndarray
    std_errors: np.ndarray
    diff_means: np.ndarray
    diff_std_errors: np.ndarray
    replicates: int


@dataclass(frozen=True)
class BiasSimulation:
    """Monte Carlo means of the sample contribution rates per coordinate."""

    mean_rates: np.ndarray
    std_errors: np.ndarray
    replicates: int


@dataclass(frozen=True)
class SteinHaffCheck:
    """Paired comparison of tr(estimate x inverse truth) with its G functional."""

    mean_trace: float
    trace_std_error: float
    mean_g: float
    g_std_error: float
    diff_mean: float
    diff_std_error: float
    replicates: int


@dataclass(frozen=True)
class InvarianceReport:
    """Per-coordinate two-sample KS comparison of contribution rates at the 1% level.

    ``critical_value`` is the asymptotic KS critical value at ``alpha`` for
    two samples of ``replicates`` draws each.
    """

    alpha: ClassVar[float] = 0.01

    statistics: np.ndarray
    p_values: np.ndarray
    replicates: int
    critical_value: float = field(init=False)

    def __post_init__(self) -> None:
        critical = sqrt(-np.log(self.alpha / 2.0) / 2.0) * sqrt(2.0 / self.replicates)
        object.__setattr__(self, "critical_value", float(critical))

    @property
    def accepted(self) -> bool:
        return bool(np.all(self.p_values > self.alpha))


def entropy_loss(estimate: np.ndarray, truth: np.ndarray) -> float:
    """tr(estimate truth^-1) - log det(estimate truth^-1) - p.

    Zero exactly when the estimate equals the truth; both matrices must be
    positive definite. The value is no more accurate than the matrices'
    conditioning allows: for a dense plug-in estimate H diag(beta d) H' of a
    near-singular S (``plugin_covariance``) the error grows with cond(S), up
    to about cond(S) * eps, and at n = p = 7 and cond S = 5.4e11 it was
    1.3e-7 against a 60-digit reference. No engine takes this route: they
    form the loss in the sample eigenbasis (``_entropy_losses``).
    """
    est = _readonly_matrix(estimate, "estimate")
    tru = _readonly_matrix(truth, "truth")
    if est.shape != tru.shape:
        raise ValueError(f"matrices must have the same shape, got {est.shape} vs {tru.shape}")
    p = est.shape[0]
    try:
        np.linalg.cholesky(tru)
    except np.linalg.LinAlgError:
        raise ValueError("truth matrix must be positive definite") from None
    try:
        np.linalg.cholesky(est)
    except np.linalg.LinAlgError:
        raise ValueError("estimate matrix must be positive definite") from None
    ratio = np.linalg.solve(tru, est)
    trace = float(np.trace(ratio))
    sign, logdet = np.linalg.slogdet(ratio)
    if sign <= 0:
        raise ValueError("estimate x truth^-1 has non-positive determinant")
    value = trace - logdet - p
    if value < 0.0:
        if value < -1e-10:
            raise ValueError(f"entropy loss evaluated negative ({value:.3e})")
        value = 0.0
    return float(value)


def quadratic_loss(estimate: ContributionRates, truth: ContributionRates) -> float:
    """Sum of squared relative errors of the estimated rates."""
    if estimate.p != truth.p:
        raise ValueError(f"estimate length {estimate.p} does not match dimension {truth.p}")
    return float(np.sum((1.0 - estimate.rates / truth.rates) ** 2))


def _tied(values: np.ndarray) -> np.ndarray:
    """Per row of descending eigenvalues, a vector or a (rows, p) stack: a gap below ``EIGENGAP_REL_TOL`` of its sum."""
    return np.min(values[..., :-1] - values[..., 1:], axis=-1) < EIGENGAP_REL_TOL * values.sum(axis=-1)


def _check_distinct(values: np.ndarray, name: str) -> None:
    """Refuse input eigenvalues, sample or population, that ``_tied`` flags: a bad input, exit 2."""
    if _tied(values):
        raise ValueError(
            f"{name} must be distinct (every gap at least {EIGENGAP_REL_TOL:.0e} of their sum); "
            "the eigenvalue-difference denominators vanish"
        )


def stein_haff_G(decomp: SampleDecomposition, weights: ShrinkageWeights, n: int) -> float:
    """Sigma-free functional whose Wishart expectation matches E[tr(estimate Sigma^-1)].

    For the plug-in estimate with weights beta this is
    (sum l)^-1 {2 sum_{i<j} (beta_i - beta_j) l_j / (l_i - l_j)
                + sum_i (n + p + 1 - 2i - 2 d_i) beta_i}.
    G is homogeneous of degree -1 in l, so it is formed, and the eigenvalues
    tie-tested (``_tied``), at unit scale, on u = l / 2^k
    (``_unit_exponent``), and G(l) is G(u) times 2^-k, an exact power of two.
    """
    l = decomp.eigenvalues
    k = _unit_exponent(l)
    u = np.ldexp(l, -k)
    d = decomp.rates
    beta = _stack_betas([weights], decomp.p)[0]
    p = l.size
    _check_distinct(u, "sample eigenvalues")
    iu, ju = np.triu_indices(p, 1)
    pair = np.sum((beta[iu] - beta[ju]) * u[ju] / (u[iu] - u[ju]))
    i = np.arange(1, p + 1)
    linear = np.sum((n + p + 1.0 - 2 * i - 2 * d) * beta)
    return float(np.ldexp((2.0 * pair + linear) / u.sum(), -k))


def entropy_risk_difference_bound(
    decomp: SampleDecomposition, weights: ShrinkageWeights, n: int
) -> float:
    """Per-draw integrand of the entropy risk difference versus the classical plug-in.

    Equals G(shrunk) - G(classical) - log prod(beta); non-positive for every
    draw whenever the weights satisfy the three dominance conditions, which
    is the executable content of the dominance proof.
    """
    g_weighted = stein_haff_G(decomp, weights, n)
    g_classical = stein_haff_G(decomp, classical_weights(decomp.p, weights.dof), n)
    return g_weighted - g_classical - float(np.sum(np.log(weights.beta)))


def bias_expansion(truth: Spectrum, n: int) -> np.ndarray:
    """First-order approximation of the expected sample contribution rates.

    E(d_i) is the population rate tau_i = lambda_i / sum lambda plus n^-1
    times 2 tau_i (sum tau_j^2) - 2 tau_i^2
    + tau_i sum_{j != i} tau_j / (tau_i - tau_j).
    It is formed on tau, taken from the unit-scale lambda (``_unit_scale``),
    so it is scale-free and finite at any finite spectrum, also one whose sum
    overflows. Requires all eigenvalues distinct and, as the sampler does,
    an integer n >= p.
    """
    _check_dof(n, truth.p)
    lam = _unit_scale(truth).values
    _check_distinct(lam, "eigenvalues")
    tau = lam / lam.sum()
    coeff = 2.0 * tau * np.sum(tau**2) - 2.0 * tau**2 + tau * _gap_ratios(tau).sum(axis=1)
    return tau + coeff / n


def _gap_ratios(lam: np.ndarray) -> np.ndarray:
    """lambda_j / (lambda_i - lambda_j) at (i, j) off the diagonal, 0 on it."""
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    ratio = lam[None, :] / diff
    np.fill_diagonal(ratio, 0.0)
    return ratio


# ---------------------------------------------------------------------------
# Monte Carlo engines
# ---------------------------------------------------------------------------


def _batch_rates(s: np.ndarray, x: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Eigenvalues l, rates d and, given weights x, u = x @ (v * v) of a chunk, shape (rows, p).

    u_rk = sum_j x_j v_rjk^2 is all the engines read of the eigenvectors v.
    Without x, ``eigh_descending_batch`` decomposes the chunk in one call:
    the 3 x 3 closed form at p = 3 and otherwise LAPACK on the tridiagonals
    that the batched Householder reduction leaves. With x, LAPACK decomposes
    each S, in row blocks of ``_VECTOR_BLOCK_BYTES`` of vectors, and each
    block's v, q = v * v and u are formed before the next block's: no v or q
    the size of the chunk is held. Every step acts row by row, so a row's
    bits do not depend on the blocks. The engines read no eigenvector sign,
    so none can depend on one. Each row is checked against the diagonal of
    S, a few vector operations: a non-positive eigenvalue raises, and so
    does an eigenvalue sum that departs from tr S, or a diagonal
    sum_k l_k q_jk that departs from S_jj, by more than ``_TRACE_REL_TOL``
    of the trace, in that order. The first gap is read off
    |sum w - tr S| / sum w = |1 - tr S / sum w| at the extremes of the ratio.
    """
    diag = np.diagonal(s, axis1=1, axis2=2)
    trace = diag.sum(axis=1)
    u = None
    if x is None:
        w = eigh_descending_batch(s, compute_vectors=False)[0]
    else:
        rows, p = diag.shape
        # w takes the layout eigh gives a whole chunk, a descending view of
        # ascending rows, so every sum over it below keeps its bits
        w = np.empty((rows, p))[:, ::-1]
        u = np.empty((rows, p))
        step = max(1, _VECTOR_BLOCK_BYTES // (8 * p * p))
        spread = []
        for lo in range(0, rows, step):
            block = slice(lo, lo + step)
            w[block], v = eigh_descending_batch(s[block])
            q = v * v
            np.matmul(x, q, out=u[block])
            gap = (q @ w[block][:, :, None])[:, :, 0] - diag[block]
            spread.append((np.abs(gap, out=gap) / trace[block, None]).max())
    if np.any(w[:, -1] <= 0.0):
        raise RuntimeError("sampled scatter matrix with a non-positive eigenvalue")
    total = w.sum(axis=1)
    ratio = trace / total
    worst = max(ratio.max() - 1.0, 1.0 - ratio.min())
    if not worst <= _TRACE_REL_TOL:  # also catches a NaN
        raise RuntimeError(
            f"eigenvalue sum departs from the trace by {worst:.1e} relative "
            f"(tolerance {_TRACE_REL_TOL:.0e}); the batched eigensolver failed"
        )
    if u is not None:
        worst = np.max(spread)  # a NaN in any block propagates
        if not worst <= _TRACE_REL_TOL:
            raise RuntimeError(
                f"eigenvectors reconstruct diag S only to {worst:.1e} of the trace "
                f"(tolerance {_TRACE_REL_TOL:.0e}); the batched eigensolver failed"
            )
    return w, w / total[:, None], u


def _check_replicates(replicates) -> None:
    """Refuse a non-integer replicate count or one below 100."""
    if not isinstance(replicates, (int, np.integer)):
        raise ValueError(f"replicates must be an integer, got {replicates!r}")
    if replicates < 100:
        raise ValueError(f"replicates must be at least 100, got {replicates}")


def _run_chunks(
    spectrum: Spectrum,
    n: int,
    distribution: str,
    replicates: int,
    seed: int,
    jobs: int,
    x: np.ndarray | None,
    stat,
    fold,
):
    """Fold the reductions of the first ``replicates`` draws, chunk by chunk, in chunk order.

    Each chunk is sampled, decomposed into eigenvalues l, rates d and (given
    weights x, else None) u = x @ (v * v), one row a draw, the eigenvectors v
    taken in row blocks (``_batch_rates``), and reduced by
    ``stat(s, l, d, u)``. A chunk's worker returns a commit that folds its
    reduction into one running result, ``result = fold(result, part)``, and
    that result is returned. ``sampling.map_chunks`` runs the commits on the
    calling thread in chunk order, so the order of the folds, hence the
    result, does not depend on the workers, and no more reductions wait
    than the chunks it has queued. Every engine runs through here, so the
    replicate floor is checked here, before the first draw.
    """
    _check_replicates(replicates)
    result = None

    def worker(c):
        s = sampling.scatter_chunk(spectrum, n, distribution, seed, c)
        s = s[: replicates - c * sampling.CHUNK_SIZE]
        part = stat(s, *_batch_rates(s, x))

        def commit():
            nonlocal result
            result = part if c == 0 else fold(result, part)

        return commit

    sampling.map_chunks(worker, -(-replicates // sampling.CHUNK_SIZE), jobs)
    return result


def _comoments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, M) along axis 1 of a (k, rows) array, centred in place.

    Each statistic's replicates form one row. M is the full (k, k)
    co-moment matrix, the cross-products of the centred rows; its diagonal
    holds each row's sum of squared deviations. No rows (the odd fold of a
    one-row last chunk) give a zero mean and M, which a merge leaves
    without effect.
    """
    k, rows = values.shape
    if not rows:
        return 0, np.zeros(k), np.zeros((k, k))
    mean = np.add.reduce(values, axis=1) / rows  # the arithmetic of values.mean(axis=1)
    values -= mean[:, None]
    return rows, mean, values @ values.T


def _combine(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, M) of chunk a followed by chunk b, M the full co-moment matrix.

    This is the pairwise update of Chan, Golub & LeVeque (1979): M gains
    the outer product of the mean shift. Applied left to right over the
    chunks, the result depends on the chunk size but not on the workers.
    """
    count, mean, m = a
    rows, chunk_mean, chunk_m = b
    merged = count + rows
    delta = chunk_mean - mean
    return (
        merged,
        mean + delta * (rows / merged),
        m + chunk_m + np.multiply.outer(delta, delta) * (count * rows / merged),
    )


def _fitted_controls(n_controls: int, replicates: int) -> int:
    """``n_controls``, or 0 below 10 rows a fold per fitted coefficient (the controls and an intercept).

    CHUNK_SIZE is even, so a row's parity within its chunk is the parity
    of its replicate index, and the odd fold holds replicates // 2 rows.
    """
    _check_replicates(replicates)
    return n_controls if replicates // 2 >= 10 * (n_controls + 1) else 0


def _cross_fitted(folds: tuple, n_controls: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and SEs from the two folds' merged (count, mean, M), first ``n_controls`` rows controls c.

    Fold f's outputs y are corrected with the other fold's least-squares
    coefficients b = M_cc^-1 M_cy, z = y - b'c. z's fold mean and
    co-moments M_zz = M_yy - b'M_cy - M_yc b + b'M_cc b follow from y's
    alone, and the two folds are merged as two chunks of z, the SEs read off
    M's diagonal. With no controls b is empty, nothing is solved, and z = y.
    """
    c, y = slice(0, n_controls), slice(n_controls, None)
    fits = [np.linalg.solve(m[c, c], m[c, y]) if n_controls else m[c, y] for _, _, m in folds]
    corrected = []
    for (count, mean, m), b in zip(folds, fits[::-1]):
        cross = b.T @ m[c, y]
        m_zz = m[y, y] - cross - cross.T + b.T @ (m[c, c] @ b)
        corrected.append((count, mean[y] - b.T @ mean[c], m_zz))
    count, mean, m = _combine(*corrected)
    return mean, np.sqrt(np.diagonal(m) / (count - 1)) / sqrt(count)


def _estimate(spectrum, n, distribution, replicates, seed, jobs, x, n_controls, stat):
    """Every moment engine's means and SEs: the parity-fold cross-fit of ``stat``'s rows.

    ``stat(s, l, d, u)`` runs on each parity fold (even, then odd replicates)
    of every chunk, u = x @ (v * v) or None as in ``_run_chunks``, so it
    holds no eigenvectors, and returns a fresh C-contiguous (k, rows) array, the
    ``n_controls`` controls, each of mean exactly zero, first. The folds'
    (count, mean, co-moments) merge fold by fold in chunk order, and each
    fold is corrected with the other's fit, so no draw is corrected with a
    fit it took part in; with no controls the estimates are plain.
    """

    def folds(s, l, d, u):
        return tuple(
            _comoments(stat(s[f::2], l[f::2], d[f::2], None if u is None else u[f::2])) for f in (0, 1)
        )

    merged = _run_chunks(spectrum, n, distribution, replicates, seed, jobs, x, folds,
                         lambda a, b: tuple(map(_combine, a, b)))
    return _cross_fitted(merged, n_controls)


def _unit_scale(spectrum: Spectrum) -> Spectrum:
    """The spectrum times 2^-k, the power of four that brings sum(lambda) into [1/2, 2).

    Every engine draws here, so no power of lambda or l overflows or
    underflows; k is ``core._unit_exponent``'s, read without forming the sum,
    and its square root scales the Bartlett factor and S exactly: every rate
    keeps its bits.
    """
    return Spectrum(np.ldexp(spectrum.values, -_unit_exponent(spectrum.values)))


def sample_rates(
    spectrum: Spectrum,
    n: int,
    distribution: str,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """Sample contribution-rate vectors, shape (replicates, p).

    The one engine whose result grows with ``replicates``: the KS test
    needs every draw's rates. The rates are scale-free, so the draws are
    taken at unit scale (``_unit_scale``).
    """
    parts = _run_chunks(
        _unit_scale(spectrum), n, distribution, replicates, seed, jobs, None,
        lambda s, l, d, u: [d], lambda a, b: a + b,
    )
    return np.concatenate(parts, axis=0)


def simulate_bias(
    spectrum: Spectrum,
    n: int,
    distribution: str,
    replicates: int,
    seed: int,
    jobs: int = 1,
    control_variate: bool = False,
) -> BiasSimulation:
    """Monte Carlo means and standard errors of the sample rates.

    Without ``control_variate`` each fold's rates are reduced as they are:
    the cross-fit's control basis is empty. With
    ``control_variate`` each draw's rates d are taken less their corrections
    c, the first- and second-order terms of their expansion less the
    second-order term's exact mean, and z = d - c is regressed on c_2..c_p,
    on the third-order terms t_2..t_p, each less its exact mean (see
    ``_bias_corrections``), and on the diagonal rows of the Wishart basis,
    e_k = S_kk/(n lambda_k) - 1, e_k^2 - 2/n and e_i e_j for i < j
    (``_diagonal_controls``): 2(p - 1) + 2p + p(p - 1)/2 controls, 13 at
    p = 3. The coefficients are cross-fitted on the parity folds, so the
    means stay unbiased. c_1 and t_1 are left out because the c_i, and the
    t_i, sum to zero exactly. The remainder left after the second-order
    term falls like n^-3/2, so the t_i matter most at large n, and the
    diagonal rows most at small n: at p = 3, (0.5, 0.3, 0.2), the worst
    coordinate's per-replicate variance is 2.0x, 2.5x, 3.8x, 7.4x and 15x
    below the fit on c_2..c_p alone at n = 30, 100, 200, 400 and 800
    (7.1e-6 -> 1.9e-6 at n = 200), of which the diagonal rows give 1.7x,
    1.5x, 1.4x, 1.4x and 1.4x. Below 10 rows a fold per fitted coefficient
    (the controls and an intercept, so below 280 replicates at p = 3, 760
    at p = 6 and 1,680 at p = 10) z is averaged unfitted. Either law's
    chunk is an exact Wishart draw (see ``sampling.scatter_chunk``), so the
    controls' means are exact under both. The
    population eigenvalues must be distinct: a (nearly) repeated one is
    refused by ``bias_expansion`` before any draw. Every output is
    scale-free, so the draws are taken at unit scale (``_unit_scale``), and
    the lambda that the controls are formed on is the unit-scale one.
    """
    spectrum = _unit_scale(spectrum)
    lam = spectrum.values
    p = lam.size
    n_controls = 0
    if control_variate:
        second = bias_expansion(spectrum, n) - lam / lam.sum()
        offset = np.concatenate([second, _third_order_means(lam, n)])
        n_controls = _fitted_controls(2 * (p - 1) + 2 * p + p * (p - 1) // 2, replicates)

    def stat(s, l, d, u):
        if not control_variate:
            return d.T.copy()
        c = np.empty((2 * p, s.shape[0]))
        _bias_corrections(s, lam, n, offset, c)
        x = np.empty((n_controls + p, s.shape[0]))
        if n_controls:
            x[: p - 1] = c[1:p]
            x[p - 1 : 2 * p - 2] = c[p + 1 :]
            _diagonal_controls(s, lam, n, *np.split(x[2 * p - 2 : n_controls], [p, 2 * p]))
        np.subtract(d.T, c[:p], out=x[n_controls:])
        return x

    mean, se = _estimate(spectrum, n, distribution, replicates, seed, jobs, None, n_controls, stat)
    return BiasSimulation(mean_rates=mean, std_errors=se, replicates=replicates)


def _bias_corrections(
    s: np.ndarray, lam: np.ndarray, n: int, offset: np.ndarray, out: np.ndarray
) -> None:
    """Write each draw's rate corrections c_i and third-order terms t_i, one a row of ``out``.

    With E = S/n - Lambda, T = sum lambda, u = tr E / T and
    g_ij = 1/(lambda_i - lambda_j), the eigenvalue l_i/n of S/n is lambda_i
    + E_ii + a2_i + a3_i + ... (Rayleigh-Schroedinger), where
    a2_i = sum_{j != i} g_ij E_ij^2 and a3_i = sum_{j, k != i} g_ij g_ik
    E_ij E_jk E_ki - E_ii sum_{j != i} g_ij^2 E_ij^2, and the rate is
    d_i = (l_i/n) / (T (1 + u)). Dividing by 1 + u makes each order's term
    that order's eigenvalue term over T less u times the order below:
    L_i = (E_ii - lambda_i u)/T (zero mean), then a2_i/T - u L_i, then
    t_i = (a3_i - a2_i u + E_ii u^2 - lambda_i u^3)/T. The first p rows of
    ``out`` are c_i = L_i plus the second-order term, the last p the t_i,
    each less its exact Wishart mean in ``offset``, so every row has mean
    exactly zero: the second-order term's is ``bias_expansion - lambda / T``,
    as E[E_ij^2] = lambda_i lambda_j / n off the diagonal, Var E_ii =
    2 lambda_i^2 / n and the diagonal entries are uncorrelated, and the
    third's is ``_third_order_means``. The l_i sum to tr S, so the a2_i,
    and the a3_i, sum to zero, and so do the c_i and the t_i in each draw.
    S is an entries-first stack, so every s[:, i, j] is one evenly strided
    column; each S_ii, tr S and S_ij^2 is formed once for all three orders,
    and each row in place on (rows,) vectors.
    """
    p = lam.size
    total = lam.sum()
    c, t = out[:p], out[p:]
    # With a = tr S / (nT) = 1 + u, L_i = (S_ii - n lambda_i a)/(nT), so
    # L_i (1 - u) = (S_ii - n lambda_i a) w with w = (2 - a)/(nT), and
    # L_i u^2 = (S_ii - n lambda_i a) v with v = (a - 1)^2/(nT).
    a = s[:, 0, 0].copy()
    for i in range(1, p):
        a += s[:, i, i]
    a *= 1.0 / (n * total)
    w = a * (-1.0 / (n * total))
    w += 2.0 / (n * total)
    v = a - 1.0
    v *= v
    v *= 1.0 / (n * total)
    for i in range(p):
        np.multiply(a, n * lam[i], out=c[i])
        np.subtract(s[:, i, i], c[i], out=c[i])
        np.multiply(c[i], v, out=t[i])
        c[i] *= w
        c[i] -= offset[i]
        t[i] -= offset[p + i]
    # The pair (i, j) adds g_ij E_ij^2 / T = S_ij^2 times a coefficient (buf)
    # to a2_i / T and minus it to a2_j / T. Its terms in a3_i and -a2_i u
    # add buf (g_ij (E_jj - E_ii) - u) = buf ((S_jj - S_ii)/(n (lambda_i -
    # lambda_j)) + 2 - a) to t_i, and the same with the sign flipped to t_j.
    two_less_a = np.subtract(2.0, a, out=a)
    buf, h = np.empty_like(a), v  # v is spent
    for i in range(p):
        for j in range(i + 1, p):
            np.multiply(s[:, i, j], s[:, i, j], out=buf)
            buf *= 1.0 / (n * n * total * (lam[i] - lam[j]))
            c[i] += buf
            c[j] -= buf
            np.subtract(s[:, j, j], s[:, i, i], out=h)
            h *= 1.0 / (n * (lam[i] - lam[j]))
            h += two_less_a
            h *= buf
            t[i] += h
            t[j] -= h
    # The triple i < j < k adds 2 g_ij g_ik E_ij E_jk E_ki / T to t_i, and
    # likewise to t_j and t_k: the terms of a3 with j != k.
    for i, j, k in combinations(range(p), 3):
        np.multiply(s[:, i, j], s[:, j, k], out=h)
        h *= s[:, i, k]
        for x, y, z in ((i, j, k), (j, i, k), (k, i, j)):
            np.multiply(h, 2.0 / (n**3 * total * (lam[x] - lam[y]) * (lam[x] - lam[z])), out=buf)
            t[x] += buf


def _third_order_means(lam: np.ndarray, n: int) -> np.ndarray:
    """E[t_i] under Wishart(n, diag(lam)), t_i the third-order term of ``_bias_corrections``.

    t_i is cubic in E, the mean of n independent x x' - Lambda, so its mean
    is one observation's third moment over n^2. With r_ij = lambda_j g_ij
    (r_ii = 0) and R_i = sum_j r_ij, n^2 T E[t_i] / lambda_i is
    -2 R_i + R_i^2 - sum_j r_ij^2 - (2/T) sum_j r_ij (lambda_i + lambda_j)
    + 8 lambda_i^2 / T^2 - 8 sum_k lambda_k^3 / T^3. The lambda must be
    distinct, as ``bias_expansion`` checks.
    """
    total = lam.sum()
    r = _gap_ratios(lam)
    big_r = r.sum(axis=1)
    coeff = (
        -2.0 * big_r
        + big_r**2
        - (r**2).sum(axis=1)
        - (2.0 / total) * (r * (lam[:, None] + lam[None, :])).sum(axis=1)
        + 8.0 * lam**2 / total**2
        - 8.0 * np.sum(lam**3) / total**3
    )
    return lam * coeff / (n * n * total)


def _plugin_traces(d: np.ndarray, u: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """tr(V diag(beta d) V' diag(tau)^-1) per weight vector, shape (n_weights, rows).

    u_rk = sum_j v_rjk^2 / tau_j is ``_batch_rates``' u for x = 1 / tau,
    formed once and shared by every weight vector.
    """
    return betas @ (d * u).T


def _entropy_losses(d: np.ndarray, u: np.ndarray, betas: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Entropy losses of plug-in estimates, shape (n_weights, rows), u as in ``_plugin_traces``."""
    # V is orthogonal, so log det(estimate truth^-1) = sum log beta + sum log d - sum log tau.
    logdet = np.log(betas).sum(axis=1)[:, None] + np.log(d).sum(axis=1) - np.log(tau).sum()
    return _plugin_traces(d, u, betas) - logdet - tau.size


def _quadratic_losses(d: np.ndarray, betas: np.ndarray, tau: np.ndarray) -> np.ndarray:
    est = betas[:, None, :] * d[None, :, :]
    return ((1.0 - est / tau[None, None, :]) ** 2).sum(axis=2)


def _digamma_half(m: int) -> float:
    """psi(m / 2) for a positive integer m, from the closed forms at integers and half-integers.

    psi(j) = -gamma + sum_{k < j} 1/k and psi(j + 1/2) = -gamma - 2 log 2 +
    sum_{k <= j} 2/(2k - 1), each summed with ``fsum`` over terms numpy forms
    (the same IEEE quotients as scalar division, at numpy's cost per term).
    """
    j = m // 2
    if m % 2 == 0:
        return -np.euler_gamma + fsum((1.0 / np.arange(1, j)).tolist())
    return -np.euler_gamma - 2.0 * log(2.0) + fsum((2.0 / (2 * np.arange(1, j + 1) - 1)).tolist())


def _log_det_mean(lam: np.ndarray, n: int) -> float:
    """E[log det S] under Wishart(n, diag(lam)).

    By the Bartlett decomposition det S = det diag(lam) prod_i chi2_{n-i},
    i = 0..p-1, and E[log chi2_m] = log 2 + psi(m / 2).
    """
    p = lam.size
    return fsum(np.log(lam)) + p * log(2.0) + fsum(_digamma_half(n - i) for i in range(p))


#: Degrees of freedom above p from which tr S^-1 and tr S^-2 join the controls:
#: E[l_min^-a] is finite exactly when a < (n - p + 1)/2, so n >= p + 16 is
#: what gives tr S^-2 a finite fourth moment.
_INVERSE_TRACE_MIN_EXCESS = 16


def _trace_means(lam: np.ndarray, n: int) -> np.ndarray:
    """E[tr S^3], and at n >= p + 16 also E[tr S^-1] and E[tr S^-2], under Wishart(n, diag(lam)).

    Lambda is at unit scale (``_unit_scale``). With t_j = tr Lambda^j,
    E[tr S^3] = n (n^2 + 3n + 4) t_3 + 3n(n + 1) t_1 t_2 + n t_1^3, which is
    n(n + 2)(n + 4) sigma^3 at p = 1; and with m = n - p the inverse-Wishart
    moments are E[tr S^-1] = t_-1 / (m - 1) and
    E[tr S^-2] = ((m - 1) t_-2 + t_-1^2) / (m (m - 1)(m - 3))
    (Muirhead 1982, section 3.2; von Rosen 1988).
    """
    t1, t2, t3 = (fsum((lam**j).tolist()) for j in (1, 2, 3))
    cube = n * (n * n + 3 * n + 4) * t3 + 3 * n * (n + 1) * t1 * t2 + n * t1**3
    m = n - lam.size
    if m < _INVERSE_TRACE_MIN_EXCESS:
        return np.array([cube])
    r1, r2 = (fsum((lam**-j).tolist()) for j in (1, 2))
    return np.array([cube, r1 / (m - 1), ((m - 1) * r2 + r1 * r1) / (m * (m - 1) * (m - 3))])


def _diagonal_controls(
    s: np.ndarray, lam: np.ndarray, n: int, diag: np.ndarray, square: np.ndarray, product: np.ndarray
) -> None:
    """Write the diagonal rows of the Wishart basis into the three row blocks given.

    ``diag`` gets e_k = S_kk/(n lam_k) - 1, ``square`` e_k^2 - 2/n and
    ``product`` e_i e_j for i < j, in triu order: p, p and p(p - 1)/2 rows.
    Under Wishart(n, diag(lam)) S_kk/lam_k is chi2_n, so e_k has mean 0 and
    variance 2/n, and S_ii and S_jj are independent (Muirhead 1982,
    section 3.2): every row has mean exactly zero. S is an entries-first
    stack, or a row slice of one, so each S_kk is one evenly strided column,
    read in place; each row is written in place.
    """
    p = lam.size
    np.multiply(np.diagonal(s, axis1=1, axis2=2).T, (1.0 / (n * lam))[:, None], out=diag)
    diag -= 1.0
    np.multiply(diag, diag, out=square)
    square -= 2.0 / n
    start = 0
    for i in range(p - 1):  # the pairs (i, j > i), in triu order
        np.multiply(diag[i + 1 :], diag[i], out=product[start : start + p - 1 - i])
        start += p - 1 - i


def _wishart_controls(
    s: np.ndarray,
    l: np.ndarray,
    lam: np.ndarray,
    n: int,
    log_det_mean: float,
    trace_means: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write the functions of S with mean exactly zero under Wishart(n, diag(lam)).

    There are p^2 + p + 1 + ``trace_means.size`` of them (114 at p = 10,
    n = 30), one a row of ``out``: e_k = S_kk/(n lam_k) - 1, then
    S_ij^2/(n lam_i lam_j) - 1 for i < j, then e_k^2 - 2/n, then e_i e_j for
    i < j (S_ii and S_jj are independent under a diagonal scale), the
    e_k, e_k^2 and e_i e_j rows written by ``_diagonal_controls``, then
    sum_k log l_k - ``log_det_mean`` from the eigenvalues l of S, i.e.
    log det S less its mean, then sum_k l_k^3 and, when ``trace_means`` has
    three entries (n >= p + 16), sum_k 1/l_k and sum_k 1/l_k^2, each divided
    by its mean from ``_trace_means``, less 1; lambda, and so S and l, are at
    unit scale (``_unit_scale``). S is an entries-first stack,
    as the Wishart sampler builds it, or a row slice of one, so each entry
    s[:, i, j] is one evenly strided column. The rows are written in place,
    and the spectral ones share one (rows, p) buffer: fresh chunk-sized
    temporaries here cost more than the arithmetic.
    """
    p = lam.size
    t = s.transpose(1, 2, 0)  # each t[i, j] is the (rows,) column s[:, i, j]
    iu, ju = np.triu_indices(p, 1)
    m = iu.size
    pair, log_det, traces = out[p : p + m], out[2 * p + 2 * m], out[2 * p + 2 * m + 1 :]
    _diagonal_controls(s, lam, n, out[:p], out[p + m : 2 * p + m], out[2 * p + m : 2 * p + 2 * m])
    np.square(t[iu, ju], out=pair)
    pair *= (1.0 / (n * lam[iu] * lam[ju]))[:, None]
    pair -= 1.0
    buf = np.log(l)
    buf.sum(axis=1, out=log_det)
    log_det -= log_det_mean
    np.multiply(l, l, out=buf)
    buf *= l
    buf.sum(axis=1, out=traces[0])
    if trace_means.size > 1:
        np.reciprocal(l, out=buf)
        buf.sum(axis=1, out=traces[1])
        buf *= buf
        buf.sum(axis=1, out=traces[2])
    traces *= (1.0 / trace_means)[:, None]
    traces -= 1.0


def compare_risks(
    spectrum: Spectrum,
    n: int,
    weights_list: list[ShrinkageWeights],
    loss_kind: str,
    distribution: str,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> RiskComparison:
    """Monte Carlo risks of several estimators on identical (paired) draws.

    The truth is the spectrum normalized to unit trace; entropy losses are
    evaluated on the plug-in covariance estimates, quadratic losses on the
    weighted rates directly. An entropy loss reads the eigenvectors only
    through u_k = sum_j v_jk^2 / tau_j, which the runner forms in row blocks
    of vectors (``_batch_rates``), so no eigenvector array the size of a
    chunk is held. The first weights act as the baseline for the
    paired difference statistics, whose moments are streamed alongside the
    losses' own: a difference's SE cannot be recovered from the row moments.

    Each loss and paired difference is regressed on a basis of functions of
    S alone, with coefficients cross-fitted on the even and odd replicates,
    each fold corrected with the other fold's, so the means stay unbiased.
    The spectrum, n and the count alone set the basis. Every output is
    scale-free, so the draws are taken at unit scale (``_unit_scale``). The
    basis holds functions whose means are exactly zero for that scale
    diag(lambda), under either law, since both draw exact
    Wishart chunks (see ``_wishart_controls`` and ``sampling.scatter_chunk``):
    e_k = S_kk/(n lambda_k) - 1, S_ij^2/(n lambda_i lambda_j) - 1 (i < j),
    e_k^2 - 2/n, e_i e_j (i < j), log det S less its Bartlett mean, and
    tr S^3 over its Wishart mean, less 1: p^2 + p + 2 controls. At
    n >= p + 16, where tr S^-2 has a finite fourth moment, tr S^-1 and
    tr S^-2 over their inverse-Wishart means, less 1, join them (114 at
    p = 10, n = 30). The basis is empty, and the estimates plain,
    below 10 rows a fold per fitted coefficient (the controls and an
    intercept: 2,300 replicates at p = 10 and n >= 26, 2,260 below).
    """
    if loss_kind not in ("entropy", "quadratic"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    betas = _stack_betas(weights_list, spectrum.p)
    k = len(weights_list)
    spectrum = _unit_scale(spectrum)
    lam = spectrum.values
    tau = lam / lam.sum()
    entropy = loss_kind == "entropy"
    trace_means = _trace_means(lam, n)
    n_controls = _fitted_controls(spectrum.p * spectrum.p + spectrum.p + 1 + trace_means.size, replicates)
    log_det_mean = _log_det_mean(lam, n) if n_controls else None

    def stat(s, l, d, u):
        x = np.empty((n_controls + 2 * k - 1, s.shape[0]))
        if n_controls:
            _wishart_controls(s, l, lam, n, log_det_mean, trace_means, x[:n_controls])
        losses = x[n_controls : n_controls + k]
        losses[:] = _entropy_losses(d, u, betas, tau) if entropy else _quadratic_losses(d, betas, tau)
        np.subtract(losses[1:], losses[0], out=x[n_controls + k :])
        return x

    inverse_tau = 1.0 / tau if entropy else None
    means, ses = _estimate(spectrum, n, distribution, replicates, seed, jobs, inverse_tau, n_controls, stat)
    return RiskComparison(
        mean_losses=means[:k],
        std_errors=ses[:k],
        diff_means=means[k:],
        diff_std_errors=ses[k:],
        replicates=replicates,
    )


def _g_batch(l: np.ndarray, d: np.ndarray, betas: np.ndarray, n: int) -> np.ndarray:
    """Stein-Haff functional for each weight vector, shape (n_weights, rows).

    A row ``_tied`` flags raises RuntimeError, a numerical failure, before the
    fractions l_j / (l_i - l_j), then finite, are formed once, on the pairs i < j.
    """
    if np.any(_tied(l)):
        raise RuntimeError("sampled scatter matrix with tied eigenvalues; the G functional is not defined")
    p = l.shape[1]
    iu, ju = np.triu_indices(p, 1)
    frac = l[:, ju] / (l[:, iu] - l[:, ju])
    pair = (betas[:, iu] - betas[:, ju]) @ frac.T
    linear = betas @ (n + p - 1.0 - 2 * np.arange(p) - 2.0 * d).T
    return (2.0 * pair + linear) / l.sum(axis=1)


def simulate_stein_haff(
    spectrum: Spectrum,
    n: int,
    weights_list: list[ShrinkageWeights],
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> list[SteinHaffCheck]:
    """Check E[tr(estimate Sigma^-1)] = E[G] empirically under Wishart draws.

    Sigma is diag(spectrum): G estimates the trace against it, not against
    its normalized rates. The draws are taken at unit scale (``_unit_scale``),
    the spectrum times 2^-k, and the traces against the unit-scale lambda.
    The trace and G are homogeneous of degree -1 in the scale, so the means
    and SEs are multiplied by 2^-k, an exact power of four, and come back in
    the spectrum's units. One check per weight vector, all on the same
    draws: each chunk's traces and G values are formed for every weight
    vector at once, from u_k = sum_j v_jk^2 / lambda_j, which the runner
    forms in row blocks of eigenvectors (``_batch_rates``), so no eigenvector
    array the size of a chunk is held; the cross-fit's control basis is
    empty. A draw whose sample eigenvalues ``stein_haff_G`` refuses
    (``_tied``) raises RuntimeError.
    """
    betas = _stack_betas(weights_list, spectrum.p)
    k = len(weights_list)
    unit = _unit_scale(spectrum)
    exponent = _unit_exponent(spectrum.values)

    def stat(s, l, d, u):
        trace = _plugin_traces(d, u, betas)
        g = _g_batch(l, d, betas, n)
        return np.concatenate([trace, g, trace - g])

    means, ses = np.ldexp(
        _estimate(unit, n, "wishart", replicates, seed, jobs, 1.0 / unit.values, 0, stat), -exponent
    )
    return [
        SteinHaffCheck(
            mean_trace=float(means[j]),
            trace_std_error=float(ses[j]),
            mean_g=float(means[k + j]),
            g_std_error=float(ses[k + j]),
            diff_mean=float(means[2 * k + j]),
            diff_std_error=float(ses[2 * k + j]),
            replicates=replicates,
        )
        for j in range(k)
    ]


def _ks_equal_sizes(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample KS statistic D and its exact p-value, both samples of size n.

    D = h/n, h the largest gap between the two samples' counts at or below a
    point of either sample, so tied values count once. The p-value is the
    Gnedenko-Korolyuk sum P(D >= h/n) = 2 sum_j (-1)^(j+1) C(2n, n - jh)/C(2n, n),
    each term formed from lgamma; the terms fall with j, so the sum stops at
    the first that underflows.
    """
    n = len(x)
    a, b = np.sort(x), np.sort(y)
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    log_middle = 2.0 * lgamma(n + 1)
    total = 0.0
    for j in range(1, n // h + 1):
        term = exp(log_middle - lgamma(n - j * h + 1) - lgamma(n + j * h + 1))
        if term == 0.0:
            break
        total += term if j % 2 else -term
    return h / n, min(max(2.0 * total, 0.0), 1.0)


def invariance_check(
    spectrum: Spectrum,
    n: int,
    nu: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> InvarianceReport:
    """Two-sample KS comparison of rates from Wishart vs elliptical-t draws.

    The two samples come from independent streams under the same seed. The
    rate distribution is the same for every member of the elliptical family,
    so equality should be accepted coordinate by coordinate. An elliptical-t
    chunk is the Bartlett Wishart draw X'X of the t stream, drawn as a
    Wishart chunk is, without its mixing scale, which no rate reads, so this
    KS compares two Bartlett streams that differ only in their stream tag:
    it checks the streams' independence and the engine, not the law, which
    the sampling tests compare with an n x p data matrix draw. The two
    samples have ``replicates`` draws each, and each coordinate's p-value is
    the exact one for two samples of that size (``_ks_equal_sizes``) at
    every ``replicates``; the report's ``critical_value`` stays the
    asymptotic one.
    """
    elliptical = f"t:{nu}"
    sampling.parse_distribution(elliptical)  # refuse a bad nu before any draw
    d_wishart = sample_rates(spectrum, n, "wishart", replicates, seed, jobs)
    d_elliptical = sample_rates(spectrum, n, elliptical, replicates, seed, jobs)
    stats, pvals = np.array(
        [_ks_equal_sizes(d_wishart[:, i], d_elliptical[:, i]) for i in range(spectrum.p)]
    ).T
    return InvarianceReport(statistics=stats, p_values=pvals, replicates=replicates)
