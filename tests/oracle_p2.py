"""Exact Wishart expectations at p = 2, by quadrature.

Write S ~ Wishart_2(n, diag(lam)) as S = R(theta) diag(l1, r l1) R(theta)',
with l1 the larger eigenvalue, 0 < r < 1 and 0 <= theta < pi, so that each
S is counted once. In (l1, r, theta) its density is proportional to
l1^(n-1) r^((n-3)/2) (1 - r) exp(-l1 c / 2), where c = a + r b and (a, b) is
the diagonal of R' diag(lam)^-1 R.

- The sample rates are d = (1, r) / (1 + r). They do not depend on l1.
- The classical estimate is S / tr S. Its trace against diag(lam), the
  draws' scale, is d1 a + d2 b. It does not depend on l1 either.
- The entropy and quadratic losses of an estimate beta d against
  tau = lam / sum(lam), as the risk engines take them: the quadratic loss is
  sum_i (1 - beta_i d_i / tau_i)^2, a function of r alone, and the entropy
  loss's trace tr(R diag(beta d) R' diag(tau)^-1) is
  sum(lam) (beta1 d1 a + beta2 d2 b).
- G is sum_i (n + p + 1 - 2i - 2 d_i) / tr S, and its 1 / l1 is a Gamma
  integral: against l1^(n-1) exp(-l1 c / 2) it gives c / (2(n - 1)) times
  the integral without it.
- The decided dimension. An estimate beta d is (beta1, beta2 r) / (1 + r),
  so each dimension rule decides on r alone: its cells are intervals of r,
  cut where an estimated rate crosses the cut-off t* (cumulative) or 1/2
  (relative size).
- The controls' exact means. Given (r, theta), l1 is Gamma(n, c / 2), so
  E[l1^k | r, theta] = Gamma(n + k) / Gamma(n) (2/c)^k and
  E[log l1 | r, theta] = psi(n) + log(2/c). log det S = 2 log l1 + log r and
  tr S^j = l1^j (1 + r^j), and each third-order term t_i is a cubic in l1 at
  fixed (r, theta), so its mean is that of each power of l1 times its
  coefficient.

What is left is a smooth integral over (r, theta). It is taken by
Gauss-Jacobi in r, on x = 2r - 1 with alpha = 1 and beta = (n - 3)/2 for
the weight (1 - r) r^((n-3)/2), times c^-n, and by the midpoint rule in
theta, which converges geometrically for a smooth integrand of period pi.
A dimension cell's indicator is not smooth in r, so the cells are taken by
Gauss-Legendre on each r-interval between the cuts, with the weight
r^((n-3)/2) (1 - r) in the integrand.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import digamma, poch, roots_jacobi


def _nodes(lam, n: int, r_nodes: int, theta_nodes: int):
    """(r, a, b, weight, cos^2 theta) on the (r, theta) grid, the weights normalized to sum to 1."""
    lam = np.asarray(lam, dtype=float)
    x, w = roots_jacobi(r_nodes, 1.0, (n - 3) / 2.0)
    r = (1.0 + x[:, None]) / 2.0
    theta = (np.arange(theta_nodes) + 0.5) * (np.pi / theta_nodes)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    a, b = cos2 / lam[0] + sin2 / lam[1], sin2 / lam[0] + cos2 / lam[1]
    log_c = np.log(a + r * b)
    weight = w[:, None] * np.exp(-n * (log_c - log_c.min()))
    return r, a, b, weight / weight.sum(), cos2


def rate_mean(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> float:
    """E d1, the larger sample rate, under Wishart_2(n, diag(lam))."""
    r, _, _, weight, _ = _nodes(lam, n, r_nodes, theta_nodes)
    return float((weight / (1.0 + r)).sum())


def stein_haff_means(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> tuple[float, float]:
    """(E tr(estimate diag(lam)^-1), E G) for the classical weights under Wishart_2(n, diag(lam))."""
    r, a, b, weight, _ = _nodes(lam, n, r_nodes, theta_nodes)
    d1, d2 = 1.0 / (1.0 + r), r / (1.0 + r)
    trace = d1 * a + d2 * b
    linear = (n + 1.0 - 2.0 * d1) + (n - 1.0 - 2.0 * d2)
    g = linear * d1 * (a + r * b) / (2.0 * (n - 1))  # linear / (l1 (1 + r)), 1 / l1 integrated out
    return float((weight * trace).sum()), float((weight * g).sum())


def risk_means(lam, n: int, beta, r_nodes: int = 200, theta_nodes: int = 256) -> tuple[float, float]:
    """(entropy risk, quadratic risk) of the estimate beta d under Wishart_2(n, diag(lam))."""
    r, a, b, weight, _ = _nodes(lam, n, r_nodes, theta_nodes)
    lam, beta = np.asarray(lam, dtype=float), np.asarray(beta, dtype=float)
    tau = lam / lam.sum()
    d1, d2 = 1.0 / (1.0 + r), r / (1.0 + r)
    trace = lam.sum() * (beta[0] * d1 * a + beta[1] * d2 * b)
    logdet = np.log(beta).sum() + np.log(d1) + np.log(d2) - np.log(tau).sum()
    entropy = trace - logdet - 2.0
    quadratic = (1.0 - beta[0] * d1 / tau[0]) ** 2 + (1.0 - beta[1] * d2 / tau[1]) ** 2
    return float((weight * entropy).sum()), float((weight * quadratic).sum())


def _dimension(r: float, beta, t_star) -> int:
    """The dimension that the cumulative rule at ``t_star``, or with None the relative rule, decides at r."""
    d1, d2 = beta[0] / (1.0 + r), beta[1] * r / (1.0 + r)
    if t_star is None:
        return int(d1 > 0.5) + int(d2 > 0.5)
    return 1 if d1 >= t_star else 2


def dimension_probabilities(lam, n: int, beta, t_star=None, r_nodes: int = 200, theta_nodes: int = 256) -> np.ndarray:
    """P(dimension = 0, 1, 2) for the estimate beta d under Wishart_2(n, diag(lam)).

    The rule is the cumulative one at cut-off ``t_star``, or with None the
    relative-size one, both as ``spectra_shrink.dimension`` decides them:
    d1 >= t* gives 1, and each rate above 1/2 counts one. The cuts are
    r = beta1 / t* - 1, or r = 2 beta1 - 1 and r = 1 / (2 beta2 - 1), those
    inside (0, 1); each interval between them is one cell.
    """
    lam = np.asarray(lam, dtype=float)
    if t_star is None:
        cuts = [2.0 * beta[0] - 1.0] + ([1.0 / (2.0 * beta[1] - 1.0)] if beta[1] > 0.5 else [])
    else:
        cuts = [beta[0] / t_star - 1.0]
    edges = np.array([0.0] + sorted(x for x in cuts if 0.0 < x < 1.0) + [1.0])
    x, w = leggauss(r_nodes)
    half = np.diff(edges)[:, None] / 2.0
    r = (edges[:-1, None] + half * (1.0 + x))[:, :, None]
    theta = (np.arange(theta_nodes) + 0.5) * (np.pi / theta_nodes)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    c = cos2 / lam[0] + sin2 / lam[1] + r * (sin2 / lam[0] + cos2 / lam[1])
    log_f = (n - 3) / 2.0 * np.log(r) + np.log1p(-r) - n * np.log(c)
    mass = (half * w * np.exp(log_f - log_f.max()).sum(axis=2)).sum(axis=1)
    probs = np.zeros(3)
    for lo, hi, m in zip(edges[:-1], edges[1:], mass):
        probs[_dimension((lo + hi) / 2.0, beta, t_star)] += m
    return probs / mass.sum()


def _times(*polys):
    """The product of polynomials in l1, each a list of coefficients on the grid, lowest power first."""
    out = [1.0]
    for q in polys:
        prod = [0.0] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q):
                prod[i + j] = prod[i + j] + x * y
        out = prod
    return out


def _plus(*polys):
    out = [0.0] * max(map(len, polys))
    for q in polys:
        for i, x in enumerate(q):
            out[i] = out[i] + x
    return out


def control_means(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> dict:
    """Exact means of the engines' control terms under Wishart_2(n, diag(lam)).

    ``log_det`` is E[log det S]; ``traces`` is (E tr S^3, E tr S^-1,
    E tr S^-2); ``third`` is (E t_1, E t_2), with E = S/n - diag(lam),
    T = sum lam, u = tr E / T, g = 1 / (lam_1 - lam_2) and
    t_i = (a3_i - a2_i u + E_ii u^2 - lam_i u^3) / T, where
    a2_1 = g E_12^2, a3_1 = g^2 E_12^2 (E_22 - E_11), and the same for i = 2
    with the sign of g and the diagonal swapped.
    """
    r, a, b, weight, cos2 = _nodes(lam, n, r_nodes, theta_nodes)
    lam = np.asarray(lam, dtype=float)
    c = a + r * b
    moments = [poch(n, k) * (2.0 / c) ** k for k in range(4)]
    log_det = 2.0 * (digamma(n) + np.log(2.0 / c)) + np.log(r)
    traces = [poch(n, j) * (2.0 / c) ** j * (1.0 + r**j) for j in (3, -1, -2)]
    # S = l1 (v1 v1' + r v2 v2') with v1 = (cos theta, sin theta)
    sin2 = 1.0 - cos2
    e11 = [-lam[0], (cos2 + r * sin2) / n]
    e22 = [-lam[1], (sin2 + r * cos2) / n]
    e12_sq = [0.0, 0.0, ((1.0 - r) / n) ** 2 * cos2 * sin2]
    total, g = lam.sum(), 1.0 / (lam[0] - lam[1])
    u = [x / total for x in _plus(e11, e22)]
    third = []
    for sign, e_ii, e_jj, lam_i in ((1.0, e11, e22, lam[0]), (-1.0, e22, e11, lam[1])):
        t = _plus(
            _times([g * g], e12_sq, _plus(e_jj, [-x for x in e_ii])),
            _times([-sign * g], e12_sq, u),
            _times(e_ii, u, u),
            _times([-lam_i], u, u, u),
        )
        third.append(sum(x * m for x, m in zip(t, moments)) / total)
    mean = lambda x: float((weight * x).sum())
    return {
        "log_det": mean(log_det),
        "traces": np.array([mean(x) for x in traces]),
        "third": np.array([mean(x) for x in third]),
    }
