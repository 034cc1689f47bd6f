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

What is left is a smooth integral over (r, theta). It is taken by
Gauss-Jacobi in r, on x = 2r - 1 with alpha = 1 and beta = (n - 3)/2 for
the weight (1 - r) r^((n-3)/2), times c^-n, and by the midpoint rule in
theta, which converges geometrically for a smooth integrand of period pi.
"""

import numpy as np
from scipy.special import roots_jacobi


def _nodes(lam, n: int, r_nodes: int, theta_nodes: int):
    """(r, a, b, weight) on the (r, theta) grid, the weights normalized to sum to 1."""
    lam = np.asarray(lam, dtype=float)
    x, w = roots_jacobi(r_nodes, 1.0, (n - 3) / 2.0)
    r = (1.0 + x[:, None]) / 2.0
    theta = (np.arange(theta_nodes) + 0.5) * (np.pi / theta_nodes)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    a, b = cos2 / lam[0] + sin2 / lam[1], sin2 / lam[0] + cos2 / lam[1]
    log_c = np.log(a + r * b)
    weight = w[:, None] * np.exp(-n * (log_c - log_c.min()))
    return r, a, b, weight / weight.sum()


def rate_mean(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> float:
    """E d1, the larger sample rate, under Wishart_2(n, diag(lam))."""
    r, _, _, weight = _nodes(lam, n, r_nodes, theta_nodes)
    return float((weight / (1.0 + r)).sum())


def stein_haff_means(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> tuple[float, float]:
    """(E tr(estimate diag(lam)^-1), E G) for the classical weights under Wishart_2(n, diag(lam))."""
    r, a, b, weight = _nodes(lam, n, r_nodes, theta_nodes)
    d1, d2 = 1.0 / (1.0 + r), r / (1.0 + r)
    trace = d1 * a + d2 * b
    linear = (n + 1.0 - 2.0 * d1) + (n - 1.0 - 2.0 * d2)
    g = linear * d1 * (a + r * b) / (2.0 * (n - 1))  # linear / (l1 (1 + r)), 1 / l1 integrated out
    return float((weight * trace).sum()), float((weight * g).sum())


def risk_means(lam, n: int, beta, r_nodes: int = 200, theta_nodes: int = 256) -> tuple[float, float]:
    """(entropy risk, quadratic risk) of the estimate beta d under Wishart_2(n, diag(lam))."""
    r, a, b, weight = _nodes(lam, n, r_nodes, theta_nodes)
    lam, beta = np.asarray(lam, dtype=float), np.asarray(beta, dtype=float)
    tau = lam / lam.sum()
    d1, d2 = 1.0 / (1.0 + r), r / (1.0 + r)
    trace = lam.sum() * (beta[0] * d1 * a + beta[1] * d2 * b)
    logdet = np.log(beta).sum() + np.log(d1) + np.log(d2) - np.log(tau).sum()
    entropy = trace - logdet - 2.0
    quadratic = (1.0 - beta[0] * d1 / tau[0]) ** 2 + (1.0 - beta[1] * d2 / tau[1]) ** 2
    return float((weight * entropy).sum()), float((weight * quadratic).sum())
