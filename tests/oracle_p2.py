"""Exact Stein-Haff expectations at p = 2 for the classical weights, by quadrature.

Write S ~ Wishart_2(n, diag(lam)) as S = R(theta) diag(l1, r l1) R(theta)',
with l1 the larger eigenvalue, 0 < r < 1 and 0 <= theta < pi, so that each
S is counted once. In (l1, r, theta) its density is proportional to
l1^(n-1) r^((n-3)/2) (1 - r) exp(-l1 c / 2), where c = a + r b and (a, b) is
the diagonal of R' diag(lam)^-1 R.

- The classical estimate is S / tr S. Its trace against tau = lam / sum lam
  is d1 A + d2 B, with d = (1, r) / (1 + r) and (A, B) the diagonal of
  R' diag(tau)^-1 R. It does not depend on l1.
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


def stein_haff_means(lam, n: int, r_nodes: int = 200, theta_nodes: int = 256) -> tuple[float, float]:
    """(E tr(estimate diag(tau)^-1), E G) for the classical weights under Wishart_2(n, diag(lam))."""
    lam = np.asarray(lam, dtype=float)
    x, w = roots_jacobi(r_nodes, 1.0, (n - 3) / 2.0)
    r = (1.0 + x[:, None]) / 2.0
    theta = (np.arange(theta_nodes) + 0.5) * (np.pi / theta_nodes)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2

    def diagonal(scale):
        """The diagonal of R' diag(scale)^-1 R at every theta node."""
        return cos2 / scale[0] + sin2 / scale[1], sin2 / scale[0] + cos2 / scale[1]

    a, b = diagonal(lam)
    big_a, big_b = diagonal(lam / lam.sum())
    c = a + r * b
    log_c = np.log(c)
    weight = w[:, None] * np.exp(-n * (log_c - log_c.min()))
    d1, d2 = 1.0 / (1.0 + r), r / (1.0 + r)
    trace = d1 * big_a + d2 * big_b
    linear = (n + 1.0 - 2.0 * d1) + (n - 1.0 - 2.0 * d2)
    g = linear * d1 * c / (2.0 * (n - 1))  # linear / (l1 (1 + r)), 1 / l1 integrated out
    total = weight.sum()
    return float((weight * trace).sum() / total), float((weight * g).sum() / total)
