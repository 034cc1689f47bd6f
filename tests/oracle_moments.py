"""Exact Wishart means of polynomials in E = S/n - Lambda, by enumeration.

S is the sum of n independent x x' with x ~ N(0, Lambda), Lambda diagonal,
so E is the mean of n independent Y = x x' - Lambda, each of mean zero. A
product of m entries of E is n^-m times a sum over the n^m ways to give each
factor an observation. Group those ways by the set partition of the factors
that equal observations induce: a block of size 1 has mean zero, and a
partition into b blocks, each of size >= 2, is met by (n)_b = n(n - 1)...
(n - b + 1) assignments, each worth the product of its blocks' one-
observation moments E[prod_{f in B} Y_f]. Such a centred moment is the sum,
over the subsets J of the block, of prod_{f not in J} (-E[x_a x_b]) times the
raw moment E[prod_{f in J} x_a x_b], and a raw moment of a Gaussian vector
is the sum over the perfect matchings of its variables of the products of
their covariances (Isserlis' theorem), lambda_a when both indices are a
and 0 otherwise.

A polynomial is a dict from a sorted tuple of factors (a, b), a <= b, to its
coefficient. Every product is expanded, so the oracle is slow: it checks the
closed forms of ``spectra_shrink.evaluation``, it is not one.
"""

from functools import lru_cache
from itertools import combinations
from math import fsum

import numpy as np


def entry(a: int, b: int) -> dict:
    """The polynomial E_ab."""
    return {((min(a, b), max(a, b)),): 1.0}


def add(*terms) -> dict:
    """The sum of (coefficient, polynomial) pairs."""
    out = {}
    for coeff, poly in terms:
        for key, value in poly.items():
            out[key] = out.get(key, 0.0) + coeff * value
    return out


def mul(*polys) -> dict:
    """The product of polynomials."""
    out = {(): 1.0}
    for poly in polys:
        step = {}
        for k1, v1 in out.items():
            for k2, v2 in poly.items():
                key = tuple(sorted(k1 + k2))
                step[key] = step.get(key, 0.0) + v1 * v2
        out = step
    return out


def _matchings(items: tuple):
    """Every perfect matching of ``items``, as a list of pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest)):
        for tail in _matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, rest[k])] + tail


def _set_partitions(items: tuple):
    """Every set partition of ``items``, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [(first,)] + partition
        for k in range(len(partition)):
            yield partition[:k] + [(first,) + partition[k]] + partition[k + 1 :]


def wishart_mean(poly: dict, lam, n: int) -> float:
    """E[poly(E)] under Wishart(n, diag(lam)), summed with ``fsum``."""
    lam = [float(v) for v in lam]

    @lru_cache(maxsize=None)
    def raw(variables: tuple) -> float:
        return fsum(
            np.prod([lam[a] if a == b else 0.0 for a, b in matching])
            for matching in _matchings(variables)
        )

    @lru_cache(maxsize=None)
    def centred(block: tuple) -> float:
        terms = []
        for size in range(len(block) + 1):
            for kept in combinations(range(len(block)), size):
                shift = 1.0
                for f, (a, b) in enumerate(block):
                    if f not in kept:
                        shift *= -lam[a] if a == b else 0.0
                if shift:
                    terms.append(shift * raw(tuple(v for f in kept for v in block[f])))
        return fsum(terms)

    @lru_cache(maxsize=None)
    def monomial(factors: tuple) -> float:
        m = len(factors)
        terms = []
        for partition in _set_partitions(factors):
            if min((len(block) for block in partition), default=2) < 2:
                continue
            weight = 1.0
            for k in range(len(partition)):
                weight *= n - k
            weight /= float(n) ** m
            terms.append(weight * np.prod([centred(tuple(sorted(block))) for block in partition]))
        return fsum(terms)

    return fsum(value * monomial(key) for key, value in poly.items())


def rate_terms(lam, i: int) -> tuple[dict, dict]:
    """t_i and r_i of ``_bias_corrections``, the third- and fourth-order rate terms, as polynomials in E.

    With T = sum lambda, u = tr E / T and g_ij = 1/(lambda_i - lambda_j):
    a2_i = sum_j g_ij E_ij^2, a3_i = sum_{j, k} g_ij g_ik E_ij E_jk E_ki
    - E_ii sum_j g_ij^2 E_ij^2 and a4_i = sum_{k, l, m} g_ik g_il g_im
    E_il E_lk E_km E_mi - a2_i sum_j g_ij^2 E_ij^2 - 2 E_ii sum_{j, l}
    g_ij^2 g_il E_ij E_jl E_li + E_ii^2 sum_j g_ij^3 E_ij^2, every index
    other than i (Rayleigh-Schroedinger); t_i = (a3_i - u a2_i + u^2 E_ii -
    u^3 lambda_i)/T and r_i = (a4_i - u a3_i + u^2 a2_i - u^3 E_ii +
    u^4 lambda_i)/T.
    """
    lam = np.asarray(lam, dtype=float)
    p, total = lam.size, float(lam.sum())
    others = [j for j in range(p) if j != i]
    g = {j: 1.0 / (lam[i] - lam[j]) for j in others}
    u = add(*((1.0 / total, entry(a, a)) for a in range(p)))
    e_ii = entry(i, i)
    a2 = add(*((g[j], mul(entry(i, j), entry(i, j))) for j in others))
    sq2 = add(*((g[j] ** 2, mul(entry(i, j), entry(i, j))) for j in others))
    sq3 = add(*((g[j] ** 3, mul(entry(i, j), entry(i, j))) for j in others))
    triple = add(*((g[j] * g[k], mul(entry(i, j), entry(j, k), entry(k, i))) for j in others for k in others))
    a3 = add((1.0, triple), (-1.0, mul(e_ii, sq2)))
    walk = add(*(
        (g[k] * g[l] * g[m], mul(entry(i, l), entry(l, k), entry(k, m), entry(m, i)))
        for k in others for l in others for m in others
    ))
    bent = add(*((g[j] ** 2 * g[l], mul(entry(i, j), entry(j, l), entry(l, i))) for j in others for l in others))
    a4 = add((1.0, walk), (-1.0, mul(a2, sq2)), (-2.0, mul(e_ii, bent)), (1.0, mul(e_ii, e_ii, sq3)))
    u2 = mul(u, u)
    t = add((1.0, a3), (-1.0, mul(u, a2)), (1.0, mul(u2, e_ii)), (-lam[i], mul(u2, u)))
    r = add((1.0, a4), (-1.0, mul(u, a3)), (1.0, mul(u2, a2)), (-1.0, mul(u2, u, e_ii)), (lam[i], mul(u2, u2)))
    return add((1.0 / total, t)), add((1.0 / total, r))


def rate_term_means(lam, n: int) -> tuple[np.ndarray, np.ndarray]:
    """E[t_i] and E[r_i] for every i, under Wishart(n, diag(lam))."""
    pairs = [rate_terms(lam, i) for i in range(len(lam))]
    return tuple(np.array([wishart_mean(terms[k], lam, n) for terms in pairs]) for k in (0, 1))
