import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shrink import (
    ContributionRates,
    ShrinkageWeights,
    check_conditions,
    classical_weights,
    condition2_family_bound,
    family_weights,
    plugin_covariance,
    shrink_estimate,
    symmetric_eigendecompose,
)
from spectra_shrink.estimators import _compared_weights


# ---------------------------------------------------------------------------
# weight construction
# ---------------------------------------------------------------------------


def test_family_weights_q1_hand_values():
    w = family_weights(10, 30, 1)
    expected = [30 / 37, 30 / 35, 30 / 33, 30 / 31, 1, 1, 30 / 29, 30 / 27, 30 / 25, 30 / 23]
    np.testing.assert_allclose(w.beta, expected, rtol=0, atol=1e-15)
    assert w.m == 5 and w.q == 1 and w.dof == 30


def test_family_weights_q2_hand_values():
    w = family_weights(10, 30, 2)
    expected = [30 / 35, 30 / 33, 30 / 31, 1, 1, 1, 1, 30 / 29, 30 / 27, 30 / 25]
    np.testing.assert_allclose(w.beta, expected, rtol=0, atol=1e-15)


def test_family_weights_odd_p_hand_values():
    w = family_weights(5, 20, 1)
    np.testing.assert_allclose(w.beta, [20 / 22, 1, 1, 1, 20 / 18], rtol=0, atol=1e-15)
    assert w.m == 2


@pytest.mark.parametrize(
    "p,n,q",
    [(5, 20, 2), (4, 10, 2), (10, 30, 0), (10, 30, 5), (3, 10, 1), (10, 8, 1)],
)
def test_family_weights_rejections(p, n, q):
    with pytest.raises(ValueError):
        family_weights(p, n, q)


def test_weights_type_validation():
    with pytest.raises(ValueError):
        ShrinkageWeights(beta=np.array([1.0, -0.5]), dof=10)
    with pytest.raises(ValueError):
        ShrinkageWeights(beta=np.array([1.2, 0.8]), dof=10, q=1)  # decreasing family


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def test_classical_estimate_examples():
    np.testing.assert_allclose(
        symmetric_eigendecompose(np.diag([2.0, 1.0, 1.0])).rates, [0.5, 0.25, 0.25]
    )
    np.testing.assert_allclose(symmetric_eigendecompose(np.eye(10)).rates, [0.1] * 10)


def test_shrink_with_unit_weights_is_classical():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 6))
    dec = symmetric_eigendecompose(a.T @ a)
    ones = classical_weights(6, 12)
    assert np.array_equal(shrink_estimate(dec, ones).rates, dec.rates)


def test_shrink_componentwise_product():
    dec = symmetric_eigendecompose(np.diag([0.5, 0.3, 0.2]))
    w = ShrinkageWeights(beta=np.array([0.9, 1.0, 1.1]), dof=20)
    np.testing.assert_allclose(shrink_estimate(dec, w).rates, [0.45, 0.3, 0.22], atol=1e-15)


def test_shrink_q1_uniform_rates():
    dec = symmetric_eigendecompose(np.eye(10))
    est = shrink_estimate(dec, family_weights(10, 30, 1))
    expected = [
        0.0810810810,
        0.0857142857,
        0.0909090909,
        0.0967741935,
        0.1,
        0.1,
        0.1034482758,
        0.1111111111,
        0.12,
        0.1304347826,
    ]
    np.testing.assert_allclose(est.rates, expected, atol=1e-9)
    # the shrunk estimator is deliberately not normalized
    assert abs(est.rates.sum() - 1.0) > 1e-3


def test_shrink_length_mismatch():
    dec = symmetric_eigendecompose(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        shrink_estimate(dec, family_weights(10, 30, 1))


# ---------------------------------------------------------------------------
# plug-in covariance
# ---------------------------------------------------------------------------


def test_plugin_identity_rotation():
    dec = symmetric_eigendecompose(np.diag([4.0, 1.0]))
    out = plugin_covariance(dec, ContributionRates((0.8, 0.2)))
    np.testing.assert_allclose(out, np.diag([0.8, 0.2]), atol=1e-15)


def test_plugin_with_sample_rates_is_normalized_scatter():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((15, 5))
    s = a.T @ a
    dec = symmetric_eigendecompose(s)
    out = plugin_covariance(dec, ContributionRates(dec.rates))
    np.testing.assert_allclose(out, s / np.trace(s), atol=1e-12)


def test_plugin_trace_and_eigenvalues():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((20, 7))
    dec = symmetric_eigendecompose(a.T @ a)
    est = shrink_estimate(dec, family_weights(7, 20, 1))
    out = plugin_covariance(dec, est)
    assert abs(np.trace(out) - est.rates.sum()) <= 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(out))[::-1], np.sort(est.rates)[::-1], atol=1e-10
    )


# ---------------------------------------------------------------------------
# dominance conditions
# ---------------------------------------------------------------------------


def test_conditions_all_ones_boundary():
    report = check_conditions(classical_weights(8, 25))
    assert report.c1_holds and report.c2_holds and report.c3_holds
    assert report.c2_value == 0.0
    assert report.c3_value == 8.0


def test_conditions_family_weights():
    report = check_conditions(family_weights(10, 30, 1))
    assert report.c1_holds and report.c2_holds and report.c3_holds
    assert abs(report.c3_value - 10.0) <= 1e-12


def test_conditions_monotone_pattern_violation():
    w = ShrinkageWeights(beta=np.array([1.5] + [1.0] * 9), dof=30)
    report = check_conditions(w)
    assert not report.c1_holds


def test_conditions_searches_m_without_split():
    # oscillating weights: no clean split, checker still reports a best m
    w = ShrinkageWeights(beta=np.array([1.2, 0.8, 1.1, 0.9]), dof=20)
    report = check_conditions(w)
    assert not report.c1_holds
    assert 1 <= report.m_used <= 3


def test_conditions_read_the_weights_dof():
    # one weight vector read at two dof: the weighted sum takes each w.dof
    beta = family_weights(10, 30, 1).beta
    i = np.arange(1, 11)
    for n in (20, 30):
        coeff = np.where(i <= 6, n + 10 - 1.0 - 2 * i, n + 10 + 1.0 - 2 * i)
        report = check_conditions(ShrinkageWeights(beta=beta, dof=n))
        assert report.m_used == 6  # the largest split: the weights are one at 5 and 6
        assert report.c2_value == float(np.sum(coeff * (beta - 1.0)))
    with pytest.raises(TypeError):
        check_conditions(ShrinkageWeights(beta=beta, dof=30), 30)


@pytest.mark.parametrize("p, qs", [(3, [None]), (4, [None, 1]), (5, [None, 1]), (6, [None, 1, 2]),
                                   (10, [None, 1, 2])])
def test_compared_weights_follow_the_family_range(p, qs):
    weights = _compared_weights(p, 30)
    assert [w.q for w in weights] == qs
    assert all(w.p == p and w.dof == 30 for w in weights)
    assert np.all(weights[0].beta == 1.0)


@settings(max_examples=60)
@given(
    p=st.integers(4, 24),
    n_extra=st.integers(0, 200),
    q_pick=st.integers(0, 100),
)
def test_family_identities_property(p, n_extra, q_pick):
    q_max = (p - 2) // 2
    q = 1 + q_pick % q_max
    n = p + n_extra
    w = family_weights(p, n, q)
    report = check_conditions(w)
    assert report.c1_holds
    assert abs(report.c3_value - p) <= 1e-12
    assert report.c2_value <= 1e-12
    assert abs(condition2_family_bound(w)) <= 1e-12


@settings(max_examples=40)
@given(p=st.integers(6, 24), n_extra=st.integers(0, 150))
def test_weight_ordering_q1_vs_q2(p, n_extra):
    n = p + n_extra
    b1 = family_weights(p, n, 1).beta
    b2 = family_weights(p, n, 2).beta
    m = p // 2
    assert np.all(b1[:m] <= b2[:m] + 1e-15) and np.all(b2[:m] <= 1.0)
    assert np.all(b1[m:] >= b2[m:] - 1e-15) and np.all(b2[m:] >= 1.0)
