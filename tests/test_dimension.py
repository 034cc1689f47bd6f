import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shrink import (
    ContributionRates,
    CumulativeCriterion,
    RelativeCriterion,
    classical_weights,
    decide,
    dimension_experiment_for_spectrum,
    family_weights,
    ShrinkageWeights,
    Spectrum,
)
from spectra_shrink.cases import spiked_case
from spectra_shrink.dimension import DimensionHistogram

from oracle_p2 import dimension_probabilities


def test_decide_cumulative_examples():
    case1 = ContributionRates((0.19,) * 5 + (0.01,) * 5)
    assert decide(case1, CumulativeCriterion(0.8)) == 5
    case5 = ContributionRates((0.91,) + (0.01,) * 9)
    assert decide(case5, CumulativeCriterion(0.8)) == 1
    # the comparison is inclusive at the boundary
    assert decide(ContributionRates((0.5, 0.5)), CumulativeCriterion(0.5)) == 1


def test_decide_cumulative_underflow_returns_p():
    shrunk = ContributionRates((0.3, 0.2, 0.1))  # sums to 0.6 < t*
    assert decide(shrunk, CumulativeCriterion(0.8)) == 3


def test_decide_cumulative_validates_cutoff():
    with pytest.raises(ValueError):
        decide(ContributionRates((0.5, 0.5)), CumulativeCriterion(1.0))


def test_decide_relative_examples():
    assert decide(ContributionRates((0.19,) * 5 + (0.01,) * 5), RelativeCriterion()) == 5
    # strictly-greater comparison: exactly uniform rates choose nothing
    assert decide(ContributionRates((0.1,) * 10), RelativeCriterion()) == 0
    assert decide(ContributionRates((0.81, 0.11) + (0.01,) * 8), RelativeCriterion()) == 2


def test_decide_wrapper():
    rates = ContributionRates((0.6, 0.3, 0.1))
    assert decide(rates, CumulativeCriterion(0.8)) == 2
    assert decide(rates, RelativeCriterion()) == 1


def test_criterion_validation():
    for t_star in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"cumulative criterion needs t\* in \(0, 1\), got "):
            CumulativeCriterion(t_star)


@settings(max_examples=50)
@given(
    rates=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10),
    t1=st.floats(0.05, 0.95),
    t2=st.floats(0.05, 0.95),
)
def test_cumulative_monotone_in_cutoff(rates, t1, t2):
    r = ContributionRates(rates)
    lo, hi = sorted((t1, t2))
    assert decide(r, CumulativeCriterion(lo)) <= decide(r, CumulativeCriterion(hi))


@settings(max_examples=100)
@given(
    rows=st.integers(2, 10).flatmap(
        lambda p: st.lists(
            st.lists(st.floats(1e-6, 1.0), min_size=p, max_size=p), min_size=1, max_size=16
        )
    ),
    t_star=st.floats(0.05, 0.95),
    normalize_relative=st.booleans(),
)
def test_batch_decisions_match_scalar_decide(rows, t_star, normalize_relative):
    rates = np.array(rows)
    for criterion in (CumulativeCriterion(t_star), RelativeCriterion(normalize_relative)):
        dims = criterion.decisions(rates)
        for row, dim in zip(rates, dims):
            if isinstance(criterion, CumulativeCriterion):
                total, expected = 0.0, len(row)
                for m, x in enumerate(row, start=1):
                    total += x
                    if total >= t_star:
                        expected = m
                        break
            else:
                if criterion.normalize:
                    row = row / row.sum()  # numpy's sum, to round as decisions does
                expected = sum(x > 1.0 / len(row) for x in row)
            assert dim == expected


def test_relative_scale_sensitivity():
    rates = (0.30, 0.25, 0.2, 0.15, 0.10)
    base = decide(ContributionRates(rates), RelativeCriterion())
    doubled = decide(ContributionRates(tuple(2 * x for x in rates)), RelativeCriterion())
    assert base == 2 and doubled == 4  # scaling moves decisions unless renormalized


def test_normalized_relative_rule_rescales_first():
    doubled = ContributionRates((0.60, 0.50, 0.4, 0.30, 0.20))
    assert decide(doubled, RelativeCriterion(normalize=True)) == 2
    assert decide(doubled, RelativeCriterion()) == 4
    assert RelativeCriterion(normalize=True).label() == "relative_size(normalized)"
    assert RelativeCriterion().label() == "relative_size"


def test_experiment_case1_directions():
    # classical underestimates the dimension; the q=1 weights recover it
    w = [classical_weights(10, 30), family_weights(10, 30, 1)]
    crits = [CumulativeCriterion(0.8), RelativeCriterion()]
    spectrum = spiked_case(1)
    hists = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 1000, seed=51)
    assert len(hists) == 4
    by_key = {(h.criterion.label(), h.estimator_label): h for h in hists}
    classical = by_key[("cumulative(t*=0.8)", "classical")]
    shrunk = by_key[("cumulative(t*=0.8)", "q1")]
    assert classical.true_dim == 5 and shrunk.true_dim == 5
    assert np.argmax(classical.counts) < 5
    assert np.argmax(shrunk.counts) >= 5
    for h in hists:
        assert h.replicates == 1000
        assert h.counts[0] == 0


def test_experiment_case10_relative_truth():
    # population rates (0.81, 0.11, 0.01 x 8): two rates exceed 1/p
    hists = dimension_experiment_for_spectrum(
        spiked_case(10),
        30,
        [classical_weights(10, 30)],
        [RelativeCriterion()],
        200,
        seed=53,
    )
    assert hists[0].true_dim == 2


def test_experiment_normalize_flag_runs():
    # on the same draws, rescaling moves only the shrunk relative-size rows
    w = [classical_weights(10, 30), family_weights(10, 30, 1), family_weights(10, 30, 2)]
    runs = [
        dimension_experiment_for_spectrum(
            spiked_case(1), 30, w, [CumulativeCriterion(0.8), RelativeCriterion(normalize)], 2000, seed=55
        )
        for normalize in (False, True)
    ]
    assert runs[1][-1].criterion.label() == "relative_size(normalized)"
    for h, rescaled in zip(*runs, strict=True):
        same = np.array_equal(h.counts, rescaled.counts)
        cumulative = isinstance(h.criterion, CumulativeCriterion)
        assert same == (cumulative or h.estimator_label == "classical"), (h.criterion.label(), h.estimator_label)


def test_experiment_determinism_across_jobs():
    w = [classical_weights(10, 30)]
    crits = [CumulativeCriterion(0.8)]
    spectrum = spiked_case(2)
    h1 = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 5000, seed=57, jobs=1)
    h4 = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 5000, seed=57, jobs=4)
    assert np.array_equal(h1[0].counts, h4[0].counts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_is_scale_free():
    # the draws and the population rates are taken at unit scale, so at
    # 1e110, where the p = 3 closed form's det products overflowed, at
    # 1e-110, at 2^+-400 and at 2^1024, where the sum overflows though every
    # lambda is finite, every histogram counts what it counts at the
    # spectrum as given, and names the same true dimension
    base = np.array([0.5, 0.3, 0.2])
    w = [classical_weights(3, 30), ShrinkageWeights(np.array([0.9, 1.0, 1.1]), 30)]
    crits = [CumulativeCriterion(0.8), RelativeCriterion(), RelativeCriterion(normalize=True)]

    def counts(values):
        hists = dimension_experiment_for_spectrum(Spectrum(values), 30, w, crits, 4096, seed=3)
        return [h.counts for h in hists] + [h.true_dim for h in hists]

    unit = counts(base)
    for values in (base * 1e110, base * 1e-110, np.ldexp(base, 400), np.ldexp(base, -400), np.ldexp(base, 1024)):
        for got, expected in zip(counts(values), unit):
            assert np.array_equal(got, expected), values


def test_p2_oracle_dimension_cells_have_converged():
    # doubling the quadrature's nodes moves no exact cell probability
    for beta in ((1.0, 1.0), (0.9, 1.1)):
        for t_star in (0.8, None):
            coarse = dimension_probabilities((0.7, 0.3), 30, beta, t_star)
            finer = dimension_probabilities((0.7, 0.3), 30, beta, t_star, r_nodes=400, theta_nodes=512)
            assert np.max(np.abs(finer - coarse)) <= 1e-12


def test_experiment_matches_p2_oracle():
    # at p = 2 each rule's decision is a threshold on r = l2 / l1, so every
    # histogram cell has an exact probability; each count lies within 4
    # binomial SEs of it, and a cell of probability 0 or 1 is met exactly
    lam, n, replicates = (0.7, 0.3), 30, 200000
    w = [classical_weights(2, n), ShrinkageWeights((0.9, 1.1), n)]
    crits = [CumulativeCriterion(0.8), RelativeCriterion()]
    hists = dimension_experiment_for_spectrum(Spectrum(lam), n, w, crits, replicates, seed=0)
    for h, (criterion, weights) in zip(hists, [(c, x) for c in crits for x in w], strict=True):
        assert h.criterion == criterion
        t_star = criterion.t_star if isinstance(criterion, CumulativeCriterion) else None
        exact = dimension_probabilities(lam, n, weights.beta, t_star)
        se = np.sqrt(replicates * exact * (1.0 - exact))
        assert np.all(np.abs(h.counts - replicates * exact) <= 4.0 * se), (h.criterion.label(), h.counts, exact)


def test_histogram_counts_every_replicate():
    hist = DimensionHistogram(counts=[0, 3, 2], true_dim=1, criterion=RelativeCriterion(),
                              estimator_label="classical")
    assert hist.replicates == 5
    for removed in ("replicates", "zero_count"):
        with pytest.raises(TypeError):
            DimensionHistogram(counts=[0, 3, 2], true_dim=1, criterion=RelativeCriterion(),
                               estimator_label="classical", **{removed: 5})


def test_histogram_refuses_non_integral_counts():
    # truncating [0, 2.7, 1.2] would store [0, 2, 1] and report 3 replicates
    for counts in ([0, 2.7, 1.2], [0.5, 3, 2]):
        with pytest.raises(ValueError, match="non-negative integers"):
            DimensionHistogram(counts=counts, true_dim=1, criterion=RelativeCriterion(),
                               estimator_label="classical")
    hist = DimensionHistogram(counts=[0.0, 3.0, 2.0], true_dim=1, criterion=RelativeCriterion(),
                              estimator_label="classical")
    assert hist.counts.dtype == np.int64 and hist.replicates == 5


def test_histogram_copies_the_callers_counts():
    counts = np.array([0, 3, 2], dtype=np.int64)
    hist = DimensionHistogram(counts=counts, true_dim=1, criterion=RelativeCriterion(),
                              estimator_label="classical")
    assert counts.flags.writeable and not hist.counts.flags.writeable
    counts[1] = 7
    assert hist.counts.tolist() == [0, 3, 2]
