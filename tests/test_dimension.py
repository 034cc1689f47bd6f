import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shrink import (
    ContributionRates,
    DimensionCriterion,
    classical_weights,
    cumulative_criterion,
    decide,
    decide_cumulative,
    decide_relative,
    dimension_experiment,
    family_weights,
    relative_criterion,
)
from spectra_shrink.cases import spiked_case
from spectra_shrink.dimension import DimensionHistogram, _decisions


def test_decide_cumulative_examples():
    case1 = ContributionRates((0.19,) * 5 + (0.01,) * 5)
    assert decide_cumulative(case1, 0.8) == 5
    case5 = ContributionRates((0.91,) + (0.01,) * 9)
    assert decide_cumulative(case5, 0.8) == 1
    # the comparison is inclusive at the boundary
    assert decide_cumulative(ContributionRates((0.5, 0.5)), 0.5) == 1


def test_decide_cumulative_underflow_returns_p():
    shrunk = ContributionRates((0.3, 0.2, 0.1))  # sums to 0.6 < t*
    assert decide_cumulative(shrunk, 0.8) == 3


def test_decide_cumulative_validates_cutoff():
    with pytest.raises(ValueError):
        decide_cumulative(ContributionRates((0.5, 0.5)), 1.0)


def test_decide_relative_examples():
    assert decide_relative(ContributionRates((0.19,) * 5 + (0.01,) * 5)) == 5
    # strictly-greater comparison: exactly uniform rates choose nothing
    assert decide_relative(ContributionRates((0.1,) * 10)) == 0
    assert decide_relative(ContributionRates((0.81, 0.11) + (0.01,) * 8)) == 2


def test_decide_wrapper():
    rates = ContributionRates((0.6, 0.3, 0.1))
    decision = decide(rates, cumulative_criterion(0.8))
    assert decision.chosen_dim == 2
    assert decide(rates, relative_criterion()).chosen_dim == 1


def test_criterion_validation():
    with pytest.raises(ValueError):
        DimensionCriterion(kind="cumulative", t_star=1.5)
    with pytest.raises(ValueError):
        DimensionCriterion(kind="relative", t_star=0.5)
    with pytest.raises(ValueError):
        DimensionCriterion(kind="scree")


@settings(max_examples=50)
@given(
    rates=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10),
    t1=st.floats(0.05, 0.95),
    t2=st.floats(0.05, 0.95),
)
def test_cumulative_monotone_in_cutoff(rates, t1, t2):
    r = ContributionRates(rates)
    lo, hi = sorted((t1, t2))
    assert decide_cumulative(r, lo) <= decide_cumulative(r, hi)


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
    for criterion in (cumulative_criterion(t_star), relative_criterion()):
        dims = _decisions(rates, criterion, normalize_relative)
        for row, dim in zip(rates, dims):
            r = ContributionRates(row)
            if normalize_relative and criterion.kind == "relative":
                r = r.normalized()
            assert dim == decide(r, criterion).chosen_dim


def test_relative_scale_sensitivity():
    rates = (0.30, 0.25, 0.2, 0.15, 0.10)
    base = decide_relative(ContributionRates(rates))
    doubled = decide_relative(ContributionRates(tuple(2 * x for x in rates)))
    assert base == 2 and doubled == 4  # scaling moves decisions unless renormalized


def test_experiment_case1_directions():
    # classical underestimates the dimension; the q=1 weights recover it
    w = [classical_weights(10, 30), family_weights(10, 30, 1)]
    crits = [cumulative_criterion(0.8), relative_criterion()]
    hists = dimension_experiment(spiked_case(1), 30, w, crits, 1000, seed=51)
    assert len(hists) == 4
    by_key = {(h.criterion.kind, h.estimator_label): h for h in hists}
    classical = by_key[("cumulative", "classical")]
    shrunk = by_key[("cumulative", "q1")]
    assert classical.true_dim == 5 and shrunk.true_dim == 5
    assert np.argmax(classical.counts) + 1 < 5
    assert np.argmax(shrunk.counts) + 1 >= 5
    for h in hists:
        assert h.counts.sum() + h.zero_count == 1000
        assert h.zero_count == 0


def test_experiment_case10_relative_truth():
    # population rates (0.81, 0.11, 0.01 x 8): two rates exceed 1/p
    hists = dimension_experiment(
        spiked_case(10),
        30,
        [classical_weights(10, 30)],
        [relative_criterion()],
        200,
        seed=53,
    )
    assert hists[0].true_dim == 2


def test_experiment_normalize_flag_runs():
    hists = dimension_experiment(
        spiked_case(5),
        30,
        [family_weights(10, 30, 1)],
        [relative_criterion()],
        200,
        seed=55,
        normalize_for_criterion2=True,
    )
    assert hists[0].counts.sum() + hists[0].zero_count == 200


def test_experiment_determinism_across_jobs():
    w = [classical_weights(10, 30)]
    crits = [cumulative_criterion(0.8)]
    h1 = dimension_experiment(spiked_case(2), 30, w, crits, 5000, seed=57, jobs=1)
    h4 = dimension_experiment(spiked_case(2), 30, w, crits, 5000, seed=57, jobs=4)
    assert np.array_equal(h1[0].counts, h4[0].counts)


def test_histogram_invariant():
    with pytest.raises(ValueError, match="add up"):
        DimensionHistogram(
            counts=np.array([5, 4]),
            replicates=10,
            true_dim=1,
            criterion=relative_criterion(),
            estimator_label="classical",
        )
