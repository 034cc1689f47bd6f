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
    dimension_experiment_for_spectrum,
    family_weights,
    relative_criterion,
)
from spectra_shrink.cases import spiked_case
from spectra_shrink.dimension import DimensionHistogram, _decisions


def test_decide_cumulative_examples():
    case1 = ContributionRates((0.19,) * 5 + (0.01,) * 5)
    assert decide(case1, cumulative_criterion(0.8)) == 5
    case5 = ContributionRates((0.91,) + (0.01,) * 9)
    assert decide(case5, cumulative_criterion(0.8)) == 1
    # the comparison is inclusive at the boundary
    assert decide(ContributionRates((0.5, 0.5)), cumulative_criterion(0.5)) == 1


def test_decide_cumulative_underflow_returns_p():
    shrunk = ContributionRates((0.3, 0.2, 0.1))  # sums to 0.6 < t*
    assert decide(shrunk, cumulative_criterion(0.8)) == 3


def test_decide_cumulative_validates_cutoff():
    with pytest.raises(ValueError):
        decide(ContributionRates((0.5, 0.5)), cumulative_criterion(1.0))


def test_decide_relative_examples():
    assert decide(ContributionRates((0.19,) * 5 + (0.01,) * 5), relative_criterion()) == 5
    # strictly-greater comparison: exactly uniform rates choose nothing
    assert decide(ContributionRates((0.1,) * 10), relative_criterion()) == 0
    assert decide(ContributionRates((0.81, 0.11) + (0.01,) * 8), relative_criterion()) == 2


def test_decide_wrapper():
    rates = ContributionRates((0.6, 0.3, 0.1))
    assert decide(rates, cumulative_criterion(0.8)) == 2
    assert decide(rates, relative_criterion()) == 1


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
    assert decide(r, cumulative_criterion(lo)) <= decide(r, cumulative_criterion(hi))


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
    for criterion in (cumulative_criterion(t_star), relative_criterion(normalize_relative)):
        dims = _decisions(rates, criterion)
        for row, dim in zip(rates, dims):
            if criterion.kind == "cumulative":
                total, expected = 0.0, len(row)
                for m, x in enumerate(row, start=1):
                    total += x
                    if total >= t_star:
                        expected = m
                        break
            else:
                if criterion.normalize:
                    row = row / row.sum()  # numpy's sum, to round as _decisions does
                expected = sum(x > 1.0 / len(row) for x in row)
            assert dim == expected


def test_relative_scale_sensitivity():
    rates = (0.30, 0.25, 0.2, 0.15, 0.10)
    base = decide(ContributionRates(rates), relative_criterion())
    doubled = decide(ContributionRates(tuple(2 * x for x in rates)), relative_criterion())
    assert base == 2 and doubled == 4  # scaling moves decisions unless renormalized


def test_normalized_relative_rule_rescales_first():
    doubled = ContributionRates((0.60, 0.50, 0.4, 0.30, 0.20))
    assert decide(doubled, relative_criterion(normalize=True)) == 2
    assert decide(doubled, relative_criterion()) == 4
    assert relative_criterion(normalize=True).label() == "relative_size(normalized)"
    assert relative_criterion().label() == "relative_size"
    with pytest.raises(ValueError, match="rescaling"):
        DimensionCriterion(kind="cumulative", t_star=0.8, normalize=True)


def test_experiment_case1_directions():
    # classical underestimates the dimension; the q=1 weights recover it
    w = [classical_weights(10, 30), family_weights(10, 30, 1)]
    crits = [cumulative_criterion(0.8), relative_criterion()]
    spectrum = spiked_case(1)
    hists = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 1000, seed=51)
    assert len(hists) == 4
    by_key = {(h.criterion.kind, h.estimator_label): h for h in hists}
    classical = by_key[("cumulative", "classical")]
    shrunk = by_key[("cumulative", "q1")]
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
        [relative_criterion()],
        200,
        seed=53,
    )
    assert hists[0].true_dim == 2


def test_experiment_normalize_flag_runs():
    # on the same draws, rescaling moves only the shrunk relative-size rows
    w = [classical_weights(10, 30), family_weights(10, 30, 1), family_weights(10, 30, 2)]
    runs = [
        dimension_experiment_for_spectrum(
            spiked_case(1), 30, w, [cumulative_criterion(0.8), relative_criterion(normalize)], 2000, seed=55
        )
        for normalize in (False, True)
    ]
    plain, rescaled = ({(h.criterion.kind, h.estimator_label): h for h in hists} for hists in runs)
    assert rescaled[("relative", "q1")].criterion.label() == "relative_size(normalized)"
    for (kind, label), h in plain.items():
        same = np.array_equal(h.counts, rescaled[(kind, label)].counts)
        assert same == (kind == "cumulative" or label == "classical"), (kind, label)


def test_experiment_determinism_across_jobs():
    w = [classical_weights(10, 30)]
    crits = [cumulative_criterion(0.8)]
    spectrum = spiked_case(2)
    h1 = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 5000, seed=57, jobs=1)
    h4 = dimension_experiment_for_spectrum(spectrum, 30, w, crits, 5000, seed=57, jobs=4)
    assert np.array_equal(h1[0].counts, h4[0].counts)


def test_histogram_counts_every_replicate():
    hist = DimensionHistogram(counts=[0, 3, 2], true_dim=1, criterion=relative_criterion(),
                              estimator_label="classical")
    assert hist.replicates == 5
    for removed in ("replicates", "zero_count"):
        with pytest.raises(TypeError):
            DimensionHistogram(counts=[0, 3, 2], true_dim=1, criterion=relative_criterion(),
                               estimator_label="classical", **{removed: 5})


def test_histogram_refuses_non_integral_counts():
    # truncating [0, 2.7, 1.2] would store [0, 2, 1] and report 3 replicates
    for counts in ([0, 2.7, 1.2], [0.5, 3, 2]):
        with pytest.raises(ValueError, match="non-negative integers"):
            DimensionHistogram(counts=counts, true_dim=1, criterion=relative_criterion(),
                               estimator_label="classical")
    hist = DimensionHistogram(counts=[0.0, 3.0, 2.0], true_dim=1, criterion=relative_criterion(),
                              estimator_label="classical")
    assert hist.counts.dtype == np.int64 and hist.replicates == 5


def test_histogram_copies_the_callers_counts():
    counts = np.array([0, 3, 2], dtype=np.int64)
    hist = DimensionHistogram(counts=counts, true_dim=1, criterion=relative_criterion(),
                              estimator_label="classical")
    assert counts.flags.writeable and not hist.counts.flags.writeable
    counts[1] = 7
    assert hist.counts.tolist() == [0, 3, 2]
