"""Shrinkage estimation of eigenvalue contribution rates.

Estimates the fraction of variance carried by each population eigenvalue
from a sample scatter matrix, with multiplicative shrinkage weights that
provably improve on the raw sample rates, plus the Monte Carlo machinery
(samplers, losses, risk identities, dimension criteria) used to verify
and exercise them.
"""

from .core import (
    ContributionRates,
    LossValue,
    SampleDecomposition,
    ScatterSample,
    Spectrum,
    contribution_rates,
    eigh_descending_batch,
    symmetric_eigendecompose,
)
from .dimension import (
    DimensionCriterion,
    DimensionDecision,
    DimensionHistogram,
    cumulative_criterion,
    decide,
    decide_cumulative,
    decide_relative,
    dimension_experiment,
    relative_criterion,
)
from .estimators import (
    ConditionReport,
    ShrinkageWeights,
    check_conditions,
    classical_estimate,
    classical_weights,
    condition2_family_bound,
    family_weights,
    plugin_covariance,
    shrink_estimate,
)
from .evaluation import (
    BiasSimulation,
    InvarianceReport,
    RiskComparison,
    RiskEstimate,
    SteinHaffCheck,
    bias_expansion,
    compare_risks,
    entropy_loss,
    entropy_risk_difference_bound,
    invariance_check,
    quadratic_loss,
    sample_rates,
    simulate_bias,
    simulate_stein_haff,
    stein_haff_G,
)
from .sampling import (
    SamplerConfig,
    SpikedModel,
    parse_distribution,
    sample_elliptical_t,
    sample_wishart,
    spiked_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Spectrum",
    "ContributionRates",
    "ScatterSample",
    "SampleDecomposition",
    "LossValue",
    "contribution_rates",
    "symmetric_eigendecompose",
    "eigh_descending_batch",
    "ShrinkageWeights",
    "ConditionReport",
    "classical_weights",
    "family_weights",
    "classical_estimate",
    "shrink_estimate",
    "plugin_covariance",
    "check_conditions",
    "condition2_family_bound",
    "SpikedModel",
    "SamplerConfig",
    "parse_distribution",
    "spiked_spectrum",
    "sample_wishart",
    "sample_elliptical_t",
    "RiskEstimate",
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
    "DimensionCriterion",
    "DimensionDecision",
    "DimensionHistogram",
    "cumulative_criterion",
    "relative_criterion",
    "decide",
    "decide_cumulative",
    "decide_relative",
    "dimension_experiment",
]
