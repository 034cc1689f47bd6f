"""Shrinkage estimation of eigenvalue contribution rates.

Estimates the fraction of variance carried by each population eigenvalue
from a sample scatter matrix, with multiplicative shrinkage weights that
provably improve on the raw sample rates, plus the Monte Carlo machinery
(samplers, losses, risk identities, dimension criteria) used to verify
and exercise them.
"""

from .core import (
    ContributionRates,
    SampleDecomposition,
    Spectrum,
    eigh_descending_batch,
    symmetric_eigendecompose,
)
from .dimension import (
    CumulativeCriterion,
    DimensionHistogram,
    RelativeCriterion,
    decide,
    dimension_experiment_for_spectrum,
)
from .estimators import (
    ConditionReport,
    ShrinkageWeights,
    check_conditions,
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
from .sampling import parse_distribution, scatter_chunk

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Spectrum",
    "ContributionRates",
    "SampleDecomposition",
    "symmetric_eigendecompose",
    "eigh_descending_batch",
    "ShrinkageWeights",
    "ConditionReport",
    "classical_weights",
    "family_weights",
    "shrink_estimate",
    "plugin_covariance",
    "check_conditions",
    "condition2_family_bound",
    "parse_distribution",
    "scatter_chunk",
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
    "CumulativeCriterion",
    "RelativeCriterion",
    "DimensionHistogram",
    "decide",
    "dimension_experiment_for_spectrum",
]
