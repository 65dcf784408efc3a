"""Causal effect estimation for rare-event proportional-hazards cohorts.

Simulate confounded or mediated survival cohorts, fit Cox models, apply
covariate standardization or mediator factorization to recover
interventional quantities, and check every analytic answer against a
brute-force do-intervention oracle.
"""

from .backdoor import (
    BackdoorSummary,
    causal_rr,
    compute_az,
    do_cdf,
    do_cumhaz,
    naive_rr,
    paf,
)
from .cohort import Dataset, load_dataset, save_dataset
from .cox import (
    CoxFit,
    StepFunction,
    fit_cox,
    load_fit,
    save_fit,
)
from .errors import (
    DegenerateCovariateError,
    DegenerateOracleError,
    DohazardError,
    InvalidArgumentError,
    MonotoneLikelihoodError,
    NoEventsError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .frontdoor import (
    FrontdoorParams,
    estimate_frontdoor_params,
    frontdoor_causal_rr,
    frontdoor_do_cdf_gaussian,
    mediation_indirect_rr,
)
from .oracle import (
    ApproxErrorReport,
    OracleRatio,
    OracleResult,
    approx_error_report,
    oracle_rr,
    simulate_do,
    taylor_relative_error,
)
from .results import CausalEstimate
from .simulate import (
    BackdoorCoefficients,
    BernoulliZ,
    ExponentialHazard,
    FrontdoorCoefficients,
    ScenarioConfig,
    StandardNormalZ,
    WeibullHazard,
    generate,
    load_scenario_config,
)
from .stats import RngStream, ols_fit

__version__ = "0.1.0"

__all__ = [
    "ApproxErrorReport",
    "BackdoorCoefficients",
    "BackdoorSummary",
    "BernoulliZ",
    "CausalEstimate",
    "CoxFit",
    "Dataset",
    "DegenerateCovariateError",
    "DegenerateOracleError",
    "DohazardError",
    "ExponentialHazard",
    "FrontdoorCoefficients",
    "FrontdoorParams",
    "InvalidArgumentError",
    "MonotoneLikelihoodError",
    "NoEventsError",
    "NumericalError",
    "OracleRatio",
    "OracleResult",
    "ParseError",
    "RngStream",
    "ScenarioConfig",
    "StandardNormalZ",
    "StepFunction",
    "ValidationError",
    "WeibullHazard",
    "approx_error_report",
    "causal_rr",
    "compute_az",
    "do_cdf",
    "do_cumhaz",
    "estimate_frontdoor_params",
    "fit_cox",
    "frontdoor_causal_rr",
    "frontdoor_do_cdf_gaussian",
    "generate",
    "load_dataset",
    "load_fit",
    "load_scenario_config",
    "mediation_indirect_rr",
    "naive_rr",
    "ols_fit",
    "oracle_rr",
    "paf",
    "save_dataset",
    "save_fit",
    "simulate_do",
    "taylor_relative_error",
]
