"""Mediator-based ("frontdoor") causal estimators for unmeasured confounding.

The hidden confounder U drives both the exposure X and the hazard, but X
acts on the hazard only through a measured mediator Z = gamma + alpha * X
+ noise. The interventional incidence then factorizes into the baseline, a
confounded constant (the x' average), a mediator-noise constant, and
exp(beta_z * (gamma + alpha * x)); only the last factor moves with the
intervention, so the causal relative risk is exp(beta_z * alpha * (x - x0))
no matter how strong the confounding. The intercept gamma keeps the
incidence unchanged when z is shifted by a constant c: the baseline,
anchored at covariates equal to zero, moves by exp(-beta_z * c), and gamma
by c.

The same product of coefficients is the natural indirect effect of a
mediation analysis with no direct pathway; ``mediation_indirect_rr`` is
the same computation under that name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .cohort import Dataset
from .cox import CoxFit
from .errors import InvalidArgumentError
from .results import RARITY_THRESHOLD, CausalEstimate
from .stats import ols_fit


@dataclass(frozen=True)
class FrontdoorParams:
    """Estimated pieces of the factorized interventional incidence.

    beta_x is the confounded exposure coefficient from the (x, z) hazard
    fit, and gamma the intercept of the mediator line z ~ x; both enter the
    incidence level only, never the relative risk.
    se_alpha and se_beta_z, when present, feed the delta-method standard
    error of the relative risk.
    """

    beta_x: float
    beta_z: float
    alpha: float
    gamma: float
    mu_x: float
    sigma_x: float
    sigma_z: float
    se_alpha: float | None = None
    se_beta_z: float | None = None

    def __post_init__(self) -> None:
        for name in ("beta_x", "beta_z", "alpha", "gamma", "mu_x", "sigma_x", "sigma_z"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"FrontdoorParams.{name} must be finite")
        if self.sigma_x < 0 or self.sigma_z < 0:
            raise InvalidArgumentError("FrontdoorParams sigmas must be >= 0")


def estimate_frontdoor_params(dataset: Dataset, fit: CoxFit) -> FrontdoorParams:
    """Fit every factor from one cohort: the mediator line z ~ x by least
    squares, with the exposure's sample mean and sd from the same passes,
    and take (beta_x, beta_z) from fit, the proportional-hazards fit on
    (x, z). Any latent column is ignored.
    """
    alpha, gamma, sigma_z, se_alpha, mu_x, sigma_x = ols_fit(dataset.column("x"), dataset.column("z"))
    return FrontdoorParams(
        beta_x=fit.coef("x"),
        beta_z=fit.coef("z"),
        alpha=alpha,
        gamma=gamma,
        mu_x=mu_x,
        sigma_x=sigma_x,
        sigma_z=sigma_z,
        se_alpha=se_alpha,
        se_beta_z=fit.std_err("z"),
    )


def frontdoor_do_cdf_gaussian(params: FrontdoorParams, h0_t: float, x: float) -> CausalEstimate:
    """Closed-form interventional incidence for Gaussian exposure and
    mediator noise:

        h0_t * exp(beta_x*mu_x) * exp(sigma_x^2*beta_x^2/2 + sigma_z^2*beta_z^2/2)
             * exp(beta_z*(gamma + alpha*x))

    Flagged when the value exceeds 0.1 (no longer a credible probability).
    """
    if not (math.isfinite(h0_t) and h0_t >= 0):
        raise InvalidArgumentError(f"h0_t must be >= 0, got {h0_t}")
    if not math.isfinite(x):
        raise InvalidArgumentError(f"x must be finite, got {x}")
    value = (
        h0_t
        * math.exp(params.beta_x * params.mu_x)
        * math.exp((params.sigma_x * params.beta_x) ** 2 / 2.0 + (params.sigma_z * params.beta_z) ** 2 / 2.0)
        * math.exp(params.beta_z * (params.gamma + params.alpha * x))
    )
    return CausalEstimate(
        value=value,
        std_err=float("nan"),
        method="frontdoor_do_cdf_gaussian",
        rarity_flag=value > RARITY_THRESHOLD,
    )


def frontdoor_causal_rr(params: FrontdoorParams, x: float, x0: float) -> CausalEstimate:
    """Causal relative risk exp(beta_z * alpha * (x - x0)).

    Every confounded factor cancels in the incidence ratio. The standard
    error treats the hazard fit and the mediator regression as independent
    and applies the delta method to the product of coefficients.
    """
    if not (math.isfinite(x) and math.isfinite(x0)):
        raise InvalidArgumentError("x and x0 must be finite")
    delta = x - x0
    rr = math.exp(params.beta_z * params.alpha * delta)
    if params.se_alpha is None or params.se_beta_z is None:
        se = float("nan")
    else:
        var_log = delta * delta * (
            params.alpha ** 2 * params.se_beta_z ** 2 + params.beta_z ** 2 * params.se_alpha ** 2
        )
        se = rr * math.sqrt(var_log)
    return CausalEstimate(value=rr, std_err=se, method="frontdoor_causal_rr")


def mediation_indirect_rr(params: FrontdoorParams, x: float, x0: float) -> CausalEstimate:
    """Natural indirect effect rate ratio for the solely-mediated model
    (no direct exposure pathway, no exposure-mediator interaction).

    This is the frontdoor relative risk under another name; the shared
    code path keeps the two identical to the last bit.
    """
    est = frontdoor_causal_rr(params, x, x0)
    return dataclasses.replace(est, method="mediation_indirect_rr")


def estimate_table(dataset: Dataset, fit: CoxFit, contrasts, horizons) -> tuple[list, FrontdoorParams]:
    """Every frontdoor estimate of a grid as rows (method, x, x0, t,
    CausalEstimate): causal_rr for each contrast (x, x0) and t, and do_cdf
    for each x of the contrasts and t (x0 NaN), and no paf; plus the fitted
    params. Each estimator is called through this module's globals, so a
    wrapper installed on the module sees every call.
    """
    params = estimate_frontdoor_params(dataset, fit)
    rows = []
    for x, x0 in contrasts:
        rr = frontdoor_causal_rr(params, x, x0)
        rows += [("causal_rr", x, x0, t, rr) for t in horizons]
    for x in dict.fromkeys(v for contrast in contrasts for v in contrast):
        rows += [
            ("do_cdf", x, math.nan, t, frontdoor_do_cdf_gaussian(params, fit.baseline_cumhaz(t), x)) for t in horizons
        ]
    return rows, params
