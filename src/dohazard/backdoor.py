"""Covariate-standardized ("adjustment formula") causal estimators.

With measured confounders Z, the interventional incidence at horizon t is
approximately exp(eta_x(x)) * H0(t) * a_z under a rare outcome, where
a_z averages exp(eta_z) over the study-start population. Ratios of such
incidences reduce to exp(eta_x(x) - eta_x(x0)): the confounder average
cancels, so the causal relative risk uses x-coefficients only.

Baseline convention: eta(x0) = 0 at covariates equal to zero, matching the
uncentered Breslow baseline of the fitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Dataset
from .cox import CoxFit, _eta, _horizon
from .errors import InvalidArgumentError, NumericalError
from .results import RARITY_THRESHOLD, CausalEstimate
from .stats import _pairwise_sum


@dataclass(frozen=True)
class BackdoorSummary:
    """Population-level factors of the adjustment formula.

    a_z averages exp(eta_z) over subjects; mean_joint_risk averages the
    full exp(eta); max_cumhaz is the largest per-subject cumulative hazard
    at horizon_t, and rarity_flag marks max_cumhaz > 0.1, where the
    hazard-to-probability shortcut degrades past ~5% relative error.
    """

    a_z: float
    mean_joint_risk: float
    horizon_t: float
    max_cumhaz: float
    rarity_flag: bool
    z_columns: tuple


def _as_values(x, names, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.shape[0] != len(names):
        raise InvalidArgumentError(
            f"{what} must supply {len(names)} value(s) for columns {list(names)}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{what} contains non-finite values")
    return arr


def _x_columns(fit: CoxFit, z_columns) -> list:
    return [c for c in fit.covariate_names if c not in z_columns]


def _eta_x(fit: CoxFit, summary: BackdoorSummary, x) -> float:
    names = _x_columns(fit, summary.z_columns)
    values = _as_values(x, names, "x")
    idx = [fit.covariate_names.index(c) for c in names]
    return float(fit.beta[idx] @ values)


def compute_az(dataset: Dataset, fit: CoxFit, z_columns, horizon_t: float | None = None) -> BackdoorSummary:
    """Average exp(eta_z) over the cohort, with the empirical distribution
    standing in for the confounder law exactly (equal weights).

    horizon_t defaults to the last event time of the fitted baseline; it
    only feeds the rarity diagnostic, not a_z itself. It must be finite
    and >= 0.

    One pass over the cohort (_pairwise_sum), _BLOCK rows at a time, holds
    no cohort-sized array: per block, the full linear predictor and the
    confounder part, each through cox._eta, which refuses |eta| past its
    bound, as the fit does; exp of the first, in place, gives the sums for
    mean_joint_risk and the block's share of max_cumhaz; the second gives
    the sum for the Jensen floor and then, exp in place, the sum for a_z.
    Each mean has the bits of np.mean over the whole cohort's array.
    """
    z_columns = tuple(z_columns)
    for k, name in enumerate(z_columns):
        if name in z_columns[:k]:
            raise InvalidArgumentError(f"adjustment column {name!r} is named more than once")
        fit._index(name)  # raises InvalidArgumentError for unknown names
        dataset.column_index(name)
    if horizon_t is None:
        horizon_t = float(fit.baseline_cumhaz.knots[-1])
    horizon_t = _horizon(horizon_t, "horizon_t")

    columns = [dataset.column(c) for c in fit.covariate_names]
    z_cols = [dataset.column(c) for c in z_columns]
    beta_z = fit.beta[[fit._index(c) for c in z_columns]]
    peaks = []

    def leaf(rows):
        joint_risk = _eta([c[rows] for c in columns], fit.beta)
        np.exp(joint_risk, out=joint_risk)
        peaks.append(joint_risk.max())
        if not z_cols:  # eta_z is 0 on every row
            return np.array([np.add.reduce(joint_risk), 0.0, rows.stop - rows.start])
        eta_z = _eta([c[rows] for c in z_cols], beta_z)
        eta_sum = np.add.reduce(eta_z)
        return np.array([np.add.reduce(joint_risk), eta_sum, np.add.reduce(np.exp(eta_z, out=eta_z))])

    joint_sum, eta_z_sum, risk_z_sum = _pairwise_sum(dataset.n, leaf) / dataset.n
    mean_joint_risk = float(joint_sum)
    max_cumhaz = float(max(peaks) * fit.baseline_cumhaz(horizon_t))
    jensen_floor = math.exp(float(eta_z_sum))
    a_z = float(risk_z_sum)
    if a_z < jensen_floor * (1.0 - 1e-12):
        raise NumericalError(f"a_z = {a_z} fell below its Jensen floor {jensen_floor}")
    return BackdoorSummary(
        a_z=a_z,
        mean_joint_risk=mean_joint_risk,
        horizon_t=horizon_t,
        max_cumhaz=max_cumhaz,
        rarity_flag=max_cumhaz > RARITY_THRESHOLD,
        z_columns=z_columns,
    )


def do_cdf(fit: CoxFit, summary: BackdoorSummary, x, t) -> CausalEstimate:
    """Interventional incidence by horizon t: exp(eta_x(x)) * H0(t) * a_z.

    The returned estimate is flagged when its value exceeds 0.1, where it
    stops being a credible probability approximation.
    """
    t = _horizon(t)
    value = math.exp(_eta_x(fit, summary, x)) * fit.baseline_cumhaz(t) * summary.a_z
    return CausalEstimate(
        value=value,
        std_err=float("nan"),
        method="do_cdf",
        rarity_flag=value > RARITY_THRESHOLD,
    )


def causal_rr(fit: CoxFit, summary: BackdoorSummary, x, x0) -> CausalEstimate:
    """Causal relative risk exp(eta_x(x) - eta_x(x0)).

    The exposures are the fit's covariates outside summary.z_columns, as
    for do_cdf; adjustment coefficients cancel in the incidence ratio and
    never enter.
    """
    x_columns = _x_columns(fit, summary.z_columns)
    if not x_columns:
        raise InvalidArgumentError(
            f"no exposure columns: every fit covariate {fit.covariate_names} is an adjustment column"
        )
    x_vec = _as_values(x, x_columns, "x")
    x0_vec = _as_values(x0, x_columns, "x0")
    idx = [fit._index(c) for c in x_columns]
    delta = x_vec - x0_vec
    contrast = np.zeros_like(fit.beta)
    contrast[idx] = delta
    se_log = math.sqrt(max(float(contrast @ fit.covariance @ contrast), 0.0))
    rr = math.exp(float(fit.beta[idx] @ delta))
    return CausalEstimate(value=rr, std_err=rr * se_log, method="causal_rr")


def do_cumhaz(fit: CoxFit, summary: BackdoorSummary, x, t) -> float:
    """Interventional cumulative hazard exp(eta_x(x)) * a_z * H0(t).

    Exact under the fitted model (no rare-outcome step involved)."""
    t = _horizon(t)
    return math.exp(_eta_x(fit, summary, x)) * summary.a_z * fit.baseline_cumhaz(t)


def paf(fit: CoxFit, summary: BackdoorSummary, x0=None) -> float:
    """Population attributable fraction 1 - exp(eta_x(x0)) * a_z / mean(exp(eta)).

    Compares the factual population incidence against everyone forced to
    the reference exposure x0 (all-zero baseline by default); the baseline
    hazard cancels in the ratio, and mean(exp(eta)) is the summary's
    mean_joint_risk.
    """
    eta_x0 = 0.0 if x0 is None else _eta_x(fit, summary, x0)
    return 1.0 - math.exp(eta_x0) * summary.a_z / summary.mean_joint_risk


def estimate_table(dataset: Dataset, fit: CoxFit, contrasts, horizons, z_columns) -> tuple[list, BackdoorSummary]:
    """Every adjustment-formula estimate of a grid as rows
    (method, x, x0, t, CausalEstimate): causal_rr for each contrast (x, x0)
    and t, do_cdf for each x of the contrasts and t (x0 NaN), and paf
    against do(0) for each t (x NaN); plus the summary they share, taken at
    the last horizon. Each estimator is called through this module's
    globals, so a wrapper installed on the module sees every call.
    """
    summary = compute_az(dataset, fit, z_columns, horizon_t=max(horizons))
    rows = []
    for x, x0 in contrasts:
        rr = causal_rr(fit, summary, x, x0)
        rows += [("causal_rr", x, x0, t, rr) for t in horizons]
    for x in dict.fromkeys(v for contrast in contrasts for v in contrast):
        rows += [("do_cdf", x, math.nan, t, do_cdf(fit, summary, x, t)) for t in horizons]
    attributable = CausalEstimate(value=paf(fit, summary), std_err=math.nan, method="paf")
    rows += [("paf", math.nan, 0.0, t, attributable) for t in horizons]
    return rows, summary


def naive_rr(dataset: Dataset, x_column: str, x, x0) -> CausalEstimate:
    """Unadjusted comparator: single-covariate fit on the exposure alone.

    Reported only to show what conditioning without adjustment does; this
    is not a causal quantity when confounders exist.
    """
    from .cox import fit_cox

    fit = fit_cox(dataset, [x_column])
    beta = fit.coef(x_column)
    se = fit.std_err(x_column)
    delta = float(x) - float(x0)
    rr = math.exp(beta * delta)
    return CausalEstimate(value=rr, std_err=rr * abs(delta) * se, method="naive_rr")
