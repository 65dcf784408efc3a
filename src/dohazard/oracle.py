"""Ground truth by brute force.

Every arm is drawn through ``simulate._scm_blocks``, the structural model
that also generates the observed cohort, on its own range of stream ids.
An intervention do(X=x) severs every arrow into the exposure: the
confounder (or hidden cause) is still drawn from its own equation, the
exposure is set to the forced value, and everything downstream uses that
value. The fraction of failures by the horizon is the interventional
incidence the analytic estimators approximate, with a plain binomial
standard error.

An arm is streamed: each block of subjects is reduced to integer counts as
it is drawn, so an arm never holds an n-length array, and its incidence is
the count over n, the same float as the mean of the whole arm's indicators.

No random censoring is applied: the target is the latent failure CDF,
so censoring cannot masquerade as estimator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cox import CoxFit, _horizon
from .errors import DegenerateOracleError, InvalidArgumentError, NumericalError
from .simulate import Dataset, ScenarioConfig, _scm_blocks

# Each simulation arm gets its own block of stream ids so arms never share
# bits unless sharing is asked for explicitly.
_ARM_STRIDE = 16
_NUMERATOR_OFFSET = _ARM_STRIDE
_DENOMINATOR_OFFSET = 2 * _ARM_STRIDE
_FACTUAL_OFFSET = 3 * _ARM_STRIDE

_FLAG_THRESHOLD = 0.05


@dataclass(frozen=True)
class OracleResult:
    """Empirical interventional incidence with its binomial uncertainty."""

    incidence: float
    standard_error: float
    n: int
    x_value: float
    horizon_t: float
    seed: int


@dataclass(frozen=True)
class OracleRatio:
    """Ratio of two interventional incidences with a delta-method SE."""

    ratio: float
    standard_error: float
    log_standard_error: float
    numerator: OracleResult
    denominator: OracleResult


def _check_horizon(config: ScenarioConfig, t: float) -> None:
    if not (math.isfinite(t) and 0 < t <= config.horizon_t):
        raise InvalidArgumentError(f"t must lie in (0, horizon_t={config.horizon_t}], got {t}")


def _result(events: int, n: int, x_value: float, t: float, seed: int) -> OracleResult:
    p = events / n
    return OracleResult(
        incidence=p,
        standard_error=math.sqrt(p * (1.0 - p) / n),
        n=n,
        x_value=x_value,
        horizon_t=float(t),
        seed=seed,
    )


def _events(blocks, t: float) -> int:
    """Subjects of the blocks that fail by t."""
    return sum(int(np.count_nonzero(failure <= t)) for _, _, _, failure in blocks)


def simulate_do(
    config: ScenarioConfig, x_value: float, n: int, seed: int, t: float, stream_offset: int = 0
) -> OracleResult:
    """Interventional incidence P(T <= t | do(X=x_value)) by simulation.

    Only administrative truncation at t applies; the returned fraction
    estimates the latent failure CDF under the intervention.
    """
    if not math.isfinite(x_value):
        raise InvalidArgumentError(f"x_value must be finite, got {x_value}")
    _check_horizon(config, t)
    events = _events(_scm_blocks(config, n, seed, stream_offset, x_forced=x_value), t)
    return _result(events, n, x_value, t, seed)


def simulate_factual(
    config: ScenarioConfig, n: int, seed: int, t: float, stream_offset: int = _FACTUAL_OFFSET
) -> OracleResult:
    """Factual (no-intervention) incidence by simulation, same conventions
    as simulate_do."""
    _check_horizon(config, t)
    return _result(_events(_scm_blocks(config, n, seed, stream_offset), t), n, math.nan, t, seed)


def factual_conditional_incidence(
    config: ScenarioConfig,
    x_value: float,
    window: float,
    n: int,
    seed: int,
    t: float,
    stream_offset: int = _FACTUAL_OFFSET,
) -> OracleResult:
    """Conditional incidence P(T <= t | X within window of x_value) in the
    factual world. Conditioning is not intervening: with confounding this
    differs from simulate_do at the same x."""
    if not (math.isfinite(window) and window > 0):
        raise InvalidArgumentError(f"window must be > 0, got {window}")
    _check_horizon(config, t)
    kept = events = 0
    for x, _, _, failure in _scm_blocks(config, n, seed, stream_offset):
        keep = np.abs(x - x_value) <= window
        kept += int(np.count_nonzero(keep))
        events += int(np.count_nonzero(failure[keep] <= t))
    if kept == 0:
        raise DegenerateOracleError(
            f"no subjects within {window} of x={x_value}; widen the window or increase n"
        )
    return _result(events, kept, float(x_value), t, seed)


def oracle_rr(
    config: ScenarioConfig,
    x: float,
    x0: float,
    n: int,
    seed: int,
    t: float,
    shared_streams: bool = False,
) -> OracleRatio:
    """Ratio of interventional incidences at x versus x0.

    Arms run on disjoint stream blocks of the same seed, so the binomial
    errors are independent and the delta-method SE on the log ratio is
    valid. shared_streams=True reuses one block for both arms, which makes
    the x == x0 ratio exactly one; its SE is not meaningful and is
    reported as zero when the arms coincide.
    """
    num_off = 0 if shared_streams else _NUMERATOR_OFFSET
    den_off = 0 if shared_streams else _DENOMINATOR_OFFSET
    numerator = simulate_do(config, x, n, seed, t, stream_offset=num_off)
    denominator = simulate_do(config, x0, n, seed, t, stream_offset=den_off)
    for arm, label in ((numerator, "numerator"), (denominator, "denominator")):
        if arm.incidence == 0.0:
            raise DegenerateOracleError(
                f"no events in the {label} arm (x={arm.x_value}); increase n or t"
            )
    ratio = numerator.incidence / denominator.incidence
    if shared_streams and x == x0:
        se_log = 0.0
    else:
        se_log = math.sqrt(
            (1.0 - numerator.incidence) / (n * numerator.incidence)
            + (1.0 - denominator.incidence) / (n * denominator.incidence)
        )
    return OracleRatio(
        ratio=ratio,
        standard_error=ratio * se_log,
        log_standard_error=se_log,
        numerator=numerator,
        denominator=denominator,
    )


def oracle_paf(config: ScenarioConfig, n: int, seed: int, t: float, x0: float = 0.0) -> tuple[float, float]:
    """Simulated population attributable fraction
    (I_factual - I_do(x0)) / I_factual, with a delta-method SE."""
    factual = simulate_factual(config, n, seed, t)
    counterfactual = simulate_do(config, x0, n, seed, t, stream_offset=_NUMERATOR_OFFSET)
    if factual.incidence == 0.0:
        raise DegenerateOracleError("no factual events; increase n or t")
    if counterfactual.incidence == 0.0:
        raise DegenerateOracleError("no events under do(x0); increase n or t")
    ratio = counterfactual.incidence / factual.incidence
    se_log = math.sqrt(
        (1.0 - counterfactual.incidence) / (n * counterfactual.incidence)
        + (1.0 - factual.incidence) / (n * factual.incidence)
    )
    return 1.0 - ratio, ratio * se_log


def taylor_relative_error(h: float) -> float:
    """Relative error of approximating 1 - exp(-h) by h:
    (h - 1 + exp(-h)) / (1 - exp(-h)); zero at h = 0."""
    if not (math.isfinite(h) and h >= 0):
        raise InvalidArgumentError(f"h must be >= 0, got {h}")
    if h == 0.0:
        return 0.0
    return (h + math.expm1(-h)) / -math.expm1(-h)


@dataclass(frozen=True)
class ApproxErrorReport:
    """How hard the rare-outcome shortcut is being pushed on one cohort."""

    horizon_t: float
    max_cumhaz: float
    mean_cumhaz: float
    max_rel_error: float
    flagged: bool


def approx_error_report(fit: CoxFit, dataset: Dataset, t: float) -> ApproxErrorReport:
    """Per-subject cumulative hazards H_i = exp(eta_i) * H0(t) and the worst
    Taylor error of 1 - exp(-H) ~ H across the cohort; flagged past 5%.

    The closed-form bound rel <= H/2 * (1 + H) is verified on every call.
    """
    t = _horizon(t)
    idx = [dataset.column_index(c) for c in fit.covariate_names]
    eta = dataset.covariates[:, idx] @ fit.beta
    h = np.exp(eta) * fit.baseline_cumhaz(t)
    max_h = float(np.max(h))
    rel = np.where(h > 0, (h + np.expm1(-h)) / np.where(h > 0, -np.expm1(-h), 1.0), 0.0)
    max_rel = float(np.max(rel))
    bound = h / 2.0 * (1.0 + h)
    if np.any(rel > bound + 1e-12):
        raise NumericalError("Taylor error exceeded its closed-form bound; hazards are corrupt")
    return ApproxErrorReport(
        horizon_t=float(t),
        max_cumhaz=max_h,
        mean_cumhaz=float(np.mean(h)),
        max_rel_error=max_rel,
        flagged=max_rel > _FLAG_THRESHOLD,
    )
