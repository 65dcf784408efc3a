"""Ground truth by brute force.

Every arm is drawn through ``simulate._scm_blocks``, the structural model
that also generates the observed cohort. An intervention do(X=x) severs
every arrow into the exposure: the confounder (or hidden cause) is still
drawn from its own equation, the exposure is set to the forced value, and
everything downstream uses that value. The fraction of failures by the
horizon is the interventional incidence the analytic estimators
approximate, with a plain binomial standard error.

The arms at one stream offset differ only in the forced x, so
``_event_counts`` counts every (x, t) of an offset from one draw of its
noise, block by block (common random numbers), each count bit for bit
that of a draw of the arm alone. The ratio and PAF arms keep their own
offsets, so their errors stay independent and the delta-method SEs hold.

No random censoring is applied: the target is the latent failure CDF,
so censoring cannot masquerade as estimator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Dataset
from .cox import CoxFit, _horizon
from .errors import DegenerateOracleError, InvalidArgumentError, NumericalError
from .simulate import ScenarioConfig, _scm_blocks

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


def _check_arms(config: ScenarioConfig, xs, ts) -> None:
    """Every forced x finite (None: the factual arm), every t in (0, horizon_t]."""
    for x in xs:
        if x is not None and not math.isfinite(x):
            raise InvalidArgumentError(f"x_value must be finite, got {x}")
    for t in ts:
        if not (math.isfinite(t) and 0 < t <= config.horizon_t):
            raise InvalidArgumentError(f"t must lie in (0, horizon_t={config.horizon_t}], got {t}")


def _result(events: int, n: int, x_value: float, t: float, seed: int) -> OracleResult:
    p = events / n
    return OracleResult(p, math.sqrt(p * (1.0 - p) / n), n, x_value, float(t), seed)


def _event_counts(config: ScenarioConfig, n: int, seed: int, offset: int, xs, ts) -> dict:
    """Subjects failing by t under do(X=x), keyed (x, t) for every x of xs
    (None: the factual arm) and t of ts, from one draw of the exogenous
    noise at offset. Every x and t is checked before any stream opens."""
    _check_arms(config, xs, ts)
    xs, ts = list(dict.fromkeys(xs)), list(dict.fromkeys(ts))
    counts = {(x, t): 0 for x in xs for t in ts}
    for arms in _scm_blocks(config, n, seed, offset, xs):
        for x, (_, _, _, failure) in zip(xs, arms):
            for t in ts:
                counts[x, t] += int(np.count_nonzero(failure <= t))
    return counts


def _incidences(config: ScenarioConfig, n: int, seed: int, offset: int, xs, ts) -> dict:
    """_event_counts as OracleResults; the factual arm's x_value is NaN."""
    counts = _event_counts(config, n, seed, offset, xs, ts)
    return {(x, t): _result(c, n, math.nan if x is None else x, t, seed) for (x, t), c in counts.items()}


def simulate_do(
    config: ScenarioConfig, x_value: float, n: int, seed: int, t: float, stream_offset: int = 0
) -> OracleResult:
    """Interventional incidence P(T <= t | do(X=x_value)) by simulation.

    Only administrative truncation at t applies; the returned fraction
    estimates the latent failure CDF under the intervention.
    """
    return _incidences(config, n, seed, stream_offset, [x_value], [t])[x_value, t]


def simulate_factual(
    config: ScenarioConfig, n: int, seed: int, t: float, stream_offset: int = _FACTUAL_OFFSET
) -> OracleResult:
    """Factual (no-intervention) incidence by simulation, same conventions
    as simulate_do."""
    return _incidences(config, n, seed, stream_offset, [None], [t])[None, t]


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
    _check_arms(config, [], [t])
    kept = events = 0
    for [(x, _, _, failure)] in _scm_blocks(config, n, seed, stream_offset):
        keep = np.abs(x - x_value) <= window
        kept += int(np.count_nonzero(keep))
        events += int(np.count_nonzero(failure[keep] <= t))
    if kept == 0:
        raise DegenerateOracleError(f"no subjects within {window} of x={x_value}; widen the window or increase n")
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
    valid. shared_streams=True counts both arms from one draw at offset 0,
    which makes the x == x0 ratio exactly one; its SE is not meaningful and
    is reported as zero when the arms coincide.
    """
    _check_arms(config, [x, x0], [t])
    if shared_streams:
        arms = _incidences(config, n, seed, 0, [x, x0], [t])
        return _ratio(arms[x, t], arms[x0, t], coincide=x == x0)
    numerator = simulate_do(config, x, n, seed, t, stream_offset=_NUMERATOR_OFFSET)
    denominator = simulate_do(config, x0, n, seed, t, stream_offset=_DENOMINATOR_OFFSET)
    return _ratio(numerator, denominator)


def _ratio(numerator: OracleResult, denominator: OracleResult, coincide: bool = False) -> OracleRatio:
    """oracle_rr from its two arms; coincide: both are one draw, SE zero."""
    for arm, label in ((numerator, "numerator"), (denominator, "denominator")):
        if arm.incidence == 0.0:
            raise DegenerateOracleError(f"no events in the {label} arm (x={arm.x_value}); increase n or t")
    ratio = numerator.incidence / denominator.incidence
    se_log = 0.0 if coincide else _log_ratio_se(numerator, denominator)
    return OracleRatio(ratio, ratio * se_log, se_log, numerator, denominator)


def _log_ratio_se(a: OracleResult, b: OracleResult) -> float:
    """Delta-method SE of log(a / b) for independent binomial arms."""
    return math.sqrt((1.0 - a.incidence) / (a.n * a.incidence) + (1.0 - b.incidence) / (b.n * b.incidence))


def oracle_paf(config: ScenarioConfig, n: int, seed: int, t: float, x0: float = 0.0) -> tuple[float, float]:
    """Simulated population attributable fraction
    (I_factual - I_do(x0)) / I_factual, with a delta-method SE."""
    counterfactual = simulate_do(config, x0, n, seed, t, stream_offset=_NUMERATOR_OFFSET)  # checks x0 and t first
    return _paf(simulate_factual(config, n, seed, t), counterfactual)


def _paf(factual: OracleResult, counterfactual: OracleResult) -> tuple[float, float]:
    """oracle_paf from its factual and do(x0) arms."""
    if factual.incidence == 0.0:
        raise DegenerateOracleError("no factual events; increase n or t")
    if counterfactual.incidence == 0.0:
        raise DegenerateOracleError("no events under do(x0); increase n or t")
    ratio = counterfactual.incidence / factual.incidence
    return 1.0 - ratio, ratio * _log_ratio_se(counterfactual, factual)


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
