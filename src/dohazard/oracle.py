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
that of a draw of the arm alone. A ratio or PAF compares two arms of that
one draw, so it also counts the subjects failing under both, and its
delta-method SE is the paired one.

No random censoring is applied: the target is the latent failure CDF,
so censoring cannot masquerade as estimator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Dataset
from .cox import CoxFit, _horizon
from .errors import DegenerateOracleError, InvalidArgumentError
from .results import CausalEstimate
from .simulate import ScenarioConfig, _scm_blocks

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
    """Ratio of two interventional incidences of one draw with a paired
    delta-method SE."""

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


def _result(events: int, n: int, x_value: float | None, t: float, seed: int) -> OracleResult:
    """events of n as an OracleResult; the factual arm's (None) x_value is NaN."""
    p = events / n
    x_value = math.nan if x_value is None else x_value
    return OracleResult(p, math.sqrt(p * (1.0 - p) / n), n, x_value, float(t), seed)


def _event_counts(config: ScenarioConfig, n: int, seed: int, offset: int, xs, ts, pairs=()) -> dict:
    """Subjects failing by t under do(X=x), keyed (x, t) for every x of xs
    and of pairs (None: the factual arm) and t of ts, and subjects failing
    by t under both arms of a pair (x, x0), keyed (x, x0, t), all from one
    draw of the exogenous noise at offset. Every x and t is checked before
    any stream opens."""
    xs = list(dict.fromkeys([*xs, *(x for pair in pairs for x in pair)]))
    _check_arms(config, xs, ts)
    ts, pairs = list(dict.fromkeys(ts)), list(dict.fromkeys(pairs))
    counts = dict.fromkeys([(x, t) for x in xs for t in ts] + [(x, x0, t) for x, x0 in pairs for t in ts], 0)
    for arms in _scm_blocks(config, n, seed, offset, xs):
        failed = {(x, t): failure <= t for x, (_, _, _, failure) in zip(xs, arms) for t in ts}
        for key, hit in failed.items():
            counts[key] += int(np.count_nonzero(hit))
        for x, x0 in pairs:
            for t in ts:
                counts[x, x0, t] += int(np.count_nonzero(failed[x, t] & failed[x0, t]))
    return counts


def simulate_do(
    config: ScenarioConfig, x_value: float, n: int, seed: int, t: float, stream_offset: int = 0
) -> OracleResult:
    """Interventional incidence P(T <= t | do(X=x_value)) by simulation.

    Only administrative truncation at t applies; the returned fraction
    estimates the latent failure CDF under the intervention.
    """
    counts = _event_counts(config, n, seed, stream_offset, [x_value], [t])
    return _result(counts[x_value, t], n, x_value, t, seed)


# Not exported: the benchmark wraps it by module attribute (perfbench/spans.py).
def simulate_factual(config: ScenarioConfig, n: int, seed: int, t: float, stream_offset: int = 0) -> OracleResult:
    """Factual (no-intervention) incidence by simulation, same conventions
    as simulate_do; x_value is NaN."""
    return _result(_event_counts(config, n, seed, stream_offset, [None], [t])[None, t], n, None, t, seed)


def oracle_rr(config: ScenarioConfig, x: float, x0: float, n: int, seed: int, t: float) -> OracleRatio:
    """Ratio of interventional incidences at x versus x0.

    Both arms are counted from one draw of the noise at offset 0 (common
    random numbers): the ratio at x == x0 is exactly one with SE zero, and
    the SE of the log ratio is the paired delta-method one.
    """
    return _ratio(_event_counts(config, n, seed, 0, [], [t], [(x, x0)]), n, seed, x, x0, t)


def _ratio(counts: dict, n: int, seed: int, x: float, x0: float, t: float) -> OracleRatio:
    """oracle_rr from the _event_counts of the pair (x, x0) at t."""
    numerator, denominator = _result(counts[x, t], n, x, t, seed), _result(counts[x0, t], n, x0, t, seed)
    for arm, label in ((numerator, "numerator"), (denominator, "denominator")):
        if arm.incidence == 0.0:
            raise DegenerateOracleError(f"no events in the {label} arm (x={arm.x_value}); increase n or t")
    ratio = numerator.incidence / denominator.incidence
    se_log = _log_ratio_se(counts[x, t], counts[x0, t], counts[x, x0, t])
    return OracleRatio(ratio, ratio * se_log, se_log, numerator, denominator)


def _log_ratio_se(a: int, b: int, both: int) -> float:
    """Delta-method SE of log(a / b) for two arms counted on the same n
    subjects, a and b failing under each and both under the two:
    se^2 = (a + b - 2 both) / (a b), whose numerator counts the subjects
    failing under exactly one arm, so it is never negative and is zero for
    an arm against itself."""
    return math.sqrt((a + b - 2 * both) / (a * b))


# Not exported: the benchmark wraps it by module attribute (perfbench/spans.py).
def oracle_paf(config: ScenarioConfig, n: int, seed: int, t: float, x0: float = 0.0) -> tuple[float, float]:
    """Simulated population attributable fraction
    (I_factual - I_do(x0)) / I_factual, with the paired delta-method SE:
    both arms are counted from one draw of the noise at offset 0."""
    return _paf(_event_counts(config, n, seed, 0, [], [t], [(None, x0)]), n, x0, t)


def _paf(counts: dict, n: int, x0: float, t: float) -> tuple[float, float]:
    """oracle_paf from the _event_counts of the pair (None, x0) at t."""
    factual, counterfactual = counts[None, t], counts[x0, t]
    if factual == 0:
        raise DegenerateOracleError("no factual events; increase n or t")
    if counterfactual == 0:
        raise DegenerateOracleError("no events under do(x0); increase n or t")
    ratio = (counterfactual / n) / (factual / n)
    return 1.0 - ratio, ratio * _log_ratio_se(counterfactual, factual, counts[None, x0, t])


def references(config: ScenarioConfig, n: int, seed: int, rows) -> tuple[list, list]:
    """The oracle rows and each row's (oracle_value, oracle_se), all from
    one draw of the noise at offset 0 (see _event_counts).

    rows are a DAG's estimate table, (method, x, x0, t, CausalEstimate). A
    causal_rr row's reference is the ratio of its pair, a do_cdf row's the
    incidence under do(x), a paf row's the PAF of the factual arm against
    do(x0). Each do_cdf row gives one ("oracle", x, NaN, t, CausalEstimate)
    row holding that incidence, whose reference is itself; the references
    are those of rows + oracle rows.
    """
    xs = [x for method, x, *_ in rows if method == "do_cdf"]
    pairs = [(x, x0) for method, x, x0, *_ in rows if method == "causal_rr"]
    pairs += [(None, x0) for method, _, x0, *_ in rows if method == "paf"]
    counts = _event_counts(config, n, seed, 0, xs, [row[3] for row in rows], pairs)
    oracle_rows, refs = [], []
    for method, x, x0, t, _ in rows:
        if method == "causal_rr":
            ratio = _ratio(counts, n, seed, x, x0, t)
            refs.append((ratio.ratio, ratio.standard_error))
        elif method == "paf":
            refs.append(_paf(counts, n, x0, t))
        elif method == "do_cdf":
            arm = _result(counts[x, t], n, x, t, seed)
            refs.append((arm.incidence, arm.standard_error))
            oracle_rows.append(("oracle", x, math.nan, t, CausalEstimate(arm.incidence, arm.standard_error, "oracle")))
        else:
            raise InvalidArgumentError(f"the oracle has no reference for {method!r} rows")
    return oracle_rows, refs + [(est.value, est.std_err) for *_, est in oracle_rows]


def taylor_relative_error(h: float) -> float:
    """Relative error of approximating 1 - exp(-h) by h:
    (h - 1 + exp(-h)) / (1 - exp(-h)); zero at h = 0. It increases with h.

    exp(-h) - 1 is numpy's expm1 of a 1-element array, not math.expm1,
    which differs from it in the last bit for some h: report.json's
    max_rel_error holds numpy's bits."""
    if not (math.isfinite(h) and h >= 0):
        raise InvalidArgumentError(f"h must be >= 0, got {h}")
    if h == 0.0:
        return 0.0
    m = np.expm1(np.array([-h]))
    return float((h + m[0]) / -m[0])


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
    Taylor error of 1 - exp(-H) ~ H across the cohort, the error at the
    largest H_i; flagged past 5%.
    """
    t = _horizon(t)
    idx = [dataset.column_index(c) for c in fit.covariate_names]
    eta = dataset.covariates[:, idx] @ fit.beta
    h = np.exp(eta) * fit.baseline_cumhaz(t)
    max_h = float(np.max(h))
    max_rel = taylor_relative_error(max_h)
    return ApproxErrorReport(
        horizon_t=float(t),
        max_cumhaz=max_h,
        mean_cumhaz=float(np.mean(h)),
        max_rel_error=max_rel,
        flagged=max_rel > _FLAG_THRESHOLD,
    )
