"""Ground truth by brute force.

Every arm is formed by ``simulate._arm`` from the blocks of
``simulate._exogenous_blocks``, the structural model that also generates
the observed cohort. An intervention do(X=x) severs
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

The structural model gives each subject's latent failure on the
cumulative-hazard scale, H = H0(T). A subject fails by t when
invert(H) <= t, and ``_event_counts`` decides that on the hazard scale:
H below H0(t (1 - _BAND)) fails, H above H0(t (1 + _BAND)) does not, and
only the few subjects inside that band are inverted to their failure
time and compared with t. Every baseline takes a band, the exponential
one too. Where the band's edges do not invert back to within t _BAND / 2
of their times, every subject is inverted once per arm.

Under do(x) the forced arms differ only by a constant shift of the log
hazard. So a request with two forced arms or more forms only the first of
them on a whole block, and decides every forced arm from its hazards
(``_Screen``). Only the few subjects near a band's edge, scaled by an
arm's shift, are formed under each forced arm and decided as above. The
screen only decides: ``_event_counts`` counts every arm and pair of a
block from one array of decisions, screened or not.

No random censoring is applied: the target is the latent failure CDF,
so censoring cannot masquerade as estimator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Dataset
from .cox import CoxFit, _eta, _horizon
from .errors import DegenerateOracleError, InvalidArgumentError
from .results import CausalEstimate
from .simulate import ScenarioConfig, _arm, _Draws, _exogenous_blocks, _log_hazard
from .stats import _pairwise_sum

_FLAG_THRESHOLD = 0.05
# Relative half-width, in time, of the band of latent cumulative hazards
# around H0(t) whose subjects _event_counts inverts to failure times.
_BAND = 2.0**-30
# Relative margin of a _Screen's edges, and the bound on the terms of a
# screened block's log hazards, which keeps its roundings well inside it.
_MARGIN = 2.0**-30
_TERMS = 2.0**9
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


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


def _bands(baseline, ts):
    """Each horizon's (lo, hi) = H0(t (1 -+ _BAND)), or None where every
    subject is inverted instead. Each edge of a returned band inverts to at
    least t _BAND / 2 from t, some 2**21 ulps of t, and invert is monotone
    to within a few ulps: so a latent hazard below lo fails by t, and one
    above hi does not.

    None when an edge does not invert to within t _BAND / 2 of its own time:
    an extreme Weibull shape, or an H0 that under- or overflows. An
    exponential baseline takes a band too, though its inverse is one
    division: a _Screen needs the band of every baseline."""
    bands = []
    for t in ts:
        edges = t * np.array([1.0 - _BAND, 1.0 + _BAND])
        with np.errstate(over="ignore"):
            band = baseline.cumulative(edges)
            back = baseline.invert(band)
        if not np.all(np.abs(back - edges) <= t * _BAND / 2):
            return None
        bands.append((float(band[0]), float(band[1])))
    return bands


def _failed_by(baseline, h: np.ndarray, ts, bands) -> list:
    """[invert(h) <= t for t in ts] for the latent cumulative hazards h:
    h compared with each horizon's band, and only the subjects inside it
    inverted, or every subject inverted once when bands is None."""
    if bands is None:
        failure = baseline.invert(h)
        return [failure <= t for t in ts]
    failed = []
    for t, (lo, hi) in zip(ts, bands):
        hit = h <= hi
        edge = hit & (h >= lo)
        if edge.any():
            hit[edge] = baseline.invert(h[edge]) <= t
        failed.append(hit)
    return failed


class _Screen:
    """A block's failures under every arm of a request, each forced arm
    decided from one, the reference: the first forced x of the request.
    The screen only decides; _event_counts counts.

    Under do(x) the forced arms differ only by a constant shift of the log
    hazard, eta_x = eta_ref + shift[x], which the structural equations give
    on a row of zero draws. So arm x's latent hazards are the reference's H
    times exp(-shift[x]): arm x fails by t where H < lower[x, t] =
    lo exp(shift[x]) (1 - _MARGIN), and survives where H > upper[x, t] =
    hi exp(shift[x]) (1 + _MARGIN), [lo, hi] being t's band. Only the
    candidates, the H up to the largest upper edge, can fail under a forced
    arm. A candidate off every edge fails where its H is below the lower
    edge. Only the few candidates between a lower and an upper edge are
    formed under each forced arm (_arm) and decided by _failed_by, so every
    decision has the bits of the arm's own. The factual arm is formed and
    decided on every subject, as in a block without a screen.

    The margin covers every rounding between H exp(-shift[x]) and the arm's
    own hazard. A block is screened where the structural equations on the
    coefficients' magnitudes, the largest forced |x| and the block's
    largest draws are at most _TERMS. Then every term of a forced arm's
    eta, and so eta, is within 2**9, and its exp and H are normal floats
    (or H is 0 under every arm). The few roundings of two arms' eta and of
    the shift, each within an ulp of 2**9, err by less than 2**-40 in all;
    with exp's few ulps, the product with the failure variate and the
    edges' own roundings, the screened hazard is within 2**-38 relative of
    the arm's, far inside the margin, as long as the edges are normal
    floats. A block the bound fails is decided arm by arm, which also
    refuses a non-finite eta as a draw of the arm does.
    """

    def __init__(self, config: ScenarioConfig, ts: list, bands: list, forced: list, shift):
        coef = config.coefficients
        self.ts, self.bands, self.forced = ts, bands, forced
        self.frontdoor = config.dag_kind == "frontdoor"
        self.magnitudes = type(coef)(**{name: abs(value) for name, value in vars(coef).items()})
        self.x_abs = max(abs(x) for x in forced)
        # each edge is [arm, t, 1], against a block's row of hazards
        lo, hi = np.array(bands).T[..., None]
        scale = np.exp(shift)[:, None, None]
        self.lower, self.upper = lo * scale * (1.0 - _MARGIN), hi * scale * (1.0 + _MARGIN)
        self.reach = self.upper.max()

    @classmethod
    def of(cls, config: ScenarioConfig, xs: list, ts: list, bands):
        """The screen of a request with at least two forced arms, or None
        where it has fewer, no band holds, or an edge is not a normal float."""
        forced = [x for x in xs if x is not None]
        if len(forced) < 2 or bands is None:
            return None
        frontdoor = config.dag_kind == "frontdoor"
        zeros = _Draws(np.zeros(1), np.zeros(1) if frontdoor else None, None, None)
        with np.errstate(over="ignore", invalid="ignore"):
            eta = np.array([_log_hazard(config.coefficients, frontdoor, zeros, x)[3][0] for x in forced])
            screen = cls(config, ts, bands, forced, eta - eta[0])
        normal = (screen.lower >= _TINY) & (screen.upper <= _HUGE)
        return screen if normal.all() else None

    def holds(self, draws: _Draws) -> bool:
        """Whether the block's terms are within _TERMS (see the class)."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _log_hazard(self.magnitudes, self.frontdoor, draws.largest(), self.x_abs)[3][0]
        return bool(bound <= _TERMS)

    def failed(self, config: ScenarioConfig, draws: _Draws, xs: list) -> np.ndarray:
        """failed[arm, t, row], whether row fails by t under arm, for the
        arms of xs in their order (None: the factual arm). The rows are
        every row that can fail under one of them, in the block's order:
        the candidates and the factual arm's failures."""
        baseline = config.baseline_hazard
        h = _arm(config, draws, self.forced[0])[3]
        rows = h <= self.reach
        if None in xs:
            factual = np.array(_failed_by(baseline, _arm(config, draws, None)[3], self.ts, self.bands))
            rows |= factual.any(0)
        rows = rows.nonzero()[0]
        hc = h[rows]
        failed = hc < self.lower
        # a row is at an edge where it is below an upper edge, not a lower one
        edge = (hc <= self.upper) != failed
        if np.count_nonzero(edge):
            edge = edge.any((0, 1))
            failed[..., edge] = [
                _failed_by(baseline, _arm(config, draws, x, rows[edge])[3], self.ts, self.bands) for x in self.forced
            ]
        if None not in xs:
            return failed
        i = xs.index(None)
        return np.concatenate((failed[:i], factual.take(rows, axis=1)[None], failed[i:]))


def _event_counts(config: ScenarioConfig, n: int, seed: int, offset: int, xs, ts, pairs=()) -> dict:
    """Subjects failing by t under do(X=x), keyed (x, t) for every x of xs
    and of pairs (None: the factual arm) and t of ts, and subjects failing
    by t under both arms of a pair (x, x0), keyed (x, x0, t), all from one
    draw of the exogenous noise at offset, block by block. Every x and t is
    checked before any stream opens.

    Each block gives failed[arm, t, row] in the order of xs: from its
    _Screen where the request has two forced arms or more and the screen
    holds, else from each arm formed on every row. Its arms and pairs are
    counted from that one array."""
    xs = list(dict.fromkeys([*xs, *(x for pair in pairs for x in pair)]))
    _check_arms(config, xs, ts)
    ts, pairs = list(dict.fromkeys(ts)), list(dict.fromkeys(pairs))
    baseline = config.baseline_hazard
    bands = _bands(baseline, ts)
    screen = _Screen.of(config, xs, ts, bands)
    left, right = np.array([[xs.index(x), xs.index(x0)] for x, x0 in pairs], dtype=np.intp).reshape(-1, 2).T
    arms = both = 0
    for draws in _exogenous_blocks(config, n, seed, offset, None in xs):
        if screen is not None and screen.holds(draws):
            failed = screen.failed(config, draws, xs)
        else:
            failed = np.array([_failed_by(baseline, _arm(config, draws, x)[3], ts, bands) for x in xs])
        arms += np.add.reduce(failed, -1)
        both += np.add.reduce(failed[left] & failed[right], -1)
    keys = [(x, t) for x in xs for t in ts] + [(x, x0, t) for x, x0 in pairs for t in ts]
    return dict(zip(keys, arms.ravel().tolist() + both.ravel().tolist()))


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
    largest H_i; flagged past 5%. The H_i are formed _BLOCK rows at a time
    (_pairwise_sum), eta through cox._eta, so no cohort-sized array is
    held, and mean_cumhaz has the bits of np.mean over all of them.
    """
    t = _horizon(t)
    h0 = fit.baseline_cumhaz(t)
    columns = [dataset.column(c) for c in fit.covariate_names]
    peaks = []

    def leaf(rows):
        h = _eta([c[rows] for c in columns], fit.beta)
        np.exp(h, out=h)
        h *= h0
        peaks.append(h.max())
        return np.add.reduce(h)

    mean_h = _pairwise_sum(dataset.n, leaf) / dataset.n
    max_h = float(max(peaks))
    max_rel = taylor_relative_error(max_h)
    return ApproxErrorReport(
        horizon_t=float(t),
        max_cumhaz=max_h,
        mean_cumhaz=float(mean_h),
        max_rel_error=max_rel,
        flagged=max_rel > _FLAG_THRESHOLD,
    )
