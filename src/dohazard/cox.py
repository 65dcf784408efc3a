"""Cox proportional hazards: Breslow partial likelihood, Newton solver,
and the Breslow baseline cumulative hazard.

The baseline is anchored at the zero covariate vector, so the linear
predictor is exactly 0 there and exp(beta . x) multiplies the reported
baseline directly. Ties are handled with the Breslow convention: every
subject with a tied time sits in the risk set of that time.

The fitter, the likelihood and the baseline share one path: _prepared
checks the inputs and sorts by time, and _risk_sets takes exp(eta) and
finds each event row's tie-group head, where a reversed cumulative sum
holds that row's risk-set sum. Sums are read at event rows only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCovariateError,
    InvalidArgumentError,
    MonotoneLikelihoodError,
    NoEventsError,
    NumericalError,
    ValidationError,
)
from .simulate import Dataset, _finite_numbers, _read_json_object, _require_int, _require_number

_MAX_HALVINGS = 30
_BETA_BOUND = 50.0
_ETA_BOUND = 500.0


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function, zero before the first knot and
    constant after the last."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise InvalidArgumentError("knots and values must be 1-d arrays of equal length")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise InvalidArgumentError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.knots, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(t) else out


def _prepared(dataset: Dataset, covariate_names, beta=None) -> tuple:
    """Every input check plus the stable time sort: (names, beta, t_s, d_s,
    x_s). beta, when given, must have one entry per design column."""
    names = list(covariate_names) if covariate_names is not None else list(dataset.covariate_names)
    if not names:
        raise InvalidArgumentError("at least one covariate is required")
    x = dataset.covariates[:, [dataset.column_index(c) for c in names]]
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (len(names),):
            raise InvalidArgumentError(f"beta must have length {len(names)}, got shape {beta.shape}")
    if dataset.n_events == 0:
        raise NoEventsError("no events in the data; the partial likelihood and baseline hazard are undefined")
    order = np.argsort(dataset.time, kind="stable")
    return names, beta, dataset.time[order], dataset.event[order], x[order]


def _risk_sets(beta, t_s, d_s, x_s) -> tuple:
    """(eta, w = exp(eta), event rows, tie head of each event row) on
    time-sorted arrays. Rows sharing a time share the risk set, so a
    reversed cumulative sum read at the head is that risk set's sum."""
    eta = x_s @ beta
    if np.max(np.abs(eta)) > _ETA_BOUND:
        raise NumericalError(
            "linear predictor exceeds exp() range; rescale covariates to moderate magnitudes"
        )
    event_rows = np.flatnonzero(d_s)
    return eta, np.exp(eta), event_rows, np.searchsorted(t_s, t_s[event_rows], side="left")


def _tail_sums(a) -> np.ndarray:
    """Sum over each row and every row after it, along axis 0."""
    return np.cumsum(a[::-1], axis=0)[::-1]


def _nlpl(beta, t_s, d_s, x_s):
    """Negative Breslow log partial likelihood plus derivatives on
    time-sorted arrays."""
    eta, w, ev, head = _risk_sets(beta, t_s, d_s, x_s)
    s0_e = _tail_sums(w)[head]
    ratio1 = _tail_sums(w[:, None] * x_s)[head] / s0_e[:, None]
    s2_e = _tail_sums(w[:, None, None] * (x_s[:, :, None] * x_s[:, None, :]))[head]
    value = -float(np.sum(eta[ev] - np.log(s0_e)))
    gradient = -np.sum(x_s[ev] - ratio1, axis=0)
    hessian = np.sum(s2_e / s0_e[:, None, None] - ratio1[:, :, None] * ratio1[:, None, :], axis=0)
    return value, gradient, hessian


def neg_log_partial_likelihood(dataset: Dataset, beta, covariate_names=None):
    """Negative Breslow log partial likelihood with gradient and Hessian.

    Returns (value, gradient, hessian); the Hessian is the observed
    information, positive semidefinite by construction.
    """
    _, beta, t_s, d_s, x_s = _prepared(dataset, covariate_names, beta)
    return _nlpl(beta, t_s, d_s, x_s)


def _breslow(beta, t_s, d_s, x_s) -> StepFunction:
    _, w, ev, head = _risk_sets(beta, t_s, d_s, x_s)
    knots, first, counts = np.unique(t_s[ev], return_index=True, return_counts=True)
    increments = counts / _tail_sums(w)[head[first]]
    return StepFunction(knots=knots, values=np.cumsum(increments))


def breslow_baseline(dataset: Dataset, beta, covariate_names=None) -> StepFunction:
    """Baseline cumulative hazard at the zero covariate vector: at each
    distinct event time, the event count over the risk-set sum of exp(eta)."""
    _, beta, t_s, d_s, x_s = _prepared(dataset, covariate_names, beta)
    return _breslow(beta, t_s, d_s, x_s)


@dataclass
class CoxFit:
    """Fitted proportional-hazards model plus its baseline.

    The linear predictor is beta . covariates; the baseline cumulative
    hazard is the one at the zero covariate vector.
    """

    beta: np.ndarray
    covariance: np.ndarray
    covariate_names: list
    baseline_cumhaz: StepFunction
    n: int
    n_events: int
    log_likelihood: float
    converged: bool
    iterations: int
    final_score_norm: float

    def coef(self, name: str) -> float:
        return float(self.beta[self._index(name)])

    def std_err(self, name: str) -> float:
        i = self._index(name)
        return math.sqrt(float(self.covariance[i, i]))

    def _index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise InvalidArgumentError(
                f"fit has no covariate {name!r}; it has {self.covariate_names}"
            ) from None


def fit_cox(dataset: Dataset, covariate_names=None, tol: float = 1e-9, max_iter: int = 50) -> CoxFit:
    """Newton solver for the Breslow partial likelihood, started at zero,
    with step halving whenever the objective fails to decrease.

    Stops when the gradient max-norm or the relative objective change
    drops to tol; hitting max_iter returns converged=False. Separated data
    has no finite optimum: a coefficient running past 50, or a converged
    fit whose Newton step |H^-1 g| still exceeds sqrt(tol) * max(1, |beta|)
    for some coefficient, raises MonotoneLikelihoodError naming the
    covariate.
    """
    names, _, t_s, d_s, x_s = _prepared(dataset, covariate_names)
    for j, name in enumerate(names):
        if np.ptp(x_s[:, j]) == 0.0:
            raise DegenerateCovariateError(f"covariate {name!r} is constant; its effect is unidentifiable")

    beta = np.zeros(len(names))
    value, gradient, hessian = _nlpl(beta, t_s, d_s, x_s)
    converged = float(np.max(np.abs(gradient))) <= tol
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        try:
            direction = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"observed information is singular: {exc}") from exc
        step = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = beta + step * direction
            try:
                new = _nlpl(candidate, t_s, d_s, x_s)
            except NumericalError:
                step *= 0.5
                continue
            if new[0] <= value + 1e-12 * (1.0 + abs(value)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = value - new[0]
        beta, (value, gradient, hessian) = candidate, new
        worst = int(np.argmax(np.abs(beta)))
        if abs(beta[worst]) > _BETA_BOUND:
            raise MonotoneLikelihoodError(
                f"coefficient for {names[worst]!r} diverged past {_BETA_BOUND}; "
                "the likelihood appears monotone (separation)"
            )
        if float(np.max(np.abs(gradient))) <= tol or improvement <= tol * (1.0 + abs(value)):
            converged = True

    try:
        covariance = np.linalg.inv(hessian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"observed information is singular: {exc}") from exc
    if converged:
        # The toler.inf rule of R's coxph: where the likelihood flattens
        # toward an infinite coefficient, the score underflows below tol
        # while the Newton step stays large.
        newton = np.abs(covariance @ gradient)
        scale = np.maximum(1.0, np.abs(beta))
        worst = int(np.argmax(newton / scale))
        if newton[worst] > math.sqrt(tol) * scale[worst]:
            raise MonotoneLikelihoodError(
                f"coefficient for {names[worst]!r} looks infinite: the fit stopped at {beta[worst]:.6g} "
                f"with a Newton step of {newton[worst]:.3g} still to go; the likelihood appears monotone (separation)"
            )
    return CoxFit(
        beta=beta,
        covariance=covariance,
        covariate_names=names,
        baseline_cumhaz=_breslow(beta, t_s, d_s, x_s),
        n=dataset.n,
        n_events=dataset.n_events,
        log_likelihood=-value,
        converged=converged,
        iterations=iterations,
        final_score_norm=float(np.max(np.abs(gradient))),
    )


def save_fit(fit: CoxFit, path) -> None:
    payload = {
        "beta": [float(b) for b in fit.beta],
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "covariate_names": list(fit.covariate_names),
        "baseline_knots": [float(k) for k in fit.baseline_cumhaz.knots],
        "baseline_values": [float(v) for v in fit.baseline_cumhaz.values],
        "n": fit.n,
        "n_events": fit.n_events,
        "log_likelihood": fit.log_likelihood,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "final_score_norm": fit.final_score_norm,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _array_field(path, raw: dict, key: str, shape, what: str) -> np.ndarray:
    if not _finite_numbers(raw[key], shape):
        raise ValidationError(f"{path}: field '{key}' must be {what}")
    return np.asarray(raw[key], dtype=np.float64)


def load_fit(path) -> CoxFit:
    """Read a fit written by save_fit; ValidationError names the first field
    that is missing or malformed."""
    raw = _read_json_object(path, "fit file")
    required = (
        "beta", "covariance", "covariate_names", "baseline_knots", "baseline_values",
        "n", "n_events", "log_likelihood", "converged", "iterations", "final_score_norm",
    )
    for key in required:
        if key not in raw:
            raise ValidationError(f"{path}: fit file is missing field '{key}'")
    names = raw["covariate_names"]
    if not (isinstance(names, list) and names and all(isinstance(c, str) for c in names)):
        raise ValidationError(f"{path}: field 'covariate_names' must be a nonempty list of strings")
    p = len(names)
    beta = _array_field(path, raw, "beta", (p,), f"a list of {p} finite numbers, one per covariate name")
    covariance = _array_field(path, raw, "covariance", (p, p), f"a {p}x{p} matrix of finite numbers")
    knots = _array_field(path, raw, "baseline_knots", (None,), "a list of finite numbers")
    values = _array_field(
        path, raw, "baseline_values", (knots.size,), f"a list of {knots.size} finite numbers, one per knot"
    )
    # Files written before the baseline had one anchor carry baseline_x0;
    # only the zero anchor, which every fit used, still means the same fit.
    if "baseline_x0" in raw and np.any(
        _array_field(path, raw, "baseline_x0", (p,), f"a list of {p} finite numbers")
    ):
        raise ValidationError(
            f"{path}: field 'baseline_x0' must be all zeros; the baseline is anchored at the zero covariate vector"
        )
    if not isinstance(raw["converged"], bool):
        raise ValidationError(f"{path}: field 'converged' must be true or false")
    try:
        baseline = StepFunction(knots=knots, values=values)
    except InvalidArgumentError as exc:
        raise ValidationError(f"{path}: field 'baseline_knots' is invalid: {exc}") from exc
    return CoxFit(
        beta=beta,
        covariance=covariance,
        covariate_names=names,
        baseline_cumhaz=baseline,
        n=_require_int(raw, "n"),
        n_events=_require_int(raw, "n_events"),
        log_likelihood=_require_number(raw, "log_likelihood"),
        converged=raw["converged"],
        iterations=_require_int(raw, "iterations"),
        final_score_norm=_require_number(raw, "final_score_norm"),
    )
