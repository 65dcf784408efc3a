"""Cox proportional hazards: Breslow partial likelihood, Newton solver,
and the Breslow baseline cumulative hazard.

The baseline is anchored at the zero covariate vector, so the linear
predictor is exactly 0 there and exp(beta . x) multiplies the reported
baseline directly. Ties are handled with the Breslow convention: every
subject with a tied time sits in the risk set of that time.

The fitter, the likelihood and the baseline share one path: _prepared
checks the inputs, sorts by time (a stable argsort of the rows below the
largest time only: in a rare-outcome cohort most rows are censored at
the horizon, and a stable sort leaves those in row order at the end) and
finds each event row's tie-group head, _eta forms the linear predictor,
and _head_sums reads each event's risk-set sums at its head. Those sums
are reversed cumulative sums, streamed from the last row back in blocks
of _BLOCK rows, with exp(eta) and the weighted products taken one block
at a time. A block is held column-major: one contiguous row per risk-set
sum in a buffer reused for every block and filled in place, so no block
allocates a temporary and numpy's loops run over whole rows. At n rows
and p covariates the cohort-sized arrays are the sorted covariates
(n * p) and eta (n); the rest is O(_BLOCK * p^2) for the block plus
O(events * p^2) for the sums read at the event rows, returned in C order.
The floats equal those of one reversed cumulative sum over all rows.
fit_cox takes the Breslow baseline from the risk-set sums of its last
accepted likelihood evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._json import finite_numbers, read_object, require_int, require_number, write_object
from .cohort import Dataset
from .errors import (
    DegenerateCovariateError,
    InvalidArgumentError,
    MonotoneLikelihoodError,
    NoEventsError,
    NumericalError,
    ValidationError,
)
from .stats import _BLOCK

_MAX_HALVINGS = 30
_BETA_BOUND = 50.0
_ETA_BOUND = 500.0


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function, zero before the first knot and
    constant after the last; it has at least one knot."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise InvalidArgumentError("knots and values must be 1-d arrays of equal length")
        if not knots.size:
            raise InvalidArgumentError("knots must not be empty")
        if np.any(np.diff(knots) <= 0):
            raise InvalidArgumentError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.knots, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(t) else out


def _horizon(t, name: str = "t") -> float:
    """t as a float, when it is a horizon at which a cumulative hazard can
    be read: finite and >= 0. InvalidArgumentError names it otherwise."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise InvalidArgumentError(f"{name} must be finite and >= 0, got {t}")
    return t


def _prepared(dataset: Dataset, covariate_names, beta=None) -> tuple:
    """Every input check plus the stable time sort: (names, beta, x_s, ev,
    head, event_times). x_s holds the named covariates in time order, ev
    the rows of x_s that are events, head the tie head of each event row
    (the first row of its time: rows sharing a time share the risk set, so
    a reversed cumulative sum read at the head is that risk set's sum) and
    event_times the time of each event row.

    The order is np.argsort(time, kind="stable") built in two parts: the
    rows below the largest time, stably sorted, then the rows tied at the
    largest time in row order, which is where a stable sort puts them. In a
    rare-outcome cohort most rows are censored at the horizon, so only the
    few others are sorted, and only their sorted times are kept to find the
    heads. Those are dropped before the covariates are gathered, so x_s and
    the order are the only cohort-sized arrays held at once. x_s is C-order,
    filled _BLOCK rows at a time, one named column at a time: on a loaded
    (column-major) cohort that gathers about twice as fast as one broadcast
    index of the whole matrix, and each block's temporary is 64 KiB. beta,
    when given, must have one entry per design column."""
    names = list(covariate_names) if covariate_names is not None else list(dataset.covariate_names)
    if not names:
        raise InvalidArgumentError("at least one covariate is required")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise InvalidArgumentError(f"covariate {name!r} is named more than once")
    idx = [dataset.column_index(c) for c in names]
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (len(names),):
            raise InvalidArgumentError(f"beta must have length {len(names)}, got shape {beta.shape}")
    if dataset.n_events == 0:
        raise NoEventsError("no events in the data; the partial likelihood and baseline hazard are undefined")
    time = dataset.time
    tied = time == time.max()
    below = np.flatnonzero(~tied)
    t_below = time[below]
    sort = np.argsort(t_below, kind="stable")
    t_below = t_below[sort]
    order = np.empty(dataset.n, dtype=np.intp)
    order[:below.size] = below[sort]
    order[below.size:] = np.flatnonzero(tied)
    del tied, below, sort
    ev = np.flatnonzero(dataset.event[order])
    event_times = time[order[ev]]
    # every time in t_below is below the largest, so an event at the largest
    # time finds its head just past them: the first tied row
    head = np.searchsorted(t_below, event_times, side="left")
    del t_below
    x_s = np.empty((dataset.n, len(idx)))
    for start in range(0, dataset.n, _BLOCK):
        rows = order[start:start + _BLOCK]
        for j, column in enumerate(idx):
            x_s[start:start + rows.size, j] = dataset.covariates[rows, column]
    return names, beta, x_s, ev, head, event_times


def _eta(beta, x_s) -> np.ndarray:
    """The linear predictor x_s @ beta, refused past _ETA_BOUND, where
    exp() would overflow in the risk-set sums."""
    eta = x_s @ beta
    if max(eta.max(), -eta.min()) > _ETA_BOUND:
        raise NumericalError(
            "linear predictor exceeds exp() range; rescale covariates to moderate magnitudes"
        )
    return eta


def _head_sums(eta, x, head) -> tuple:
    """Risk-set sums read at the ascending rows head, with w = exp(eta):
    (s0, s1, s2), the sums of w, of w * x_j and of w * (x_i * x_j) over
    each head's row and every row after it, one row of each per head.

    The reversed cumulative sum runs from the last row back in blocks of
    _BLOCK rows, and exp(eta) is taken one block at a time. np.exp runs on
    the block's forward, contiguous slice and the result is reversed after:
    on a reversed (negative-stride) view numpy takes another exp loop,
    whose results differ in the last bit for some inputs.

    The block is column-major: buf holds one row of _BLOCK + 1 per sum, k =
    1 + p + p(p+1)/2 rows in all (w, then w * x_j, then w * (x_i * x_j) for
    i <= j; x_i * x_j == x_j * x_i mirrors the rest). Column 0 is the
    running total and columns 1..m the block's rows reversed. The block's
    covariates are copied, reversed and transposed, into the w * x_j rows;
    each pair row is formed from them as x_i * x_j and scaled by w in place,
    and then the w * x_j rows are scaled by w in place. So numpy runs each
    multiply and the cumsum over contiguous rows, and no block allocates a
    temporary. np.cumsum adds sequentially along each row, so every sum is
    the float that one reversed cumsum over all rows of exp(eta) gives; the
    running total starts at -0.0, for which -0.0 + a is a, bit for bit. Each
    head's column is copied into one C-order (events, k) array, and s0, s1
    and s2 are cut from it in C order: the likelihood sums them over axis 0,
    and on a transposed layout numpy would sum pairwise, in another order.
    """
    n, p = x.shape
    i, j = np.triu_indices(p)
    sums = np.empty((head.size, 1 + p + i.size))
    buf = np.empty((sums.shape[1], min(n, _BLOCK) + 1))
    w = np.empty(min(n, _BLOCK))
    buf[:, 0] = -0.0
    for stop in range(n, 0, -_BLOCK):
        start = max(stop - _BLOCK, 0)
        m = stop - start
        block = buf[:, :m + 1]
        wb, xb = block[0, 1:], block[1:1 + p, 1:]
        wb[:] = np.exp(eta[start:stop], out=w[:m])[::-1]
        xb[:] = x[start:stop][::-1].T
        for row, (a, b) in enumerate(zip(i, j), start=1 + p):
            out = block[row, 1:]
            np.multiply(wb, np.multiply(xb[a], xb[b], out=out), out=out)
        np.multiply(wb, xb, out=xb)
        np.cumsum(block, axis=1, out=block)
        lo, hi = np.searchsorted(head, (start, stop))
        sums[lo:hi] = block[:, stop - head[lo:hi]].T
        buf[:, 0] = block[:, m]
    pair = np.empty((p, p), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(1 + p, 1 + p + i.size)
    # np.take returns C order where fancy indexing would put the head axis
    # innermost; sums over axis 0 of s2 then add row by row, as they do on
    # a whole-array cumsum read at the heads.
    return sums[:, 0], sums[:, 1:1 + p], np.take(sums, pair, axis=1)


def _nlpl(beta, x_s, ev, head):
    """Negative Breslow log partial likelihood plus derivatives on
    time-sorted covariates, and s0 = sum of exp(eta) over each event's risk set."""
    eta = _eta(beta, x_s)
    s0_e, s1_e, s2_e = _head_sums(eta, x_s, head)
    ratio1 = s1_e / s0_e[:, None]
    value = -float(np.sum(eta[ev] - np.log(s0_e)))
    gradient = -np.sum(x_s[ev] - ratio1, axis=0)
    hessian = np.sum(s2_e / s0_e[:, None, None] - ratio1[:, :, None] * ratio1[:, None, :], axis=0)
    return value, gradient, hessian, s0_e


# Not exported: the benchmark times it by module attribute (perfbench/spans.py).
def neg_log_partial_likelihood(dataset: Dataset, beta, covariate_names=None):
    """Negative Breslow log partial likelihood with gradient and Hessian.

    Returns (value, gradient, hessian); the Hessian is the observed
    information, positive semidefinite by construction.
    """
    _, beta, x_s, ev, head, _ = _prepared(dataset, covariate_names, beta)
    return _nlpl(beta, x_s, ev, head)[:3]


def _breslow(event_times, s0_e) -> StepFunction:
    """Baseline from s0_e, the risk-set sum of exp(eta) at each event row:
    a knot's increment is its event count over the sum at its first event."""
    knots, first, counts = np.unique(event_times, return_index=True, return_counts=True)
    return StepFunction(knots=knots, values=np.cumsum(counts / s0_e[first]))


# Not exported: the benchmark times it by module attribute (perfbench/spans.py).
def breslow_baseline(dataset: Dataset, beta, covariate_names=None) -> StepFunction:
    """Baseline cumulative hazard at the zero covariate vector: at each
    distinct event time, the event count over the risk-set sum of exp(eta)."""
    _, beta, x_s, _, head, event_times = _prepared(dataset, covariate_names, beta)
    # with no covariate columns, _head_sums sums exp(eta) alone
    return _breslow(event_times, _head_sums(_eta(beta, x_s), x_s[:, :0], head)[0])


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
    names, _, x_s, ev, head, event_times = _prepared(dataset, covariate_names)
    for j, name in enumerate(names):
        if np.ptp(x_s[:, j]) == 0.0:
            raise DegenerateCovariateError(f"covariate {name!r} is constant; its effect is unidentifiable")

    beta = np.zeros(len(names))
    value, gradient, hessian, s0_e = _nlpl(beta, x_s, ev, head)
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
                new = _nlpl(candidate, x_s, ev, head)
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
        beta, (value, gradient, hessian, s0_e) = candidate, new
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
        baseline_cumhaz=_breslow(event_times, s0_e),
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
    write_object(path, payload)


def _array_field(path, raw: dict, key: str, shape, what: str) -> np.ndarray:
    if not finite_numbers(raw[key], shape):
        raise ValidationError(f"{path}: field '{key}' must be {what}")
    return np.asarray(raw[key], dtype=np.float64)


def load_fit(path) -> CoxFit:
    """Read a fit written by save_fit; ValidationError names the first field
    that is missing or malformed."""
    raw = read_object(path, "fit file")
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
        n=require_int(raw, "n"),
        n_events=require_int(raw, "n_events"),
        log_likelihood=require_number(raw, "log_likelihood"),
        converged=raw["converged"],
        iterations=require_int(raw, "iterations"),
        final_score_norm=require_number(raw, "final_score_norm"),
    )
