"""Cox proportional hazards: Breslow partial likelihood, Newton solver,
and the Breslow baseline cumulative hazard.

The baseline is anchored at the zero covariate vector, so the linear
predictor is exactly 0 there and exp(beta . x) multiplies the reported
baseline directly. Ties are handled with the Breslow convention: every
subject with a tied time sits in the risk set of that time.

The linear predictor has one rule everywhere (_weighted_sum): beta_0 *
x_0 + beta_1 * x_1 + ..., added column by column in name order with
elementwise numpy operations and no BLAS, so its bits depend neither on
the covariates' memory layout nor on the BLAS thread count, nor on where
its rows are cut. _eta refuses it past _ETA_BOUND; the standardization
(backdoor.compute_az, oracle.approx_error_report) forms it through _eta
too, a block of rows at a time.

The fitter, the likelihood and the baseline share one path: _prepared
checks the inputs and holds the cohort in stable time order without
copying it (_Sorted), and _nlpl forms the likelihood from the risk-set
sums _head_sums reads at each event's tie head; the baseline takes s0
from the same evaluation. In a rare-outcome cohort most rows are
censored at the horizon, tied at the largest time, and every risk set
holds all of them: so only the other rows are sorted and copied, and the
tied rows' total is summed once per evaluation, pairwise, read a chunk at
a time from the cohort's contiguous columns (Dataset stores them
column-major). Beyond the cohort no cohort-sized array is held: the fit's
memory is O(rows below the largest time * p + _BLOCK * p^2 + events * p^2).
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
# load_fit's tolerance on a covariance's asymmetry and negative eigenvalues,
# relative to its largest entry
_COVARIANCE_RTOL = 1e-12


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


def _weighted_sum(x, beta, out=None) -> np.ndarray:
    """beta[0] * x[0] + beta[1] * x[1] + ..., for rows x[j] of equal length:
    elementwise products added left to right, into out when given. Each
    value's bits are the same wherever its rows are cut and whatever their
    strides, as IEEE products and sums are."""
    out = np.multiply(x[0], beta[0], out=out)
    for xj, b in zip(x[1:], beta[1:]):
        out += xj * b
    return out


@dataclass(frozen=True)
class _Sorted:
    """A cohort's named covariates in the order of one stable time sort,
    np.argsort(time, kind="stable"), without a sorted copy of the cohort.

    That order is the rows below the largest time top, stably sorted, then
    the rows tied at top in row order, which is where a stable sort puts
    them. In a rare-outcome cohort most rows are censored at the horizon,
    so only the others are sorted and copied, into x_below, one contiguous
    row per name, and the tied rows are read from the cohort's contiguous
    columns, a chunk at a time, where time == top. x_ev holds the event
    rows' covariates in time order (C order, one row per event), head the
    tie head of each event row (the sorted position of the first row of its
    time: rows sharing a time share the risk set, so a reversed cumulative
    sum read at the head is that risk set's sum; an event at the largest
    time has head n_below) and event_times the time of each event row."""

    dataset: Dataset
    names: list
    top: float
    x_below: np.ndarray
    x_ev: np.ndarray
    head: np.ndarray
    event_times: np.ndarray


def _prepared(dataset: Dataset, covariate_names, beta=None) -> tuple:
    """Every input check plus the stable time sort: (beta, sorted), sorted
    the _Sorted cohort. Only the rows below the largest time are sorted,
    and their sorted times are kept only to find the heads; beyond the
    cohort, no cohort-sized array is formed. beta, when given, must have
    one entry per design column."""
    names = list(covariate_names) if covariate_names is not None else list(dataset.covariate_names)
    if not names:
        raise InvalidArgumentError("at least one covariate is required")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise InvalidArgumentError(f"covariate {name!r} is named more than once")
    for name in names:
        dataset.column_index(name)  # raises InvalidArgumentError for an unknown name
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (len(names),):
            raise InvalidArgumentError(f"beta must have length {len(names)}, got shape {beta.shape}")
    if dataset.n_events == 0:
        raise NoEventsError("no events in the data; the partial likelihood and baseline hazard are undefined")
    time = dataset.time
    top = float(time.max())
    # the rows below top and the events at top, a _BLOCK-row chunk at a
    # time, so that no mask of the whole cohort is formed
    below, tied_events = [], []
    for start in range(0, dataset.n, _BLOCK):
        chunk = slice(start, start + _BLOCK)
        tied = time[chunk] == top
        below.append(np.flatnonzero(~tied) + start)
        tied_events.append(np.flatnonzero(tied & dataset.event[chunk]) + start)
    below, tied_events = np.concatenate(below), np.concatenate(tied_events)
    # Without tied times the sorted order is unique, so numpy's default sort
    # gives the stable sort's permutation; only ties need the stable one.
    # Either way the sorted times are the same values.
    t_below = time[below]
    sort = np.argsort(t_below)
    t_sorted = t_below[sort]
    if np.any(t_sorted[1:] == t_sorted[:-1]):
        sort = np.argsort(t_below, kind="stable")
    below, t_below = below[sort], t_sorted
    del sort, t_sorted  # each row-length temporary goes once used, before x_below and x_ev are formed
    events = np.concatenate([below[dataset.event[below]], tied_events])
    event_times = time[events]
    # every time in t_below is below the largest, so an event at the largest
    # time finds its head just past them: the first tied row
    head = np.searchsorted(t_below, event_times, side="left")
    del t_below
    x_below = np.empty((len(names), below.size))
    x_ev = np.empty((events.size, len(names)))
    for j, name in enumerate(names):
        column = dataset.column(name)
        np.take(column, below, out=x_below[j])
        x_ev[:, j] = column[events]
    return beta, _Sorted(
        dataset=dataset,
        names=names,
        top=top,
        x_below=x_below,
        x_ev=x_ev,
        head=head,
        event_times=event_times,
    )


def _eta(x, beta, out=None) -> np.ndarray:
    """The linear predictor _weighted_sum(x, beta, out) of rows x[j], one
    per covariate, refused past _ETA_BOUND, where exp() would overflow in
    the risk-set sums and the standardization's means."""
    eta = _weighted_sum(x, beta, out)
    if max(eta.max(), -eta.min()) > _ETA_BOUND:
        raise NumericalError(
            "linear predictor exceeds exp() range; rescale covariates to moderate magnitudes"
        )
    return eta


def _weigh(block, beta, pairs) -> None:
    """Fill block, whose rows 1..p hold the covariates x_j of some sorted
    rows, with the risk-set terms of those rows in place: row 0 w =
    exp(eta), rows 1..p w * x_j, and row 1 + p + r the pair term w * (x_i *
    x_j) of pairs (i[r], j[r]). np.exp runs in place on the contiguous row
    0, as it does wherever the rows are cut."""
    p = beta.size
    w, x = block[0], block[1:1 + p]
    np.exp(_eta(x, beta, out=w), out=w)
    for row, (a, b) in enumerate(zip(*pairs), start=1 + p):
        out = block[row]
        np.multiply(w, np.multiply(x[a], x[b], out=out), out=out)
    np.multiply(w, x, out=x)


def _head_sums(beta, cohort: _Sorted) -> np.ndarray:
    """Risk-set sums at beta read at cohort.head, w = exp(eta): a C-order
    (events, k) array whose row e holds, over head e's sorted row and every
    row after it, the sum of w, then of each w * x_j, then of w * (x_i *
    x_j) for the pairs of np.triu_indices(p); k = 1 + p + p(p+1)/2.

    buf holds one row of _BLOCK + 1 per sum, so that np.add.reduce and
    np.cumsum run along contiguous rows; column 0 is the running total.
    The tied rows are taken chunk by chunk with np.take, mode "clip", which
    writes into buf with no temporary (a boolean index would branch per
    row); their pairwise chunk totals, added in row order, are the risk-set
    sum at the largest time. The rows below it are copied into buf
    reversed, a block at a time from the last, so a cumsum along each row
    from the running total gives the sum from each row on.
    """
    n, head, p = cohort.dataset.n, cohort.head, beta.size
    pairs = np.triu_indices(p)
    sums = np.empty((head.size, 1 + p + pairs[0].size))
    buf = np.empty((sums.shape[1], min(n, _BLOCK) + 1))
    total = buf[:, 0]
    total[:] = 0.0
    time, columns = cohort.dataset.time, [cohort.dataset.column(c) for c in cohort.names]
    for start in range(0, n, _BLOCK):
        chunk = slice(start, start + _BLOCK)
        rows = np.flatnonzero(time[chunk] == cohort.top)
        if not rows.size:
            continue
        block = buf[:, 1:rows.size + 1]
        for x, column in zip(block[1:1 + p], columns):
            np.take(column[chunk], rows, out=x, mode="clip")
        _weigh(block, beta, pairs)
        total += np.add.reduce(block, axis=1)
    stop = cohort.x_below.shape[1]
    sums[np.searchsorted(head, stop):] = total
    while stop:
        start = max(stop - _BLOCK, 0)
        run = buf[:, :stop - start + 1]
        run[1:1 + p, 1:] = cohort.x_below[:, start:stop][:, ::-1]
        _weigh(run[:, 1:], beta, pairs)
        np.cumsum(run, axis=1, out=run)
        lo, hi = np.searchsorted(head, (start, stop))
        sums[lo:hi] = run[:, stop - head[lo:hi]].T
        total[:] = run[:, -1]
        stop = start
    return sums


def _nlpl(beta, cohort: _Sorted):
    """Negative Breslow log partial likelihood plus derivatives, and s0 =
    sum of exp(eta) over each event's risk set.

    The terms are formed in place in the sums _head_sums returns, and s0 is
    returned as a copy: a view would keep this evaluation's sums alive
    while fit_cox evaluates the next step. Each event-axis sum runs over
    the whole axis: numpy adds an (events, m) array row by row for m >= 2,
    but pairwise for m = 1, where it is one run.
    """
    sums, p = _head_sums(beta, cohort), beta.size
    s0, pair = sums[:, 0], sums[:, 1 + p:]
    value = -float(np.sum(_eta(cohort.x_ev.T, beta) - np.log(s0)))
    ratio1 = sums[:, 1:1 + p] / s0[:, None]
    pair /= s0[:, None]
    i, j = np.triu_indices(p)
    for r, (a, b) in enumerate(zip(i, j)):  # one pair at a time, so one event-length temporary
        pair[:, r] -= ratio1[:, a] * ratio1[:, b]
    hessian = np.empty((p, p))
    hessian[i, j] = hessian[j, i] = np.sum(pair, axis=0)
    gradient = -np.sum(np.subtract(cohort.x_ev, ratio1, out=ratio1), axis=0)
    return value, gradient, hessian, s0.copy()


# Not exported: the benchmark times it by module attribute (perfbench/spans.py).
def neg_log_partial_likelihood(dataset: Dataset, beta, covariate_names=None):
    """Negative Breslow log partial likelihood with gradient and Hessian.

    Returns (value, gradient, hessian); the Hessian is the observed
    information, positive semidefinite by construction.
    """
    return _nlpl(*_prepared(dataset, covariate_names, beta))[:3]


def _breslow(event_times, s0_e) -> StepFunction:
    """Baseline from s0_e, the risk-set sum of exp(eta) at each event row:
    a knot's increment is its event count over the sum at its first event."""
    knots, first, counts = np.unique(event_times, return_index=True, return_counts=True)
    return StepFunction(knots=knots, values=np.cumsum(counts / s0_e[first]))


# Not exported: the benchmark times it by module attribute (perfbench/spans.py).
def breslow_baseline(dataset: Dataset, beta, covariate_names=None) -> StepFunction:
    """Baseline cumulative hazard at the zero covariate vector: at each
    distinct event time, the event count over the risk-set sum of exp(eta)."""
    beta, cohort = _prepared(dataset, covariate_names, beta)
    return _breslow(cohort.event_times, _nlpl(beta, cohort)[3])


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
    _, cohort = _prepared(dataset, covariate_names)
    names = cohort.names
    for name in names:
        if np.ptp(dataset.column(name)) == 0.0:
            raise DegenerateCovariateError(f"covariate {name!r} is constant; its effect is unidentifiable")

    beta = np.zeros(len(names))
    value, gradient, hessian, s0_e = _nlpl(beta, cohort)
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
                new = _nlpl(candidate, cohort)
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
        baseline_cumhaz=_breslow(cohort.event_times, s0_e),
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
        "baseline_knots": fit.baseline_cumhaz.knots.tolist(),  # float64 arrays, so lists of float
        "baseline_values": fit.baseline_cumhaz.values.tolist(),
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
    that is missing or malformed, or that no fit could hold: a repeated
    covariate name, a negative variance, a covariance that is not symmetric
    positive semidefinite (to _COVARIANCE_RTOL * max|C|), a baseline that
    is not a cumulative hazard (negative or decreasing), n < 1, n_events
    outside [0, n] or iterations < 0. Every message starts with the path."""
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
    if len(set(names)) != len(names):
        raise ValidationError(f"{path}: field 'covariate_names' must not repeat a name, got {names!r}")
    p = len(names)
    beta = _array_field(path, raw, "beta", (p,), f"a list of {p} finite numbers, one per covariate name")
    covariance = _array_field(path, raw, "covariance", (p, p), f"a {p}x{p} matrix of finite numbers")
    if np.any(np.diag(covariance) < 0):
        raise ValidationError(f"{path}: field 'covariance' must have a nonnegative diagonal: the variances")
    # a fitted covariance is the inverse of the observed information, whose
    # asymmetry and negative eigenvalues are rounding, some 1e-16 * max|C|
    tol = _COVARIANCE_RTOL * np.max(np.abs(covariance))
    if np.max(np.abs(covariance - covariance.T)) > tol:
        raise ValidationError(f"{path}: field 'covariance' must be symmetric, to {_COVARIANCE_RTOL} * max|C|")
    if np.linalg.eigvalsh((covariance + covariance.T) / 2)[0] < -tol:
        raise ValidationError(
            f"{path}: field 'covariance' must be positive semidefinite: "
            f"no eigenvalue below -{_COVARIANCE_RTOL} * max|C|"
        )
    knots = _array_field(path, raw, "baseline_knots", (None,), "a list of finite numbers")
    values = _array_field(
        path, raw, "baseline_values", (knots.size,), f"a list of {knots.size} finite numbers, one per knot"
    )
    if np.any(values < 0) or np.any(np.diff(values) < 0):
        raise ValidationError(
            f"{path}: field 'baseline_values' must be nonnegative and nondecreasing: a cumulative hazard"
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
    try:
        n, n_events, iterations = (require_int(raw, key) for key in ("n", "n_events", "iterations"))
        log_likelihood, final_score_norm = (require_number(raw, key) for key in ("log_likelihood", "final_score_norm"))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if n < 1:
        raise ValidationError(f"{path}: field 'n' must be at least 1, got {n}")
    if not 0 <= n_events <= n:
        raise ValidationError(f"{path}: field 'n_events' must be from 0 to n ({n}), got {n_events}")
    if iterations < 0:
        raise ValidationError(f"{path}: field 'iterations' must be at least 0, got {iterations}")
    return CoxFit(
        beta=beta,
        covariance=covariance,
        covariate_names=names,
        baseline_cumhaz=baseline,
        n=n,
        n_events=n_events,
        log_likelihood=log_likelihood,
        converged=raw["converged"],
        iterations=iterations,
        final_score_norm=final_score_norm,
    )
