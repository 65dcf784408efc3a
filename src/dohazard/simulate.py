"""Synthetic survival cohorts from two structural causal models.

The confounded DAG draws a measured covariate Z that influences both the
exposure X and the event hazard; the mediated DAG draws a hidden U that
influences X and the hazard, with X acting on the hazard only through the
mediator Z. Events come from a proportional-hazards model
h(t) = h0(t) * exp(eta): each subject's latent failure is drawn on the
cumulative-hazard scale, H0(T) = -log(1 - u) * exp(-eta), and the baseline
hazard's ``invert`` turns it into the failure time T, with administrative
censoring at the study horizon and optional independent exponential
censoring.

The structural model is drawn in blocks of ``_BLOCK`` subjects, in two
steps: ``_exogenous_blocks`` draws a block's exogenous noise once, which
every arm of the block shares, and ``_arm``, the one home of the
structural equations (``_log_hazard``), forms one arm from it, on all of
the block's rows or some. ``_scm_blocks`` joins the two: ``generate``
inverts and censors its blocks into the cohort's columns. The
intervention oracle forms its arms with X forced and counts failures from
the latent hazards, some arms only on the few subjects it cannot decide
from another arm's.
``generate`` holds no cohort-sized array beyond the columns it returns;
``cohort`` saves and loads them. Structural log-hazards live in
``_backdoor_log_hazard`` and ``_frontdoor_log_hazard``; the frontdoor one
takes no exposure argument, which makes the exclusion restriction a
property of the code, not of a statistical check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from ._json import read_object, refuse_unknown, require_int, require_number
from .cohort import Dataset, load_dataset  # load_dataset: perfbench reads cohorts back through this module
from .errors import InvalidArgumentError, ValidationError
from .stats import _BLOCK, RngStream

# Stream ids per structural variable, relative to an arm's stream offset,
# so adding a variable never perturbs the draws of another.
_STREAM_Z_OR_U = 1
_STREAM_X_NOISE = 2
_STREAM_Z_NOISE = 3
_STREAM_FAILURE = 4
_STREAM_CENSOR = 5


class _Hazard:
    """Every parameter is a finite number > 0."""

    def __post_init__(self) -> None:
        for name in vars(self):
            if not require_number(vars(self), name, f"baseline_hazard.{name}") > 0:
                raise ValidationError(f"baseline_hazard.{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExponentialHazard(_Hazard):
    """Constant baseline hazard: H0(t) = rate * t."""

    rate: float

    def cumulative(self, t):
        return self.rate * np.asarray(t, dtype=np.float64)

    def invert(self, h):
        return np.asarray(h, dtype=np.float64) / self.rate

    def to_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class WeibullHazard(_Hazard):
    """Weibull baseline: H0(t) = (t / scale) ** shape."""

    shape: float
    scale: float

    def cumulative(self, t):
        return (np.asarray(t, dtype=np.float64) / self.scale) ** self.shape

    def invert(self, h):
        return self.scale * np.asarray(h, dtype=np.float64) ** (1.0 / self.shape)

    def to_dict(self) -> dict:
        return {"kind": "weibull", "shape": self.shape, "scale": self.scale}


BaselineHazard = Union[ExponentialHazard, WeibullHazard]


@dataclass(frozen=True)
class StandardNormalZ:
    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        return rng.normal(0.0, 1.0, n)

    def to_dict(self):
        return "standard_normal"


@dataclass(frozen=True)
class BernoulliZ:
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"z_dist.p must be in [0, 1], got {self.p}")

    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        return rng.bernoulli(self.p, n).astype(np.float64)

    def to_dict(self):
        return {"kind": "bernoulli", "p": self.p}


ZDistribution = Union[StandardNormalZ, BernoulliZ]


class _Coefficients:
    """Every coefficient is a finite number, and every sd (sigma_*) >= 0."""

    def __post_init__(self) -> None:
        for name in vars(self):
            value = require_number(vars(self), name, f"coefficients.{name}")
            if name.startswith("sigma_") and value < 0:
                raise ValidationError(f"coefficients.{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class BackdoorCoefficients(_Coefficients):
    a_zx: float      # effect of Z on X
    sigma_x: float   # sd of X given Z
    beta_x: float    # log-hazard effect of X
    beta_z: float    # log-hazard effect of Z


@dataclass(frozen=True)
class FrontdoorCoefficients(_Coefficients):
    c_ux: float      # effect of hidden U on X
    sigma_x: float   # sd of X given U
    alpha: float     # effect of X on the mediator Z
    sigma_z: float   # sd of Z given X
    beta_z: float    # log-hazard effect of Z
    beta_u: float    # log-hazard effect of hidden U


def _backdoor_log_hazard(coef: BackdoorCoefficients, x, z):
    """Structural log relative hazard for the confounded DAG."""
    return coef.beta_x * np.asarray(x) + coef.beta_z * np.asarray(z)


def _frontdoor_log_hazard(coef: FrontdoorCoefficients, z, u):
    """Structural log relative hazard for the mediated DAG.

    Depends on (z, u) only: the exposure has no direct hazard term.
    """
    return coef.beta_z * np.asarray(z) + coef.beta_u * np.asarray(u)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete generative description of one synthetic cohort."""

    dag_kind: str                 # "backdoor" | "frontdoor"
    n_subjects: int
    seed: int
    baseline_hazard: BaselineHazard
    horizon_t: float
    censor_rate: float
    coefficients: Union[BackdoorCoefficients, FrontdoorCoefficients]
    z_dist: ZDistribution = field(default_factory=StandardNormalZ)

    def __post_init__(self) -> None:
        if self.dag_kind not in ("backdoor", "frontdoor"):
            raise ValidationError(f"dag_kind must be 'backdoor' or 'frontdoor', got {self.dag_kind!r}")
        if self.n_subjects < 1:
            raise ValidationError(f"n_subjects must be >= 1, got {self.n_subjects}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.horizon_t) and self.horizon_t > 0):
            raise ValidationError(f"horizon_t must be > 0, got {self.horizon_t}")
        if not (math.isfinite(self.censor_rate) and self.censor_rate >= 0):
            raise ValidationError(f"censor_rate must be >= 0, got {self.censor_rate}")
        expected = BackdoorCoefficients if self.dag_kind == "backdoor" else FrontdoorCoefficients
        if not isinstance(self.coefficients, expected):
            raise ValidationError(f"coefficients do not match dag_kind {self.dag_kind!r}")
        # a frontdoor Z is the mediator line, which z_dist does not describe
        if self.dag_kind == "frontdoor" and not isinstance(self.z_dist, StandardNormalZ):
            raise ValidationError(
                f"z_dist must be 'standard_normal' for dag_kind 'frontdoor', got {self.z_dist.to_dict()!r}"
            )

    def to_dict(self) -> dict:
        return {
            "dag_kind": self.dag_kind,
            "n_subjects": self.n_subjects,
            "seed": self.seed,
            "baseline_hazard": self.baseline_hazard.to_dict(),
            "horizon_t": self.horizon_t,
            "censor_rate": self.censor_rate,
            "coefficients": dict(vars(self.coefficients)),
            "z_dist": self.z_dist.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        for key in ("dag_kind", "n_subjects", "seed", "baseline_hazard", "horizon_t", "coefficients"):
            if key not in raw:
                raise ValidationError(f"scenario config is missing field '{key}'")
        refuse_unknown(raw, [f.name for f in fields(ScenarioConfig)], "scenario config")
        dag_kind = raw["dag_kind"]
        coefs = raw["coefficients"]
        if not isinstance(coefs, dict):
            raise ValidationError("field 'coefficients' must be an object")
        if dag_kind not in ("backdoor", "frontdoor"):
            raise ValidationError(f"dag_kind must be 'backdoor' or 'frontdoor', got {dag_kind!r}")
        try:
            coefficients = (BackdoorCoefficients if dag_kind == "backdoor" else FrontdoorCoefficients)(**coefs)
        except TypeError as exc:
            raise ValidationError(f"field 'coefficients' invalid for {dag_kind}: {exc}") from exc
        return ScenarioConfig(
            dag_kind=dag_kind,
            n_subjects=require_int(raw, "n_subjects"),
            seed=require_int(raw, "seed"),
            baseline_hazard=_hazard_from_dict(raw["baseline_hazard"]),
            horizon_t=require_number(raw, "horizon_t"),
            censor_rate=require_number(raw, "censor_rate") if "censor_rate" in raw else 0.0,
            coefficients=coefficients,
            z_dist=_z_dist_from_dict(raw.get("z_dist", "standard_normal")),
        )


def _hazard_from_dict(raw) -> BaselineHazard:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValidationError("field 'baseline_hazard' must be an object with a 'kind'")
    kind = raw["kind"]
    try:
        if kind == "exponential":
            refuse_unknown(raw, ("kind", "rate"), "baseline_hazard")
            return ExponentialHazard(rate=require_number(raw, "rate", "baseline_hazard.rate"))
        if kind == "weibull":
            refuse_unknown(raw, ("kind", "shape", "scale"), "baseline_hazard")
            return WeibullHazard(
                shape=require_number(raw, "shape", "baseline_hazard.shape"),
                scale=require_number(raw, "scale", "baseline_hazard.scale"),
            )
    except KeyError as exc:
        raise ValidationError(f"baseline_hazard is missing field {exc}") from exc
    raise ValidationError(f"baseline_hazard.kind must be 'exponential' or 'weibull', got {kind!r}")


def _z_dist_from_dict(raw) -> ZDistribution:
    if raw == "standard_normal":
        return StandardNormalZ()
    if isinstance(raw, dict) and raw.get("kind") == "bernoulli":
        if "p" not in raw:
            raise ValidationError("z_dist of kind 'bernoulli' is missing field 'p'")
        refuse_unknown(raw, ("kind", "p"), "z_dist")
        return BernoulliZ(p=require_number(raw, "p", "z_dist.p"))
    raise ValidationError(f"field 'z_dist' must be 'standard_normal' or a bernoulli object, got {raw!r}")


def load_scenario_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(read_object(path, "scenario config"))


def _latent_hazards(exponential, eta: np.ndarray) -> np.ndarray:
    """Each subject's latent failure on the cumulative-hazard scale,
    H0(T) = exponential * exp(-eta) for exponential = -log(1 - u), formed
    in eta's own buffer, which it returns. baseline_hazard.invert turns it
    into the failure time T."""
    np.negative(eta, out=eta)
    np.exp(eta, out=eta)
    eta *= exponential
    return eta


def _censoring_times(config: ScenarioConfig, rng: RngStream, n: int) -> np.ndarray:
    if config.censor_rate > 0:
        random_censor = rng.exponential(config.censor_rate, n)
        return np.minimum(config.horizon_t, random_censor)
    return np.full(n, config.horizon_t)


@dataclass(frozen=True)
class _Draws:
    """One block's exogenous draws, which every arm of the block shares:
    the cause (the backdoor Z, or the frontdoor hidden U), the mediator's
    noise (frontdoor; else None), X as drawn (None unless the factual arm
    is asked for) and the failure variates -log(1 - u)."""

    cause: np.ndarray
    mediator_noise: np.ndarray | None
    x_drawn: np.ndarray | None
    exponential: np.ndarray | None

    def largest(self) -> "_Draws":
        """One row holding the largest magnitude of the cause and of the
        mediator's noise, the draws a forced arm's log hazard reads."""

        def peak(a):
            return None if a is None else np.abs(a).max(keepdims=True)

        return _Draws(peak(self.cause), peak(self.mediator_noise), None, None)


def _exogenous_blocks(config: ScenarioConfig, n: int, seed: int, offset: int = 0, factual: bool = True):
    """The exogenous draws of the structural model for n subjects, as
    consecutive _Draws blocks of at most _BLOCK subjects. X's noise is
    drawn only for the factual arm; a forced arm does not read it. Variable
    v draws from stream (seed, offset + _STREAM_v), so the draws at another
    offset are an independent copy of the model.

    Each stream is opened once and read on from block to block. A stream's
    draws read on from where its last call stopped (see stats), so the
    blocks, joined, are the whole-array draw bit for bit, whatever n.
    _BLOCK = 2**13 keeps every float64 temporary at 64 KiB, below glibc's
    128 KiB mmap threshold, and a block's working set in L2.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    coef = config.coefficients
    frontdoor = config.dag_kind == "frontdoor"
    z_or_u = RngStream(seed, offset + _STREAM_Z_OR_U)
    x_noise = RngStream(seed, offset + _STREAM_X_NOISE) if factual else None
    z_noise = RngStream(seed, offset + _STREAM_Z_NOISE) if frontdoor else None
    failure = RngStream(seed, offset + _STREAM_FAILURE)

    # an overflow is refused by field in _arm, not warned of by numpy
    @np.errstate(over="ignore", invalid="ignore")
    def block(size: int) -> _Draws:
        if frontdoor:
            cause = z_or_u.normal(0.0, 1.0, size)
            mediator_noise = z_noise.normal(0.0, coef.sigma_z, size)
        else:
            cause, mediator_noise = config.z_dist.draw(z_or_u, size), None
        drawn = None
        if x_noise is not None:
            drawn = (coef.c_ux if frontdoor else coef.a_zx) * cause + x_noise.normal(0.0, coef.sigma_x, size)
        return _Draws(cause, mediator_noise, drawn, -np.log1p(-failure.uniform(size)))

    return (block(min(_BLOCK, n - start)) for start in range(0, n, _BLOCK))


def _log_hazard(coef, frontdoor: bool, draws: _Draws, x_forced, rows=slice(None)) -> tuple:
    """The structural equations of one arm on draws' rows (an index array,
    or every row): (x, z, u, eta). z is the measured covariate, u the
    hidden confounder (None for the backdoor DAG) and eta the log relative
    hazard. None for x_forced is the factual arm, X as drawn; a forced x
    simulates do(X=x): X is that float, not an array, and every other
    variable keeps its draw. Each equation is a sum of products, so on
    the coefficients' magnitudes and draws' largest() it bounds every term
    of eta for any forced x of magnitude at most x_forced."""
    cause = draws.cause[rows]
    x = draws.x_drawn[rows] if x_forced is None else float(x_forced)
    if frontdoor:
        z = coef.alpha * x + draws.mediator_noise[rows]
        return x, z, cause, _frontdoor_log_hazard(coef, z, cause)
    return x, cause, None, _backdoor_log_hazard(coef, x, cause)


@np.errstate(over="ignore", invalid="ignore")
def _arm(config: ScenarioConfig, draws: _Draws, x_forced, rows=slice(None)) -> tuple:
    """One arm of a block on draws' rows (an index array, or every row):
    (x, z, u, hazard), _log_hazard's columns with eta turned into the
    latent failures on the cumulative-hazard scale, H0(T) (see
    _latent_hazards). Each element has the bits it has in the arm formed
    on every row. An arm whose log hazard is not finite, which finite
    coefficients can give by overflow, raises InvalidArgumentError naming
    the field coefficients and any forced x."""
    x, z, u, eta = _log_hazard(config.coefficients, config.dag_kind == "frontdoor", draws, x_forced, rows)
    if not np.isfinite(eta).all():
        arm = "" if x_forced is None else f" under do(x={x})"
        raise InvalidArgumentError(f"field 'coefficients' gives a non-finite log hazard{arm}")
    return x, z, u, _latent_hazards(draws.exponential[rows], eta)


def _scm_blocks(config: ScenarioConfig, n: int, seed: int, offset: int = 0, xs=(None,)):
    """The structural model for n subjects as consecutive blocks of at most
    _BLOCK subjects: per block, the _arm (x, z, u, hazard) of each x of xs
    (None: the factual arm), all formed from one _Draws of the exogenous
    streams (common random numbers), each with the floats of a one-arm
    draw."""
    return ([_arm(config, draws, x) for x in xs] for draws in _exogenous_blocks(config, n, seed, offset, None in xs))


def generate(config: ScenarioConfig) -> Dataset:
    """Observed cohort: one draw of the structural model, censored at the
    horizon and, when censor_rate > 0, at independent exponential times.

    The columns are preallocated and filled block by block from
    _scm_blocks, each block's latent hazards inverted to failure times by
    the baseline hazard and censored by the next draws of one censoring
    stream; like the structural streams it is read on from block to block,
    so the cohort is the censored whole-array draw bit for bit. The
    covariates are column-major, as Dataset stores them, so each block
    fills a contiguous run of each column and Dataset copies nothing.
    Beyond the returned columns, memory is a few blocks of temporaries. A
    cohort too large to allocate raises ValidationError naming n_subjects.
    """
    n = config.n_subjects
    blocks = _scm_blocks(config, n, config.seed)
    censor = RngStream(config.seed, _STREAM_CENSOR)
    try:
        time, event, covariates = np.empty(n), np.empty(n, dtype=bool), np.empty((n, 2), order="F")
        u_latent = np.empty(n) if config.dag_kind == "frontdoor" else None
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"n_subjects is too large to hold in memory, got {n}: {exc}") from None
    for start, [(x, z, u, hazard)] in zip(range(0, n, _BLOCK), blocks):
        failure = config.baseline_hazard.invert(hazard)
        rows = slice(start, start + failure.size)
        censoring = _censoring_times(config, censor, failure.size)
        observed = failure <= censoring
        event[rows] = observed
        time[rows] = np.where(observed, failure, censoring)
        covariates[rows, 0], covariates[rows, 1] = x, z
        if u_latent is not None:
            u_latent[rows] = u
    return Dataset(
        time=time,
        event=event,
        covariates=covariates,
        covariate_names=["x", "z"],
        u_latent=u_latent,
    )
