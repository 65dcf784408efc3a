"""Synthetic survival cohorts from two structural causal models.

The confounded DAG draws a measured covariate Z that influences both the
exposure X and the event hazard; the mediated DAG draws a hidden U that
influences X and the hazard, with X acting on the hazard only through the
mediator Z. Event times come from a proportional-hazards model
h(t) = h0(t) * exp(eta) inverted by the standard uniform transform, with
administrative censoring at the study horizon and optional independent
exponential censoring.

``_scm_blocks`` is the one home of the structural equations, drawn in
blocks of ``_BLOCK`` subjects: ``draw_scm`` joins its blocks into columns,
``generate`` censors one ``draw_scm`` draw, and the intervention oracle
streams its arms through the blocks with X forced. Structural log-hazards
live in ``_backdoor_log_hazard`` and ``_frontdoor_log_hazard``; the frontdoor
one takes no exposure argument, which makes the exclusion restriction a
property of the code, not of a statistical check.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidArgumentError, ParseError, ValidationError
from .stats import RngStream

# Stream ids per structural variable, relative to an arm's stream offset,
# so adding a variable never perturbs the draws of another.
_STREAM_Z_OR_U = 1
_STREAM_X_NOISE = 2
_STREAM_Z_NOISE = 3
_STREAM_FAILURE = 4
_STREAM_CENSOR = 5

# Subjects per block of the structural model (see _scm_blocks).
_BLOCK = 1 << 13

# Rows per formatted block in save_dataset: the per-block overhead vanishes
# while a block's strings stay a few MB.
_ROWS_PER_WRITE = 1 << 14


@dataclass(frozen=True)
class ExponentialHazard:
    """Constant baseline hazard: H0(t) = rate * t."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"baseline_hazard.rate must be > 0, got {self.rate}")

    def cumulative(self, t):
        return self.rate * np.asarray(t, dtype=np.float64)

    def invert(self, h):
        return np.asarray(h, dtype=np.float64) / self.rate

    def to_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class WeibullHazard:
    """Weibull baseline: H0(t) = (t / scale) ** shape."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise ValidationError(f"baseline_hazard.shape must be > 0, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"baseline_hazard.scale must be > 0, got {self.scale}")

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


@dataclass(frozen=True)
class BackdoorCoefficients:
    a_zx: float      # effect of Z on X
    sigma_x: float   # sd of X given Z
    beta_x: float    # log-hazard effect of X
    beta_z: float    # log-hazard effect of Z

    def __post_init__(self) -> None:
        _require_finite_fields(self, "coefficients")
        if self.sigma_x < 0:
            raise ValidationError(f"coefficients.sigma_x must be >= 0, got {self.sigma_x}")


@dataclass(frozen=True)
class FrontdoorCoefficients:
    c_ux: float      # effect of hidden U on X
    sigma_x: float   # sd of X given U
    alpha: float     # effect of X on the mediator Z
    sigma_z: float   # sd of Z given X
    beta_z: float    # log-hazard effect of Z
    beta_u: float    # log-hazard effect of hidden U

    def __post_init__(self) -> None:
        _require_finite_fields(self, "coefficients")
        if self.sigma_x < 0:
            raise ValidationError(f"coefficients.sigma_x must be >= 0, got {self.sigma_x}")
        if self.sigma_z < 0:
            raise ValidationError(f"coefficients.sigma_z must be >= 0, got {self.sigma_z}")


def _require_finite_fields(obj, prefix: str) -> None:
    for name, value in vars(obj).items():
        if not math.isfinite(value):
            raise ValidationError(f"{prefix}.{name} must be finite, got {value}")


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
        dag_kind = raw["dag_kind"]
        coefs = raw["coefficients"]
        if not isinstance(coefs, dict):
            raise ValidationError("field 'coefficients' must be an object")
        try:
            if dag_kind == "backdoor":
                coefficients = BackdoorCoefficients(**coefs)
            elif dag_kind == "frontdoor":
                coefficients = FrontdoorCoefficients(**coefs)
            else:
                raise ValidationError(f"dag_kind must be 'backdoor' or 'frontdoor', got {dag_kind!r}")
        except TypeError as exc:
            raise ValidationError(f"field 'coefficients' invalid for {dag_kind}: {exc}") from exc
        return ScenarioConfig(
            dag_kind=dag_kind,
            n_subjects=_require_int(raw, "n_subjects"),
            seed=_require_int(raw, "seed"),
            baseline_hazard=_hazard_from_dict(raw["baseline_hazard"]),
            horizon_t=_require_number(raw, "horizon_t"),
            censor_rate=_require_number(raw, "censor_rate") if "censor_rate" in raw else 0.0,
            coefficients=coefficients,
            z_dist=_z_dist_from_dict(raw.get("z_dist", "standard_normal")),
        )


def _require_int(raw: dict, key: str) -> int:
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"field '{key}' must be an integer, got {value!r}")
    return value


def _require_number(raw: dict, key: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field '{key}' must be a number, got {value!r}")
    return float(value)


def _finite_numbers(value, shape) -> bool:
    """value is a nested list of finite JSON numbers of exactly this shape;
    a None length matches any. An integer too large for a float64 is not
    finite here, so the later float conversion cannot overflow."""
    if not shape:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return (
        isinstance(value, list)
        and shape[0] in (None, len(value))
        and all(_finite_numbers(v, shape[1:]) for v in value)
    )


def _hazard_from_dict(raw) -> BaselineHazard:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValidationError("field 'baseline_hazard' must be an object with a 'kind'")
    kind = raw["kind"]
    try:
        if kind == "exponential":
            return ExponentialHazard(rate=float(raw["rate"]))
        if kind == "weibull":
            return WeibullHazard(shape=float(raw["shape"]), scale=float(raw["scale"]))
    except KeyError as exc:
        raise ValidationError(f"baseline_hazard is missing field {exc}") from exc
    raise ValidationError(f"baseline_hazard.kind must be 'exponential' or 'weibull', got {kind!r}")


def _z_dist_from_dict(raw) -> ZDistribution:
    if raw == "standard_normal":
        return StandardNormalZ()
    if isinstance(raw, dict) and raw.get("kind") == "bernoulli":
        if "p" not in raw:
            raise ValidationError("z_dist of kind 'bernoulli' is missing field 'p'")
        return BernoulliZ(p=float(raw["p"]))
    raise ValidationError(f"field 'z_dist' must be 'standard_normal' or a bernoulli object, got {raw!r}")


def _read_json_object(path, what: str) -> dict:
    """The JSON object stored at path; ParseError with the line number for
    malformed JSON, ValidationError when the top level is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return raw


def load_scenario_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_read_json_object(path, "scenario config"))


@dataclass
class Dataset:
    """Column-oriented cohort with named covariates.

    ``u_latent`` holds the hidden confounder of the mediated DAG. It is kept
    outside the covariate matrix, so estimators that select covariates by
    name can never see it; only the intervention oracle reads it.
    """

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    covariate_names: list[str]
    u_latent: np.ndarray | None = None
    provenance: ScenarioConfig | str | None = None

    def __post_init__(self) -> None:
        self.time = np.asarray(self.time, dtype=np.float64)
        self.event = np.asarray(self.event, dtype=bool)
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        if self.covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d matrix")
        n = self.time.shape[0]
        if n == 0:
            raise ValidationError("dataset is empty")
        if self.event.shape[0] != n or self.covariates.shape[0] != n:
            raise ValidationError("time, event and covariates must have equal length")
        if len(self.covariate_names) != self.covariates.shape[1]:
            raise ValidationError("covariate_names must match the covariate columns")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ValidationError("covariate_names must be unique")
        if not np.all(np.isfinite(self.time)) or not np.all(np.isfinite(self.covariates)):
            raise ValidationError("dataset contains non-finite values")
        if np.any(self.time <= 0):
            raise ValidationError("all times must be positive")
        if self.u_latent is not None:
            self.u_latent = np.asarray(self.u_latent, dtype=np.float64)
            if self.u_latent.shape[0] != n or not np.all(np.isfinite(self.u_latent)):
                raise ValidationError("u_latent must be finite and match the cohort size")

    @property
    def n(self) -> int:
        return int(self.time.shape[0])

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.event))

    def column_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown covariate {name!r}; dataset has {self.covariate_names}") from None

    def column(self, name: str) -> np.ndarray:
        return self.covariates[:, self.column_index(name)]


def inverse_survival_time(u, eta, baseline_hazard: BaselineHazard):
    """Failure time T solving H0(T) * exp(eta) = -log(1 - u).

    Accepts scalars or arrays; u must lie strictly inside (0, 1).
    """
    u_arr = np.asarray(u, dtype=np.float64)
    eta_arr = np.asarray(eta, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise InvalidArgumentError("u must lie strictly inside (0, 1)")
    if not np.all(np.isfinite(eta_arr)):
        raise InvalidArgumentError("eta must be finite")
    target = -np.log1p(-u_arr) * np.exp(-eta_arr)
    t = baseline_hazard.invert(target)
    return float(t) if np.isscalar(u) and np.isscalar(eta) else t


def _censoring_times(config: ScenarioConfig, rng: RngStream, n: int) -> np.ndarray:
    if config.censor_rate > 0:
        random_censor = rng.exponential(config.censor_rate, n)
        return np.minimum(config.horizon_t, random_censor)
    return np.full(n, config.horizon_t)


def _scm_blocks(config: ScenarioConfig, n: int, seed: int, offset: int = 0, x_forced: float | None = None):
    """The structural model for n subjects as consecutive blocks of at most
    _BLOCK subjects: an iterator of (x, z, u, failure), as draw_scm returns
    them for the subjects of the block.

    Each variable's stream is opened once and read on from block to block.
    Philox is counter-based, so a stream read in consecutive blocks gives
    the bits of one read of the whole length, and every equation acts on
    one subject at a time: the blocks, joined, are the whole-array draw bit
    for bit, whatever n. _BLOCK = 2**13 keeps every float64 temporary at
    64 KiB, below glibc's 128 KiB mmap threshold, so no temporary is mapped
    and faulted in afresh, and a block's working set stays in L2.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    coef = config.coefficients
    frontdoor = config.dag_kind == "frontdoor"
    z_or_u = RngStream(seed, offset + _STREAM_Z_OR_U)
    x_noise = None if x_forced is not None else RngStream(seed, offset + _STREAM_X_NOISE)
    z_noise = RngStream(seed, offset + _STREAM_Z_NOISE) if frontdoor else None
    failure = RngStream(seed, offset + _STREAM_FAILURE)

    def exposure(cause: np.ndarray, weight: float, size: int) -> np.ndarray:
        if x_noise is None:
            return np.full(size, float(x_forced))
        return weight * cause + x_noise.normal(0.0, coef.sigma_x, size)

    def block(size: int):
        if frontdoor:
            u = z_or_u.normal(0.0, 1.0, size)
            x = exposure(u, coef.c_ux, size)
            z = coef.alpha * x + z_noise.normal(0.0, coef.sigma_z, size)
            eta = _frontdoor_log_hazard(coef, z, u)
        else:
            u = None
            z = config.z_dist.draw(z_or_u, size)
            x = exposure(z, coef.a_zx, size)
            eta = _backdoor_log_hazard(coef, x, z)
        return x, z, u, inverse_survival_time(failure.uniform(size), eta, config.baseline_hazard)

    return (block(min(_BLOCK, n - start)) for start in range(0, n, _BLOCK))


def draw_scm(config: ScenarioConfig, n: int, seed: int, offset: int = 0, x_forced: float | None = None):
    """One draw of the structural model for n subjects: (x, z, u, failure).

    z is the measured covariate (the confounder of the backdoor DAG, the
    mediator of the frontdoor DAG), u the hidden confounder of the frontdoor
    DAG (None for the backdoor DAG), and failure the latent failure times.
    Variable v draws from stream (seed, offset + _STREAM_v), so an arm at
    another offset is an independent copy of the model. x_forced simulates
    do(X=x_forced): X is set to that value, its noise stream is not drawn,
    and every other variable keeps the draw it has at the same offset.

    The columns are preallocated and filled block by block from
    _scm_blocks, which holds the equations. The blocks join into the
    whole-array draw bit for bit, so the result does not depend on the
    block size; _BLOCK is 2**13 so that no float64 temporary of a block
    reaches glibc's mmap threshold. Raises InvalidArgumentError when n < 1.
    """
    blocks = _scm_blocks(config, n, seed, offset, x_forced)  # checks n before anything is allocated
    x, z, failure = np.empty(n), np.empty(n), np.empty(n)
    u = np.empty(n) if config.dag_kind == "frontdoor" else None
    for start, (xb, zb, ub, fb) in zip(range(0, n, _BLOCK), blocks):
        rows = slice(start, start + fb.size)
        x[rows], z[rows], failure[rows] = xb, zb, fb
        if u is not None:
            u[rows] = ub
    return x, z, u, failure


def generate(config: ScenarioConfig) -> Dataset:
    """Observed cohort: one draw of the structural model, censored at the
    horizon and, when censor_rate > 0, at independent exponential times."""
    n = config.n_subjects
    x, z, u, failure = draw_scm(config, n, config.seed)
    censoring = _censoring_times(config, RngStream(config.seed, _STREAM_CENSOR), n)
    event = failure <= censoring
    return Dataset(
        time=np.where(event, failure, censoring),
        event=event,
        covariates=np.column_stack([x, z]),
        covariate_names=["x", "z"],
        u_latent=u,
        provenance=config,
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write the cohort as CSV: time, event, the covariates, then u_latent
    when present. Floats are written with %.17g, so load_dataset reads back
    the same float64 bits; events are 0 or 1; rows end in CRLF, as the
    csv.writer header does. Each block of _ROWS_PER_WRITE rows is one
    %-substitution into a repeated row template: no Python loop runs per
    value and no list of the whole cohort is built."""
    header = ["time", "event"] + list(dataset.covariate_names)
    columns = [dataset.time, dataset.event] + list(dataset.covariates.T)
    if dataset.u_latent is not None:
        header.append("u_latent")
        columns.append(dataset.u_latent)
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * (len(columns) - 2)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, dataset.n, _ROWS_PER_WRITE):
            block = [c[start:start + _ROWS_PER_WRITE].tolist() for c in columns]
            fh.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def load_dataset(path) -> Dataset:
    """Read a cohort CSV; raises ParseError with the offending line number,
    or ValidationError when values break the dataset invariants.

    numpy's C parser reads the body in one call. When it fails, finds no
    rows or the wrong number of fields, or reads an event other than 0 or
    1, the body is read again by the csv row loop (_parse_rows): it takes
    quoted fields and every spelling float() takes, and names the line of
    the first bad row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            # readline, not iteration over fh, so that tell() still works
            header = next(csv.reader(iter(fh.readline, "")))
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        for required in ("time", "event"):
            if required not in header:
                raise ValidationError(f"{path}: missing required column '{required}'")
        names = [c for c in header if c not in ("time", "event", "u_latent")]
        has_u = "u_latent" in header
        index = {c: header.index(c) for c in header}
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                # a body with no rows is reported by _parse_rows below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            data = None
        if data is None or len(data) == 0 or data.shape[1] != len(header) or not np.all(
            np.isin(data[:, index["event"]], (0.0, 1.0))
        ):
            fh.seek(body)
            data = _parse_rows(path, csv.reader(fh), len(header), index["event"])
    return Dataset(
        time=data[:, index["time"]],
        event=data[:, index["event"]].astype(bool),
        covariates=data[:, [index[c] for c in names]] if names else np.empty((len(data), 0)),
        covariate_names=names,
        u_latent=data[:, index["u_latent"]] if has_u else None,
        provenance=str(path),
    )


def _parse_rows(path, reader, width: int, event_col: int) -> np.ndarray:
    """The data rows of a cohort CSV, one csv record at a time; the first
    bad row raises with its line number (the header is line 1)."""
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}:{line_no}: expected {width} fields, got {len(row)}")
        try:
            parsed = [float(v) for v in row]
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
        if parsed[event_col] not in (0.0, 1.0):
            raise ValidationError(f"{path}:{line_no}: event must be 0 or 1")
        rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)
