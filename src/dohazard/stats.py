"""Deterministic random streams and small numerical primitives.

The random number scheme is pinned so that golden-value tests are portable:

* bits come from the Philox 4x64 counter-based generator keyed by
  ``(seed, stream_id)``, so distinct stream ids give independent sequences
  from one seed;
* uniforms map the top 53 bits to ``(k + 0.5) * 2**-53``, which lies
  strictly inside (0, 1) -- ``-log(1 - u)`` is always finite;
* normal variates use the inverse CDF (Cephes ``ndtri`` rational
  approximation) applied to those uniforms.

No global state: a stream is a value, and every draw sequence is a pure
function of (seed, stream_id, position).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateCovariateError, InvalidArgumentError

_U53 = 2.0 ** -53


@dataclass(frozen=True)
class GaussianSpec:
    """Normal distribution parameters; sd == 0 is a point mass at mean."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise InvalidArgumentError("GaussianSpec requires finite mean and sd")
        if self.sd < 0:
            raise InvalidArgumentError(f"GaussianSpec sd must be >= 0, got {self.sd}")


class RngStream:
    """One deterministic draw sequence, identified by (seed, stream_id).

    Streams are values: they may be handed to another thread, but a single
    stream must not be drawn from concurrently.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise InvalidArgumentError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)

    def uniform(self, size: int | None = None):
        """Uniform draws strictly inside (0, 1)."""
        raw = self._bits.random_raw(1 if size is None else size)
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u += 0.5
        u *= _U53
        return float(u[0]) if size is None else u

    def normal(self, mean: float = 0.0, sd: float = 1.0, size: int | None = None):
        if sd < 0:
            raise InvalidArgumentError(f"sd must be >= 0, got {sd}")
        v = ndtri(self.uniform(size))
        v *= sd
        v += mean
        return v

    def bernoulli(self, p: float, size: int | None = None):
        """0/1 draws; integer dtype for arrays."""
        if not 0.0 <= p <= 1.0:
            raise InvalidArgumentError(f"p must be in [0, 1], got {p}")
        u = self.uniform(size)
        if size is None:
            return 1 if u < p else 0
        return (u < p).astype(np.int64)

    def exponential(self, rate: float, size: int | None = None):
        """Exponential(rate) via inverse transform; rate must be positive."""
        if rate <= 0:
            raise InvalidArgumentError(f"rate must be > 0, got {rate}")
        u = self.uniform(size)
        return -np.log1p(-u) / rate


def gaussian_exponential_moment(beta: float, spec: GaussianSpec) -> float:
    """E[exp(beta * X)] for X ~ N(mean, sd^2): exp(beta*mean + sd^2*beta^2/2)."""
    if not math.isfinite(beta):
        raise InvalidArgumentError(f"beta must be finite, got {beta}")
    return math.exp(beta * spec.mean + 0.5 * (spec.sd * beta) ** 2)


def empirical_moments(sample) -> tuple[float, float]:
    """Sample mean and standard deviation (n-1 denominator)."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise InvalidArgumentError("empirical_moments needs a 1-d sample of length >= 2")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("sample contains non-finite values")
    return float(np.mean(x)), float(np.std(x, ddof=1))


def ols_fit(x, z) -> tuple[float, float, float]:
    """Least-squares line of z on x.

    Returns (slope, intercept, residual sd), the residual sd using the
    n-2 denominator. Raises DegenerateCovariateError when x is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
        raise InvalidArgumentError("ols_fit needs 1-d vectors of equal length")
    n = x.size
    if n < 3:
        raise InvalidArgumentError(f"ols_fit needs length >= 3, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise InvalidArgumentError("ols_fit inputs contain non-finite values")
    x_bar = np.mean(x)
    z_bar = np.mean(z)
    dx = x - x_bar
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise DegenerateCovariateError("x has zero variance; slope is undefined")
    slope = float(np.dot(dx, z - z_bar)) / sxx
    intercept = float(z_bar - slope * x_bar)
    resid = z - (intercept + slope * x)
    sigma = math.sqrt(max(float(np.dot(resid, resid)), 0.0) / (n - 2))
    return slope, intercept, sigma
