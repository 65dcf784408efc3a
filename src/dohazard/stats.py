"""Deterministic random streams and small numerical primitives.

The random number scheme is pinned so that golden-value tests are portable:

* bits come from the Philox 4x64 counter-based generator keyed by
  ``(seed, stream_id)``, so distinct stream ids give independent sequences
  from one seed;
* uniforms map the top 53 bits k to ``(k + 0.5) * 2**-53``, except that
  k = 2**53 - 1, where ``k + 0.5`` rounds up to 2**53, maps to the largest
  double below 1; so every draw lies strictly inside (0, 1) and
  ``-log(1 - u)`` is always finite;
* normal variates use the inverse CDF (Cephes ``ndtri`` rational
  approximation) applied to those uniforms.

No global state: a stream is a value, and every draw sequence is a pure
function of (seed, stream_id, position).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateCovariateError, InvalidArgumentError

_U53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _U53

# A Philox key is two 64-bit words: the seed and the stream id.
SEED_LIMIT = 1 << 64

# Rows per block of the structural model, the Cox risk-set sums and the
# cohort CSV's float formatting (see simulate._scm_blocks).
_BLOCK = 1 << 13


class RngStream:
    """One deterministic draw sequence, identified by (seed, stream_id).

    Streams are values: they may be handed to another thread, but a single
    stream must not be drawn from concurrently.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= seed < SEED_LIMIT and 0 <= stream_id < SEED_LIMIT):
            raise InvalidArgumentError(f"seed and stream_id must lie in [0, 2**64), got {seed} and {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)

    def uniform(self, size: int | None = None):
        """Uniform draws strictly inside (0, 1)."""
        u = _uniforms(self._bits.random_raw(1 if size is None else size))
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


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to uniforms strictly inside (0, 1), shifting raw
    in place: the top 53 bits k give (k + 0.5) * 2**-53, and the one code
    that rounds to 1.0 (k = 2**53 - 1) gives the largest double below 1."""
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _U53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def empirical_moments(sample) -> tuple[float, float]:
    """Sample mean and standard deviation (n-1 denominator)."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise InvalidArgumentError("empirical_moments needs a 1-d sample of length >= 2")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("sample contains non-finite values")
    return float(np.mean(x)), float(np.std(x, ddof=1))


def ols_fit(x, z) -> tuple[float, float, float, float]:
    """Least-squares line of z on x.

    Returns (slope, intercept, residual sd, slope standard error), the
    residual sd using the n-2 denominator and the slope's SE being
    sigma / sqrt(sum (x - x_bar)^2). Raises DegenerateCovariateError when
    x is constant.
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
    # np.sum of the products, not np.dot: BLAS splits a dot product across
    # its threads, so its bits would depend on the thread count.
    x_bar = np.mean(x)
    z_bar = np.mean(z)
    dx = x - x_bar
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise DegenerateCovariateError("x has zero variance; slope is undefined")
    slope = float(np.sum(dx * (z - z_bar))) / sxx
    intercept = float(z_bar - slope * x_bar)
    resid = z - (intercept + slope * x)
    sigma = math.sqrt(max(float(np.sum(resid * resid)), 0.0) / (n - 2))
    return slope, intercept, sigma, sigma / math.sqrt(sxx)
