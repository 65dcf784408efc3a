"""Deterministic random streams and small numerical primitives.

The random number scheme is pinned so that golden-value tests are portable:

* bits come from the Philox 4x64 counter-based generator keyed by
  ``(seed, stream_id)``, so distinct stream ids give independent sequences
  from one seed;
* uniforms map the top 53 bits k to ``(k + 0.5) * 2**-53``, except that
  k = 2**53 - 1, where ``k + 0.5`` rounds up to 2**53, maps to the largest
  double below 1; so every draw lies strictly inside (0, 1) and
  ``-log(1 - u)`` is always finite;
* normal variates are numpy's ziggurat sampler (Marsaglia and Tsang,
  J. Stat. Software 5(8), 2000; ``Generator.standard_normal``) on the same
  Philox bits. A draw takes one 64-bit word, or more on the rare rejection,
  so a stream's uniforms and normals do not line up word for word; each
  stream of the package draws one kind of variate. The sampler is numpy's
  scalar C code, not a dispatched SIMD loop, so its bits do not depend on
  the CPU features numpy takes.

No global state: a stream is a value, and every draw sequence is a pure
function of (seed, stream_id, position). The bit generator reads on from
call to call, so draws taken in blocks, joined, are the one whole-array
draw bit for bit, whatever the block sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCovariateError, InvalidArgumentError

_U53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _U53

# A Philox key is two 64-bit words: the seed and the stream id.
SEED_LIMIT = 1 << 64

# Rows per block of the structural model, the Cox risk-set sums and the
# cohort CSV's float formatting (see simulate._exogenous_blocks).
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
        self._normals = np.random.Generator(self._bits).standard_normal

    def uniform(self, size: int | None = None):
        """Uniform draws strictly inside (0, 1)."""
        u = _uniforms(self._bits.random_raw(1 if size is None else size))
        return float(u[0]) if size is None else u

    def normal(self, mean: float = 0.0, sd: float = 1.0, size: int | None = None):
        if sd < 0:
            raise InvalidArgumentError(f"sd must be >= 0, got {sd}")
        v = self._normals(size)
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


def _pairwise_sum(n: int, leaf):
    """Sums over rows 0..n-1 with the bits of np.add.reduce over all n,
    from no array longer than _BLOCK: leaf(rows) returns the np.add.reduce
    sums of the rows of the slice rows (a float, or an array of them, one
    per summed quantity), and the sums of sibling row ranges are added in
    the order numpy's pairwise tree adds them.

    np.add.reduce of a 1-d float64 array, contiguous or strided, adds
    pairwise (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2): more than 128 values split at half their count, rounded
    down to a multiple of 8, and each half is summed the same way. This
    walks that split down to ranges of at most _BLOCK rows, whose own
    np.add.reduce follows the tree below them. numpy starts each reduce
    from +0.0, so no sum it returns is -0.0; neither is a sum of two
    siblings, so only a zero's sign could tell the trees apart, and it
    does not."""

    def node(start: int, stop: int):
        if stop - start <= _BLOCK:
            return leaf(slice(start, stop))
        half = (stop - start) // 2
        half -= half % 8
        return node(start, start + half) + node(start + half, stop)

    return node(0, n)


def ols_fit(x, z) -> tuple[float, float, float, float, float, float]:
    """Least-squares line of z on x, and x's sample moments.

    Returns (slope, intercept, residual sd, slope standard error, mean of
    x, sd of x), the residual sd using the n-2 denominator, the slope's SE
    being sigma / sqrt(sum (x - x_bar)^2) and x's sd the n-1 one. Raises
    DegenerateCovariateError when x is constant.

    Every sum has the bits of np.sum over the whole vectors and goes
    through _pairwise_sum, in three passes (the means; the sums of
    squares and products about them; the residual sum of squares), so no
    temporary is longer than _BLOCK; x's mean and sd have the bits of
    np.mean and np.std(ddof=1). They are sums of elementwise products, not
    np.dot: BLAS splits a dot product across its threads, so its bits
    would depend on the thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
        raise InvalidArgumentError("ols_fit needs 1-d vectors of equal length")
    n = x.size
    if n < 3:
        raise InvalidArgumentError(f"ols_fit needs length >= 3, got {n}")

    def sums(rows):
        xs, zs = x[rows], z[rows]
        if not (np.isfinite(xs).all() and np.isfinite(zs).all()):
            raise InvalidArgumentError("ols_fit inputs contain non-finite values")
        return np.array([np.add.reduce(xs), np.add.reduce(zs)])

    x_bar, z_bar = _pairwise_sum(n, sums) / n

    def moments(rows):
        dx = np.subtract(x[rows], x_bar)
        dz = np.subtract(z[rows], z_bar)
        dz *= dx
        return np.array([np.add.reduce(np.square(dx, out=dx)), np.add.reduce(dz)])

    sxx, sxz = (float(s) for s in _pairwise_sum(n, moments))
    if sxx == 0.0:
        raise DegenerateCovariateError("x has zero variance; slope is undefined")
    slope = sxz / sxx
    intercept = float(z_bar - slope * x_bar)

    def residuals(rows):
        fitted = np.multiply(x[rows], slope)
        fitted += intercept
        resid = np.subtract(z[rows], fitted, out=fitted)
        return np.add.reduce(np.square(resid, out=resid))

    sigma = math.sqrt(max(float(_pairwise_sum(n, residuals)), 0.0) / (n - 2))
    return slope, intercept, sigma, sigma / math.sqrt(sxx), float(x_bar), math.sqrt(sxx / (n - 1))
