import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard.stats import _BLOCK, _pairwise_sum, _uniforms

from conftest import make_frontdoor_config
from truth import GaussianSpec, gaussian_exponential_moment

# frozen first draws for seed 42, stream 0
GOLDEN_UNIFORMS = [
    0.82019814786088774,
    0.18924562408645501,
    0.8676608148821463,
]
GOLDEN_NORMAL = 0.91612048563452264


def quadrature_moment(beta, mean, sd, nodes=200):
    """Gauss-Legendre integral of e^(beta*t) against the normal density."""
    lo = min(mean, mean + beta * sd * sd) - 12.0 * sd
    hi = max(mean, mean + beta * sd * sd) + 12.0 * sd
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    dens = np.exp(-0.5 * ((t - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    return 0.5 * (hi - lo) * float(w @ (np.exp(beta * t) * dens))


def test_gaussian_moment_zero_beta():
    assert gaussian_exponential_moment(0.0, GaussianSpec(3.0, 2.0)) == 1.0


def test_gaussian_moment_standard_normal():
    got = gaussian_exponential_moment(1.0, GaussianSpec(0.0, 1.0))
    assert got == pytest.approx(math.exp(0.5), rel=1e-15)


def test_gaussian_moment_quadrature_example():
    spec = GaussianSpec(0.2, 0.7)
    got = gaussian_exponential_moment(1.3, spec)
    # exp(0.2*1.3 + 0.49*1.69/2) = exp(0.67405) = 1.9621680...
    assert got == pytest.approx(math.exp(0.67405), rel=1e-12)
    # independent numerical integral, range mean +/- 10 sd is wide enough here
    x, w = np.polynomial.legendre.leggauss(200)
    lo, hi = 0.2 - 7.0, 0.2 + 7.0
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    dens = np.exp(-0.5 * ((t - 0.2) / 0.7) ** 2) / (0.7 * math.sqrt(2.0 * math.pi))
    quad = 0.5 * (hi - lo) * float(w @ (np.exp(1.3 * t) * dens))
    assert got == pytest.approx(quad, rel=1e-12)


def test_gaussian_moment_quadrature_grid():
    for beta in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for mean in (-1.0, 0.0, 1.0):
            for sd in (0.0, 0.5, 1.0, 2.0):
                got = gaussian_exponential_moment(beta, GaussianSpec(mean, sd))
                if sd == 0.0:
                    want = math.exp(beta * mean)
                else:
                    want = quadrature_moment(beta, mean, sd)
                assert got == pytest.approx(want, rel=1e-10)


def test_gaussian_moment_invalid_inputs():
    with pytest.raises(dh.InvalidArgumentError):
        gaussian_exponential_moment(math.nan, GaussianSpec(0.0, 1.0))
    with pytest.raises(dh.InvalidArgumentError):
        gaussian_exponential_moment(math.inf, GaussianSpec(0.0, 1.0))
    with pytest.raises(dh.InvalidArgumentError):
        GaussianSpec(0.0, -1.0)
    with pytest.raises(dh.InvalidArgumentError):
        GaussianSpec(math.nan, 1.0)


def test_ols_exact_line():
    slope, intercept, resid_sd, *_ = dh.ols_fit([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])
    assert slope == pytest.approx(2.0, abs=1e-14)
    assert intercept == pytest.approx(0.0, abs=1e-14)
    assert resid_sd == pytest.approx(0.0, abs=1e-12)


def test_ols_three_point_example():
    slope, intercept, resid_sd, slope_se, *_ = dh.ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    assert slope == pytest.approx(1.5, rel=1e-14)
    assert intercept == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert resid_sd == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)
    # sum (x - x_bar)^2 = 2
    assert slope_se == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        z = 0.7 * x + rng.normal(size=n)
        slope, intercept, *_ = dh.ols_fit(x, z)
        resid = z - (intercept + slope * x)
        scale = max(1.0, float(np.abs(z).max())) * n
        assert abs(float(resid @ x)) <= 1e-9 * scale
        assert abs(float(resid.sum())) <= 1e-9 * scale


def test_ols_errors():
    with pytest.raises(dh.DegenerateCovariateError):
        dh.ols_fit([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.ols_fit([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.ols_fit([0.0, 1.0, 2.0], [0.0, 1.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.ols_fit([0.0, 1.0, math.nan], [0.0, 1.0, 2.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.ols_fit([0.0, 1.0, math.inf], [0.0, 1.0, 2.0])


def test_ols_fit_exposure_moments_example():
    *_, mean, sd = dh.ols_fit([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 2.0])
    assert mean == pytest.approx(2.5, rel=1e-15)
    assert sd == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-14)
    assert sd == pytest.approx(1.29099, abs=5e-6)


def test_empirical_moments_errors():
    # the exposure moments come from ols_fit, which refuses a sample too
    # short for an n-1 sd or a non-finite exposure before summing anything
    with pytest.raises(dh.InvalidArgumentError, match="length >= 3"):
        dh.ols_fit([1.0], [0.0])
    with pytest.raises(dh.InvalidArgumentError, match="non-finite"):
        dh.ols_fit([1.0, math.inf, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(dh.InvalidArgumentError, match="non-finite"):
        dh.ols_fit([1.0, -math.inf, 2.0], [0.0, 1.0, 2.0])


def test_stream_golden_values():
    s = dh.RngStream(42, 0)
    got = [s.uniform() for _ in range(3)]
    assert got == GOLDEN_UNIFORMS
    assert dh.RngStream(42, 0).normal() == GOLDEN_NORMAL


@pytest.mark.parametrize("seed, stream_id", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_stream_key_must_fit_philox(seed, stream_id):
    # a Philox key is two 64-bit words; anything outside them is refused
    # as an argument error, not left to numpy's OverflowError
    with pytest.raises(dh.InvalidArgumentError, match=r"must lie in \[0, 2\*\*64\)"):
        dh.RngStream(seed, stream_id)
    largest = dh.RngStream(2**64 - 1, 2**64 - 1).uniform(size=3)
    assert np.all((largest > 0) & (largest < 1))


def test_stream_determinism():
    a = dh.RngStream(9, 3).uniform(size=1000)
    b = dh.RngStream(9, 3).uniform(size=1000)
    assert np.array_equal(a, b)
    c = dh.RngStream(9, 4).uniform(size=1000)
    assert not np.array_equal(a, c)
    d = dh.RngStream(10, 3).uniform(size=1000)
    assert not np.array_equal(a, d)


def test_uniform_open_interval():
    u = dh.RngStream(5, 1).uniform(size=100_000)
    assert float(u.min()) > 0.0
    assert float(u.max()) < 1.0
    # crude mean check, 4 sigma
    assert abs(float(u.mean()) - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / 100_000)


@pytest.mark.parametrize(
    "code, expected",
    [
        (0, 2.0 ** -54),
        (2**52 - 1, 0.5 - 2.0 ** -54),
        (2**52, 0.5),  # 2**52 + 0.5 is a tie, rounded to even
        (2**53 - 2, 1.0 - 2.0 ** -52),
        (2**53 - 1, 1.0 - 2.0 ** -53),  # rounds to 1.0 unless clamped
    ],
)
def test_uniform_map_at_the_edge_codes(code, expected):
    # the low 11 bits of a raw word are dropped, whatever they hold
    for low in (0, 0x7FF):
        raw = np.array([code << 11 | low], dtype=np.uint64)
        u = _uniforms(raw)
        assert u[0] == expected
        assert 0.0 < u[0] < 1.0
    assert math.isfinite(-math.log1p(-expected))


def test_normal_moments():
    v = dh.RngStream(6, 2).normal(size=200_000)
    assert abs(float(v.mean())) < 4.0 / math.sqrt(200_000)
    assert float(v.std()) == pytest.approx(1.0, rel=0.02)


def test_bernoulli():
    s = dh.RngStream(7, 1)
    assert np.all(s.bernoulli(1.0, size=100) == 1)
    assert np.all(s.bernoulli(0.0, size=100) == 0)
    draws = dh.RngStream(7, 2).bernoulli(0.3, size=100_000)
    se = math.sqrt(0.3 * 0.7 / 100_000)
    assert abs(float(draws.mean()) - 0.3) < 4.0 * se
    with pytest.raises(dh.InvalidArgumentError):
        s.bernoulli(1.5)


def test_exponential():
    v = dh.RngStream(8, 1).exponential(2.0, size=200_000)
    assert float(v.min()) > 0.0
    # mean 1/rate, se = mean / sqrt(n)
    assert abs(float(v.mean()) - 0.5) < 4.0 * 0.5 / math.sqrt(200_000)
    with pytest.raises(dh.InvalidArgumentError):
        dh.RngStream(8, 1).exponential(0.0)


def test_draw_normal_point_mass():
    assert dh.RngStream(1, 1).normal(2.5, 0.0) == 2.5
    v = dh.RngStream(1, 2).normal(2.5, 0.0, size=10)
    assert np.all(v == 2.5)


def test_ols_fit_bits_do_not_depend_on_blas_threads():
    src = Path(dh.__file__).resolve().parent.parent
    script = (
        "import dohazard as dh\n"
        "x = dh.RngStream(11, 1).normal(size=200_000)\n"
        "z = x + 0.5 * dh.RngStream(11, 2).normal(size=200_000)\n"
        "print(*(v.hex() for v in dh.ols_fit(x, z)))\n"
    )
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results.append(proc.stdout)
    assert results[0] == results[1]


# Row counts at the edges of numpy's pairwise tree: its unrolled 8-value
# loop, its 128-value leaves and _pairwise_sum's _BLOCK-row leaves.
TREE_EDGES = [1, 7, 8, 9, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 8]


def laid_out(values, layout):
    """values as a contiguous array, or as the middle column of a row-major
    (strided) or column-major n x 3 matrix, as a cohort holds it."""
    if layout == "contiguous":
        return values.copy()
    matrix = np.zeros((values.size, 3), order="C" if layout == "strided" else "F")
    matrix[:, 1] = values
    return matrix[:, 1]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(TREE_EDGES) | st.integers(1, 300_000),
    layout=st.sampled_from(["contiguous", "strided", "F-order"]),
    exponents=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sum_has_the_bits_of_add_reduce(n, layout, exponents, seed):
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    x = laid_out(rng.normal(size=n) * 10.0 ** rng.uniform(lo, hi, size=n), layout)
    total = _pairwise_sum(n, lambda rows: np.add.reduce(x[rows]))
    assert total.tobytes() == np.add.reduce(x).tobytes()
    assert (total / n).tobytes() == np.mean(x).tobytes()


@pytest.mark.parametrize("n", TREE_EDGES)
def test_pairwise_sum_keeps_the_sign_of_zero_of_add_reduce(n):
    x = np.full(n, -0.0)
    total = _pairwise_sum(n, lambda rows: np.add.reduce(x[rows]))
    assert total.tobytes() == np.add.reduce(x).tobytes()


def whole_array_ols(x, z):
    """ols_fit with every sum taken over whole arrays."""
    x_bar, z_bar = np.mean(x), np.mean(z)
    dx = x - x_bar
    sxx = float(np.sum(dx * dx))
    slope = float(np.sum(dx * (z - z_bar))) / sxx
    intercept = float(z_bar - slope * x_bar)
    resid = z - (intercept + slope * x)
    sigma = math.sqrt(max(float(np.sum(resid * resid)), 0.0) / (x.size - 2))
    return slope, intercept, sigma, sigma / math.sqrt(sxx)


@pytest.mark.parametrize("n", [3, 129, 2 * _BLOCK + 8, 50_001])
def test_ols_fit_and_moments_have_the_bits_of_whole_array_sums(n):
    cohort = dh.generate(make_frontdoor_config(n_subjects=n))
    x, z = cohort.column("x"), cohort.column("z")
    *line, mean, sd = dh.ols_fit(x, z)
    assert [v.hex() for v in line] == [v.hex() for v in whole_array_ols(x, z)]
    assert (mean.hex(), sd.hex()) == (float(np.mean(x)).hex(), float(np.std(x, ddof=1)).hex())


def traced_peak(call):
    call()  # first-call allocations
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ols_fit_and_moments_hold_no_cohort_sized_array():
    # one 200k-row float64 column is 1.6 MB; the bound is a few _BLOCK-row
    # temporaries and does not grow with n
    cohort = dh.generate(make_frontdoor_config(n_subjects=200_000))
    x, z = cohort.column("x"), cohort.column("z")
    assert traced_peak(lambda: dh.ols_fit(x, z)) < 4 * 8 * _BLOCK
