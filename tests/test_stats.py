import math

import numpy as np
import pytest

import dohazard as dh

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
    assert dh.gaussian_exponential_moment(0.0, dh.GaussianSpec(3.0, 2.0)) == 1.0


def test_gaussian_moment_standard_normal():
    got = dh.gaussian_exponential_moment(1.0, dh.GaussianSpec(0.0, 1.0))
    assert got == pytest.approx(math.exp(0.5), rel=1e-15)


def test_gaussian_moment_quadrature_example():
    spec = dh.GaussianSpec(0.2, 0.7)
    got = dh.gaussian_exponential_moment(1.3, spec)
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
                got = dh.gaussian_exponential_moment(beta, dh.GaussianSpec(mean, sd))
                if sd == 0.0:
                    want = math.exp(beta * mean)
                else:
                    want = quadrature_moment(beta, mean, sd)
                assert got == pytest.approx(want, rel=1e-10)


def test_gaussian_moment_invalid_inputs():
    with pytest.raises(dh.InvalidArgumentError):
        dh.gaussian_exponential_moment(math.nan, dh.GaussianSpec(0.0, 1.0))
    with pytest.raises(dh.InvalidArgumentError):
        dh.gaussian_exponential_moment(math.inf, dh.GaussianSpec(0.0, 1.0))
    with pytest.raises(dh.InvalidArgumentError):
        dh.GaussianSpec(0.0, -1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.GaussianSpec(math.nan, 1.0)


def test_ols_exact_line():
    slope, intercept, resid_sd = dh.ols_fit([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])
    assert slope == pytest.approx(2.0, abs=1e-14)
    assert intercept == pytest.approx(0.0, abs=1e-14)
    assert resid_sd == pytest.approx(0.0, abs=1e-12)


def test_ols_three_point_example():
    slope, intercept, resid_sd = dh.ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    assert slope == pytest.approx(1.5, rel=1e-14)
    assert intercept == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert resid_sd == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        z = 0.7 * x + rng.normal(size=n)
        slope, intercept, _ = dh.ols_fit(x, z)
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


def test_empirical_moments_example():
    mean, sd = dh.empirical_moments([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5, rel=1e-15)
    assert sd == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-14)
    assert sd == pytest.approx(1.29099, abs=5e-6)


def test_empirical_moments_constant():
    mean, sd = dh.empirical_moments([3.0, 3.0, 3.0])
    assert mean == 3.0
    assert sd == 0.0


def test_empirical_moments_errors():
    with pytest.raises(dh.InvalidArgumentError):
        dh.empirical_moments([1.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.empirical_moments([1.0, math.inf])


def test_stream_golden_values():
    s = dh.RngStream(42, 0)
    got = [s.uniform() for _ in range(3)]
    assert got == GOLDEN_UNIFORMS
    assert dh.RngStream(42, 0).normal() == GOLDEN_NORMAL


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
