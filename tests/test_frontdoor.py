import math

import numpy as np
import pytest

import dohazard as dh
from dohazard import stats

from conftest import make_frontdoor_config, make_tiny_dataset
from test_backdoor import hand_fit
from truth import EmptyStratumError, GaussianSpec, frontdoor_do_cdf_empirical, gaussian_exponential_moment


def random_params(rng):
    return dh.FrontdoorParams(
        beta_x=float(rng.normal(scale=0.5)),
        beta_z=float(rng.normal(scale=0.5)),
        alpha=float(rng.normal(scale=0.8)),
        mu_x=float(rng.normal()),
        sigma_x=float(rng.uniform(0.0, 1.5)),
        sigma_z=float(rng.uniform(0.0, 1.5)),
        se_alpha=float(rng.uniform(0.001, 0.1)),
        se_beta_z=float(rng.uniform(0.001, 0.1)),
        gamma=float(rng.normal(scale=0.5)),
    )


def test_param_recovery_reference(frontdoor_params):
    p = frontdoor_params
    assert abs(p.alpha - 1.0) < 4.0 * p.se_alpha
    assert abs(p.beta_z - 0.5) < 3.0 * p.se_beta_z
    assert p.mu_x == pytest.approx(0.0, abs=0.02)
    assert p.sigma_x == pytest.approx(1.0, rel=0.05)  # sqrt(0.8^2 + 0.6^2)
    assert p.sigma_z == pytest.approx(0.5, rel=0.05)


def test_params_take_three_passes_over_the_cohort(frontdoor_dataset, frontdoor_fit, monkeypatch):
    # the exposure moments come from the mediator line's own passes
    passes = []
    pairwise_sum = stats._pairwise_sum
    monkeypatch.setattr(stats, "_pairwise_sum", lambda n, leaf: passes.append(n) or pairwise_sum(n, leaf))
    params = dh.estimate_frontdoor_params(frontdoor_dataset, frontdoor_fit)
    assert passes == [frontdoor_dataset.n] * 3
    x = frontdoor_dataset.column("x")
    assert (params.mu_x, params.sigma_x) == (float(np.mean(x)), float(np.std(x, ddof=1)))


def test_param_estimation_alpha_zero():
    cfg = make_frontdoor_config(
        n_subjects=50_000,
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=0.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
        ),
    )
    dataset = dh.generate(cfg)
    params = dh.estimate_frontdoor_params(dataset, dh.fit_cox(dataset, ["x", "z"]))
    assert abs(params.alpha) < 4.0 * params.se_alpha


def test_params_validate():
    with pytest.raises(dh.InvalidArgumentError):
        dh.FrontdoorParams(beta_x=math.nan, beta_z=0.0, alpha=0.0, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.FrontdoorParams(beta_x=0.0, beta_z=0.0, alpha=0.0, gamma=0.0, mu_x=0.0, sigma_x=-1.0, sigma_z=1.0)
    with pytest.raises(dh.InvalidArgumentError, match="gamma"):
        dh.FrontdoorParams(beta_x=0.0, beta_z=0.0, alpha=0.0, gamma=math.inf, mu_x=0.0, sigma_x=1.0, sigma_z=1.0)


def test_gaussian_cdf_null_coefficients():
    params = dh.FrontdoorParams(beta_x=0.0, beta_z=0.0, alpha=1.0, gamma=0.0, mu_x=0.3, sigma_x=1.0, sigma_z=0.5)
    est = dh.frontdoor_do_cdf_gaussian(params, 0.03, 2.0)
    assert est.value == 0.03
    assert not est.rarity_flag
    assert math.isnan(est.std_err)


def test_gaussian_cdf_point_mass_doubling():
    params = dh.FrontdoorParams(beta_x=0.0, beta_z=math.log(2.0), alpha=1.0, gamma=0.0, mu_x=0.0, sigma_x=0.0, sigma_z=0.0)
    est = dh.frontdoor_do_cdf_gaussian(params, 0.03, 1.0)
    assert est.value == pytest.approx(0.06, rel=1e-15)


def test_gaussian_cdf_rejects_bad_h0():
    params = dh.FrontdoorParams(beta_x=0.0, beta_z=0.0, alpha=1.0, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.frontdoor_do_cdf_gaussian(params, -0.01, 1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.frontdoor_do_cdf_gaussian(params, math.nan, 1.0)


def test_gaussian_cdf_flag_threshold():
    params = dh.FrontdoorParams(beta_x=0.0, beta_z=0.0, alpha=1.0, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=1.0)
    assert not dh.frontdoor_do_cdf_gaussian(params, 0.1, 1.0).rarity_flag
    assert dh.frontdoor_do_cdf_gaussian(params, 0.100001, 1.0).rarity_flag


def test_gaussian_equals_moment_factorization():
    # the same closed form written as two exponential moments, E[exp(beta_x X')]
    # for X' ~ N(mu_x, sigma_x^2) and E[exp(beta_z Z)] for
    # Z ~ N(gamma + alpha*x, sigma_z^2), times the baseline
    rng = np.random.default_rng(414)
    for _ in range(50):
        params = random_params(rng)
        x = float(rng.normal())
        h0 = float(rng.uniform(0.0, 0.1))
        direct = dh.frontdoor_do_cdf_gaussian(params, h0, x).value
        m_x = gaussian_exponential_moment(params.beta_x, GaussianSpec(params.mu_x, params.sigma_x))
        m_z = gaussian_exponential_moment(params.beta_z, GaussianSpec(params.gamma + params.alpha * x, params.sigma_z))
        assert direct == pytest.approx(h0 * m_x * m_z, rel=1e-12)


def test_gaussian_ratio_matches_causal_rr():
    rng = np.random.default_rng(515)
    for _ in range(20):
        params = random_params(rng)
        x, x0 = float(rng.normal()), float(rng.normal())
        num = dh.frontdoor_do_cdf_gaussian(params, 0.02, x).value
        den = dh.frontdoor_do_cdf_gaussian(params, 0.02, x0).value
        assert num / den == pytest.approx(dh.frontdoor_causal_rr(params, x, x0).value, rel=1e-13)


def test_empirical_one_x_bin_factorizes():
    # z equal to x with beta_z = 0: the conditional factor collapses to 1
    rng = np.random.default_rng(88)
    x = rng.normal(size=400)
    ds = make_tiny_dataset(rng.uniform(1.0, 2.0, 400), np.ones(400, dtype=int), x, x.copy())
    fit = hand_fit([0.4, 0.0], ["x", "z"], [1.0], [0.05])
    got = frontdoor_do_cdf_empirical(ds, fit, 0.0, 1.0, x_bins=1, z_bins=10)
    want = 0.05 * float(np.mean(np.exp(0.4 * x)))
    assert got == pytest.approx(want, rel=1e-12)


def test_empirical_binary_mediator_exact():
    # discrete z: quantile bins recover the two-point conditional exactly
    n = 200
    x = np.tile([0.0, 1.0], n // 2)
    z = x.copy()  # mediator copies the exposure
    ds = make_tiny_dataset(np.linspace(1.0, 2.0, n), np.ones(n, dtype=int), x, z)
    beta_z = 0.7
    fit = hand_fit([0.0, beta_z], ["x", "z"], [1.0], [0.04])
    # intervention pinned inside the x = 1 bin: conditional z mass sits at 1
    got = frontdoor_do_cdf_empirical(ds, fit, 1.0, 1.0, x_bins=2, z_bins=10)
    want = 0.04 * math.exp(beta_z) * float(np.mean(np.exp(0.0 * x)))
    assert got == pytest.approx(want, rel=1e-12)


def test_empirical_matches_gaussian_reference(frontdoor_dataset, frontdoor_fit, frontdoor_params):
    h0 = frontdoor_fit.baseline_cumhaz(10.0)
    for x in (0.5, 1.0):
        gaussian = dh.frontdoor_do_cdf_gaussian(frontdoor_params, h0, x).value
        empirical = frontdoor_do_cdf_empirical(frontdoor_dataset, frontdoor_fit, x, 10.0)
        assert empirical == pytest.approx(gaussian, rel=0.03)


def test_empirical_argument_checks(frontdoor_dataset, frontdoor_fit):
    with pytest.raises(dh.InvalidArgumentError):
        frontdoor_do_cdf_empirical(frontdoor_dataset, frontdoor_fit, 99.0, 10.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(dh.InvalidArgumentError, match=f"^t must be finite and >= 0, got {t}$"):
            frontdoor_do_cdf_empirical(frontdoor_dataset, frontdoor_fit, 0.5, t)
    with pytest.raises(dh.InvalidArgumentError):
        frontdoor_do_cdf_empirical(frontdoor_dataset, frontdoor_fit, 0.5, 10.0, x_bins=0)


def test_empirical_empty_stratum():
    # sparse exposure support: interpolated quantile edges leave a data-free bin
    x = np.array([0.0, 0.0, 10.0, 10.0])
    ds = make_tiny_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], x, x.copy())
    fit = hand_fit([0.1, 0.1], ["x", "z"], [1.0], [0.05])
    with pytest.raises(EmptyStratumError, match="bin"):
        frontdoor_do_cdf_empirical(ds, fit, 5.0, 1.0, x_bins=5, z_bins=2)


def test_causal_rr_identity_and_nulls():
    params = dh.FrontdoorParams(
        beta_x=0.4, beta_z=0.6, alpha=0.9, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=0.5,
        se_alpha=0.01, se_beta_z=0.02,
    )
    same = dh.frontdoor_causal_rr(params, 1.3, 1.3)
    assert same.value == 1.0
    assert same.std_err == 0.0
    no_effect = dh.FrontdoorParams(beta_x=0.4, beta_z=0.0, alpha=0.9, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=0.5)
    assert dh.frontdoor_causal_rr(no_effect, 2.0, 0.0).value == 1.0
    no_link = dh.FrontdoorParams(beta_x=0.4, beta_z=0.6, alpha=0.0, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=0.5)
    assert dh.frontdoor_causal_rr(no_link, 2.0, 0.0).value == 1.0


def test_causal_rr_doubling():
    params = dh.FrontdoorParams(beta_x=0.0, beta_z=math.log(2.0), alpha=1.0, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=0.5)
    est = dh.frontdoor_causal_rr(params, 1.0, 0.0)
    assert est.value == pytest.approx(2.0, rel=1e-15)
    assert math.isnan(est.std_err)  # no standard errors supplied


def test_causal_rr_delta_se():
    params = dh.FrontdoorParams(
        beta_x=0.0, beta_z=0.5, alpha=1.2, gamma=0.0, mu_x=0.0, sigma_x=1.0, sigma_z=0.5,
        se_alpha=0.03, se_beta_z=0.04,
    )
    delta = 2.0
    est = dh.frontdoor_causal_rr(params, 2.5, 0.5)
    var_log = delta**2 * (1.2**2 * 0.04**2 + 0.5**2 * 0.03**2)
    assert est.std_err == pytest.approx(est.value * math.sqrt(var_log), rel=1e-12)


def test_mediation_indirect_rr_is_bit_identical():
    rng = np.random.default_rng(616)
    for _ in range(30):
        params = random_params(rng)
        x, x0 = float(rng.normal()), float(rng.normal())
        a = dh.frontdoor_causal_rr(params, x, x0)
        b = dh.mediation_indirect_rr(params, x, x0)
        assert b.value == a.value
        assert b.std_err == a.std_err
        assert b.method == "mediation_indirect_rr"


def test_reference_rr_against_oracle(frontdoor_config, frontdoor_params):
    est = dh.frontdoor_causal_rr(frontdoor_params, 1.0, 0.0)
    oracle = dh.oracle_rr(frontdoor_config, 1.0, 0.0, 400_000, 2727, 10.0)
    assert abs(est.value - oracle.ratio) <= max(0.10 * oracle.ratio, 3.0 * oracle.standard_error + 3.0 * est.std_err)
