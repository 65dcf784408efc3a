import math
import tracemalloc

import numpy as np
import pytest

import dohazard as dh
from dohazard.simulate import _BLOCK

from conftest import (
    make_backdoor_config,
    make_frontdoor_config,
    make_strong_confounding_config,
)


def null_backdoor_config(**overrides):
    base = dict(
        seed=13,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.0),
    )
    base.update(overrides)
    return make_backdoor_config(**base)


def test_simulate_do_null_coefficients_matches_cdf():
    cfg = null_backdoor_config()
    res = dh.simulate_do(cfg, 1.0, 200_000, 101, 10.0)
    want = 1.0 - math.exp(-0.002 * 10.0)
    assert abs(res.incidence - want) < 4.0 * res.standard_error
    assert res.n == 200_000
    assert res.x_value == 1.0
    assert res.horizon_t == 10.0
    assert res.seed == 101


def test_simulate_do_is_deterministic(backdoor_config):
    a = dh.simulate_do(backdoor_config, 1.0, 50_000, 7, 10.0)
    b = dh.simulate_do(backdoor_config, 1.0, 50_000, 7, 10.0)
    assert a == b


def test_simulate_do_argument_checks(backdoor_config):
    with pytest.raises(dh.InvalidArgumentError, match="^n must be >= 1, got 0$"):
        dh.simulate_do(backdoor_config, 1.0, 0, 7, 10.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.simulate_do(backdoor_config, math.inf, 100, 7, 10.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.simulate_do(backdoor_config, 1.0, 100, 7, 0.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.simulate_do(backdoor_config, 1.0, 100, 7, 10.5)


def test_simulate_do_monotone_in_t(backdoor_config):
    vals = [dh.simulate_do(backdoor_config, 1.0, 100_000, 11, t).incidence for t in (2.0, 4.0, 6.0, 8.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > vals[0]


def test_oracle_rr_null_effect_backdoor():
    cfg = make_backdoor_config(
        seed=23,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.4),
    )
    rr = dh.oracle_rr(cfg, 1.0, 0.0, 200_000, 301, 10.0)
    assert abs(rr.ratio - 1.0) < 3.0 * rr.standard_error


def test_oracle_rr_null_effect_frontdoor():
    cfg = make_frontdoor_config(
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=0.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
        ),
    )
    rr = dh.oracle_rr(cfg, 3.0, 0.0, 200_000, 303, 10.0)
    assert abs(rr.ratio - 1.0) < 3.0 * rr.standard_error


def test_oracle_rr_shared_streams_identity(backdoor_config):
    rr = dh.oracle_rr(backdoor_config, 1.0, 1.0, 50_000, 9, 10.0, shared_streams=True)
    assert rr.ratio == 1.0
    assert rr.standard_error == 0.0
    assert rr.log_standard_error == 0.0


def test_oracle_rr_independent_arms(backdoor_config):
    rr = dh.oracle_rr(backdoor_config, 1.0, 1.0, 200_000, 9, 10.0)
    assert rr.ratio != 1.0  # different stream blocks
    assert abs(rr.ratio - 1.0) < 4.0 * rr.standard_error
    assert rr.numerator.n == rr.denominator.n == 200_000


def test_oracle_rr_recovers_log_hazard_contrast():
    cfg = make_backdoor_config(
        seed=31,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=math.log(2.0), beta_z=0.4),
    )
    rr = dh.oracle_rr(cfg, 1.0, 0.0, 400_000, 333, 10.0)
    assert rr.ratio == pytest.approx(2.0, rel=0.05)


def test_conditional_differs_from_interventional_under_confounding():
    cfg = make_strong_confounding_config()
    do = dh.simulate_do(cfg, 1.0, 1_000_000, 777, 10.0)
    cond = dh.factual_conditional_incidence(cfg, 1.0, 0.2, 1_000_000, 777, 10.0)
    gap = abs(cond.incidence - do.incidence)
    combined = math.hypot(cond.standard_error, do.standard_error)
    assert gap > 4.0 * combined
    assert cond.incidence > do.incidence  # confounding inflates the conditional risk


def test_conditional_incidence_empty_window(backdoor_config):
    with pytest.raises(dh.DegenerateOracleError):
        dh.factual_conditional_incidence(backdoor_config, 50.0, 0.1, 10_000, 5, 10.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.factual_conditional_incidence(backdoor_config, 1.0, 0.0, 10_000, 5, 10.0)


def test_oracle_rr_degenerate_arm():
    cfg = make_backdoor_config(baseline_hazard=dh.ExponentialHazard(1e-12), n_subjects=10)
    with pytest.raises(dh.DegenerateOracleError, match="arm"):
        dh.oracle_rr(cfg, 1.0, 0.0, 1_000, 5, 10.0)


def test_oracle_paf_null_exposure():
    cfg = null_backdoor_config(
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.4),
    )
    value, se = dh.oracle_paf(cfg, 200_000, 41, 10.0)
    assert abs(value) < 4.0 * se


def test_oracle_paf_positive_for_harmful_exposure(backdoor_config):
    value, se = dh.oracle_paf(backdoor_config, 400_000, 43, 10.0)
    assert value - 3.0 * se > 0.0


def test_taylor_error_values():
    r05 = dh.taylor_relative_error(0.05)
    assert r05 <= 0.026
    assert r05 == pytest.approx(0.0252, abs=2e-4)
    r10 = dh.taylor_relative_error(0.1)
    assert r10 > 0.05
    assert r10 == pytest.approx(0.0508, abs=2e-4)
    assert dh.taylor_relative_error(0.0) == 0.0


def test_taylor_error_bound_holds():
    for h in np.logspace(-6, 0, 40):
        r = dh.taylor_relative_error(float(h))
        assert 0.0 < r <= h / 2.0 * (1.0 + h)
        if h < 0.5:
            assert r > 0.45 * h


def test_taylor_error_rejects_negative():
    with pytest.raises(dh.InvalidArgumentError):
        dh.taylor_relative_error(-0.01)


def test_approx_report_reference(backdoor_dataset, backdoor_fit, backdoor_summary):
    report = dh.approx_error_report(backdoor_fit, backdoor_dataset, 10.0)
    assert report.max_cumhaz == pytest.approx(backdoor_summary.max_cumhaz, rel=1e-12)
    assert 0.0 < report.mean_cumhaz < report.max_cumhaz
    assert report.max_rel_error == pytest.approx(dh.taylor_relative_error(report.max_cumhaz), rel=1e-12)
    assert report.flagged == (report.max_rel_error > 0.05)

    at_zero = dh.approx_error_report(backdoor_fit, backdoor_dataset, 0.0)
    assert at_zero.max_cumhaz == 0.0
    assert at_zero.max_rel_error == 0.0
    assert not at_zero.flagged

    with pytest.raises(dh.InvalidArgumentError):
        dh.approx_error_report(backdoor_fit, backdoor_dataset, -1.0)


@pytest.mark.parametrize(
    "arm",
    [
        lambda cfg, n: dh.simulate_do(cfg, 1.0, n, 7, 10.0),
        lambda cfg, n: dh.simulate_factual(cfg, n, 7, 10.0),
        lambda cfg, n: dh.factual_conditional_incidence(cfg, 1.0, 0.5, n, 7, 10.0),
    ],
    ids=["do", "factual", "conditional"],
)
def test_oracle_arms_reject_empty_draw(backdoor_config, arm):
    with pytest.raises(dh.InvalidArgumentError, match="^n must be >= 1, got -1$"):
        arm(backdoor_config, -1)


def test_simulate_do_streams_in_blocks(backdoor_config):
    dh.simulate_do(backdoor_config, 1.0, 1_000, 7, 10.0)  # first-call allocations
    tracemalloc.start()
    try:
        dh.simulate_do(backdoor_config, 1.0, 200_000, 7, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 200k-subject float64 column alone is 1.6 MB
    assert peak < 2_000_000


@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_oracle_counts_equal_scm_columns(make_config):
    cfg = make_config()
    n, seed, t = 3 * _BLOCK + 5, 19, 7.5

    do = dh.simulate_do(cfg, 1.0, n, seed, t, stream_offset=16)
    failure = dh.draw_scm(cfg, n, seed, 16, x_forced=1.0)[3]
    assert do.incidence == np.mean(failure <= t) and do.n == n

    factual = dh.simulate_factual(cfg, n, seed, t, stream_offset=48)
    x, _, _, failure = dh.draw_scm(cfg, n, seed, 48)
    assert factual.incidence == np.mean(failure <= t) and factual.n == n

    cond = dh.factual_conditional_incidence(cfg, 1.0, 0.25, n, seed, t, stream_offset=48)
    keep = np.abs(x - 1.0) <= 0.25
    assert cond.incidence == np.mean(failure[keep] <= t)
    assert cond.n == np.count_nonzero(keep)
