import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard.oracle import _event_counts, oracle_paf, simulate_factual
from dohazard.stats import _BLOCK

from conftest import (
    as_loaded,
    make_backdoor_config,
    make_frontdoor_config,
    make_strong_confounding_config,
)
from truth import draw_scm


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
    # with beta_x = 0 the forced x moves no failure time of the one draw
    cfg = make_backdoor_config(
        seed=23,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.4),
    )
    rr = dh.oracle_rr(cfg, 1.0, 0.0, 200_000, 301, 10.0)
    assert (rr.ratio, rr.standard_error, rr.log_standard_error) == (1.0, 0.0, 0.0)


def test_oracle_rr_null_effect_frontdoor():
    cfg = make_frontdoor_config(
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=0.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
        ),
    )
    rr = dh.oracle_rr(cfg, 3.0, 0.0, 200_000, 303, 10.0)  # alpha = 0: x moves no mediator
    assert (rr.ratio, rr.standard_error, rr.log_standard_error) == (1.0, 0.0, 0.0)


def test_oracle_rr_shared_streams_identity(backdoor_config):
    rr = dh.oracle_rr(backdoor_config, 1.0, 1.0, 50_000, 9, 10.0)
    assert rr.ratio == 1.0
    assert rr.standard_error == 0.0
    assert rr.log_standard_error == 0.0


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_oracle_rr_shared_streams_draw_offset_zero_once(backdoor_config, monkeypatch, x0):
    # both arms are counted from one draw of offset 0: each of its streams
    # opens once, and the counts are those of the arms drawn alone
    opened = []
    init = dh.RngStream.__init__

    def spy_init(self, seed, stream_id=0):
        opened.append(stream_id)
        init(self, seed, stream_id)

    monkeypatch.setattr(dh.RngStream, "__init__", spy_init)
    rr = dh.oracle_rr(backdoor_config, 1.0, x0, 20_000, 9, 10.0)
    assert sorted(opened) == [1, 4]
    monkeypatch.undo()
    assert rr.numerator == dh.simulate_do(backdoor_config, 1.0, 20_000, 9, 10.0)
    assert rr.denominator == dh.simulate_do(backdoor_config, x0, 20_000, 9, 10.0)


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
    # P(T <= t | X within 0.2 of 1) in the factual world of the same draw
    x, _, _, failure = draw_scm(cfg, 1_000_000, 777)
    hit = failure[np.abs(x - 1.0) <= 0.2] <= 10.0
    cond = np.mean(hit)
    gap = abs(cond - do.incidence)
    combined = math.hypot(math.sqrt(cond * (1.0 - cond) / hit.size), do.standard_error)
    assert gap > 4.0 * combined
    assert cond > do.incidence  # confounding inflates the conditional risk


def test_oracle_rr_degenerate_arm():
    cfg = make_backdoor_config(baseline_hazard=dh.ExponentialHazard(1e-12), n_subjects=10)
    with pytest.raises(dh.DegenerateOracleError, match="arm"):
        dh.oracle_rr(cfg, 1.0, 0.0, 1_000, 5, 10.0)


def test_oracle_paf_null_exposure():
    cfg = null_backdoor_config(
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.4),
    )
    value, se = oracle_paf(cfg, 200_000, 41, 10.0)
    assert (value, se) == (0.0, 0.0)  # beta_x = 0: the drawn and the forced x fail alike


@pytest.mark.parametrize(
    "make_config, x",
    [(make_backdoor_config, 1.0), (make_backdoor_config, -1.0), (make_frontdoor_config, 1.0)],
    ids=["backdoor 1 vs 0", "backdoor -1 vs 0", "frontdoor 1 vs 0"],
)
def test_paired_log_ratio_se_matches_spread_over_seeds(make_config, x):
    # the arms share one draw, so the SE must carry their correlation: the
    # spread of the log ratio over seeds is what the mean reported SE says
    cfg = make_config()
    ratios = [dh.oracle_rr(cfg, x, 0.0, 20_000, seed, 10.0) for seed in range(200)]
    spread = np.std([math.log(r.ratio) for r in ratios], ddof=1)
    assert 0.8 <= spread / np.mean([r.log_standard_error for r in ratios]) <= 1.25


def test_paired_paf_se_matches_spread_over_seeds(backdoor_config):
    values, ses = zip(*(oracle_paf(backdoor_config, 20_000, seed, 10.0) for seed in range(200)))
    assert 0.8 <= np.std(values, ddof=1) / np.mean(ses) <= 1.25


def test_oracle_paf_positive_for_harmful_exposure(backdoor_config):
    value, se = oracle_paf(backdoor_config, 400_000, 43, 10.0)
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


def test_approx_report_holds_one_cohort_sized_column(backdoor_fit):
    n = 200_000
    cohort = dh.generate(make_backdoor_config(n_subjects=n))
    results = []
    # generate's covariates are row-major, a loaded cohort's column-major
    for dataset in (cohort, as_loaded(cohort)):
        dh.approx_error_report(backdoor_fit, dataset, 10.0)  # first-call allocations
        tracemalloc.start()
        try:
            results.append(dh.approx_error_report(backdoor_fit, dataset, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n-length float64 column is 1.6 MB; a copy of the cohort's
        # covariates would add 3.2 MB, and exp(eta) or H beside eta 1.6 MB
        assert peak < 8 * n + 64 * 1024
    # the linear predictor is summed column by column, so the layout moves no bit
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "arm",
    [
        lambda cfg, n: dh.simulate_do(cfg, 1.0, n, 7, 10.0),
        lambda cfg, n: simulate_factual(cfg, n, 7, 10.0),
    ],
    ids=["do", "factual"],
)
def test_oracle_arms_reject_empty_draw(backdoor_config, arm):
    with pytest.raises(dh.InvalidArgumentError, match="^n must be >= 1, got -1$"):
        arm(backdoor_config, -1)


def traced_peak(call, n):
    call(1_000)  # first-call allocations
    tracemalloc.start()
    try:
        call(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_do_streams_in_blocks(backdoor_config):
    # one 200k-subject float64 column alone is 1.6 MB
    assert traced_peak(lambda n: dh.simulate_do(backdoor_config, 1.0, n, 7, 10.0), 200_000) < 2_000_000


def test_event_counts_stream_in_blocks(backdoor_config):
    xs, ts, pairs = [2.0, 1.0, 0.0, -1.0], [2.5, 5.0, 7.5, 10.0], [(1.0, 0.0), (-1.0, 0.0), (None, 0.0)]
    assert traced_peak(lambda n: _event_counts(backdoor_config, n, 7, 0, xs, ts, pairs), 200_000) < 2_000_000


@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_oracle_counts_equal_scm_columns(make_config):
    cfg = make_config()
    n, seed, t = 3 * _BLOCK + 5, 19, 7.5

    do = dh.simulate_do(cfg, 1.0, n, seed, t, stream_offset=16)
    failure = draw_scm(cfg, n, seed, 16, x_forced=1.0)[3]
    assert do.incidence == np.mean(failure <= t) and do.n == n

    factual = simulate_factual(cfg, n, seed, t, stream_offset=48)
    failure = draw_scm(cfg, n, seed, 48)[3]
    assert factual.incidence == np.mean(failure <= t) and factual.n == n


@st.composite
def oracle_requests(draw):
    """A scenario and one offset's request: x values (None: the factual
    arm) with duplicates and in any order, several horizons, and pairs of
    those x values."""
    hazard = draw(st.sampled_from([dh.ExponentialHazard(0.002), dh.ExponentialHazard(0.05), dh.WeibullHazard(1.5, 20.0)]))
    if draw(st.booleans()):
        z_dist = dh.BernoulliZ(draw(st.floats(0.0, 1.0))) if draw(st.booleans()) else dh.StandardNormalZ()
        config = make_backdoor_config(baseline_hazard=hazard, z_dist=z_dist)
    else:
        config = make_frontdoor_config(baseline_hazard=hazard)
    xs = draw(st.lists(st.none() | st.sampled_from([-1.0, 0.0, 1.0, 2.0]) | st.floats(-3.0, 3.0), min_size=1, max_size=6))
    ts = draw(st.lists(st.sampled_from([2.5, 10.0]) | st.floats(0.01, 10.0), min_size=1, max_size=4))
    n = draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(xs)), max_size=4))
    return config, n, draw(st.integers(0, 2**32)), draw(st.sampled_from([0, 16, 32, 48, 7])), xs, ts, pairs


@settings(max_examples=40, deadline=None)
@given(oracle_requests())
def test_event_counts_equal_one_arm_draws(case):
    # one draw of an offset's noise must count every (x, t) as a draw of
    # that arm alone does, and every pair's joint failures as the two arms'
    # draws do
    config, n, seed, offset, xs, ts, pairs = case
    counts = _event_counts(config, n, seed, offset, xs, ts, pairs)
    assert set(counts) == {(x, t) for x in xs for t in ts} | {(x, x0, t) for x, x0 in pairs for t in ts}
    failures = {x: draw_scm(config, n, seed, offset, x_forced=x)[3] for x in xs}
    for x, failure in failures.items():
        for t in ts:
            assert counts[x, t] == np.count_nonzero(failure <= t), (x, t)
    for x, x0 in pairs:
        for t in ts:
            assert counts[x, x0, t] == np.count_nonzero((failures[x] <= t) & (failures[x0] <= t)), (x, x0, t)


def test_event_counts_check_every_argument_before_drawing(backdoor_config, monkeypatch):
    opened = []
    monkeypatch.setattr(dh.RngStream, "__init__", lambda self, *args: opened.append(args))
    with pytest.raises(dh.InvalidArgumentError, match="^x_value must be finite, got nan$"):
        _event_counts(backdoor_config, 1_000, 7, 0, [1.0, None, 2.0, math.nan], [5.0])
    with pytest.raises(dh.InvalidArgumentError, match=r"^t must lie in \(0, horizon_t=10.0\], got 10.5$"):
        _event_counts(backdoor_config, 1_000, 7, 0, [1.0, 2.0], [5.0, 10.5])
    with pytest.raises(dh.InvalidArgumentError, match="^x_value must be finite, got inf$"):
        _event_counts(backdoor_config, 1_000, 7, 0, [1.0], [5.0], [(None, math.inf)])
    with pytest.raises(dh.InvalidArgumentError, match="^x_value must be finite, got inf$"):
        dh.oracle_rr(backdoor_config, 1.0, math.inf, 1_000, 7, 10.0)
    with pytest.raises(dh.InvalidArgumentError, match="^x_value must be finite, got nan$"):
        oracle_paf(backdoor_config, 1_000, 7, 10.0, x0=math.nan)
    assert opened == []
