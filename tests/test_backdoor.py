import math
import tracemalloc

import numpy as np
import pytest

import dohazard as dh
from dohazard.stats import _BLOCK

from conftest import make_backdoor_config, make_tiny_dataset
from truth import GaussianSpec, gaussian_exponential_moment, whole_array_eta


def hand_fit(beta, names, knots, values, covariance=None):
    return dh.CoxFit(
        beta=np.asarray(beta, dtype=float),
        covariance=np.eye(len(names)) * 0.01 if covariance is None else np.asarray(covariance, dtype=float),
        covariate_names=list(names),
        baseline_cumhaz=dh.StepFunction(knots=knots, values=values),
        n=100,
        n_events=10,
        log_likelihood=-1.0,
        converged=True,
        iterations=3,
        final_score_norm=0.0,
    )


def adjusting(*z_columns):
    """A summary that only names the adjustment columns, for causal_rr."""
    return dh.BackdoorSummary(
        a_z=1.0, mean_joint_risk=1.0, horizon_t=1.0, max_cumhaz=0.0, rarity_flag=False, z_columns=z_columns
    )


def two_column_dataset(x, z):
    n = len(x)
    return make_tiny_dataset(np.linspace(1.0, 2.0, n), np.ones(n, dtype=int), x, z)


def test_az_is_one_for_baseline_population():
    fit = hand_fit([0.3, 0.7], ["x", "z"], [1.0], [0.05])
    ds = two_column_dataset(np.linspace(-1, 1, 40), np.zeros(40))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    assert summary.a_z == 1.0
    assert summary.z_columns == ("z",)


def test_az_two_point_expectation():
    fit = hand_fit([0.3, math.log(2.0)], ["x", "z"], [1.0], [0.05])
    ds = two_column_dataset(np.linspace(-1, 1, 100), np.tile([0.0, 1.0], 50))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    assert summary.a_z == pytest.approx(1.5, rel=1e-14)


def test_az_matches_gaussian_moment():
    beta_z = 0.4
    fit = hand_fit([0.2, beta_z], ["x", "z"], [1.0], [0.05])
    z = dh.RngStream(17, 1).normal(size=100_000)
    x = dh.RngStream(17, 2).normal(size=100_000)
    ds = two_column_dataset(x, z)
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    want = gaussian_exponential_moment(beta_z, GaussianSpec(0.0, 1.0))
    assert summary.a_z == pytest.approx(want, rel=0.02)


def test_az_respects_jensen_bound():
    rng = np.random.default_rng(55)
    for _ in range(10):
        beta_z = float(rng.normal(scale=0.8))
        fit = hand_fit([0.1, beta_z], ["x", "z"], [1.0], [0.05])
        z = rng.normal(size=500)
        ds = two_column_dataset(rng.normal(size=500), z)
        summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
        assert summary.a_z >= math.exp(beta_z * float(z.mean())) * (1.0 - 1e-12)


def test_az_unknown_column():
    fit = hand_fit([0.3, 0.7], ["x", "z"], [1.0], [0.05])
    ds = two_column_dataset(np.linspace(-1, 1, 10), np.zeros(10))
    with pytest.raises(dh.InvalidArgumentError):
        dh.compute_az(ds, fit, ["w"], horizon_t=1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.compute_az(ds, fit, ["z"], horizon_t=-1.0)


def test_az_refuses_a_repeated_column(backdoor_dataset, backdoor_fit):
    # a repeated column doubled its term in eta_z, and a_z with it
    with pytest.raises(dh.InvalidArgumentError, match="^adjustment column 'z' is named more than once$"):
        dh.compute_az(backdoor_dataset, backdoor_fit, ["z", "z"], horizon_t=10.0)


def test_az_default_horizon_is_last_event(backdoor_dataset, backdoor_fit):
    summary = dh.compute_az(backdoor_dataset, backdoor_fit, ["z"])
    assert summary.horizon_t == float(backdoor_fit.baseline_cumhaz.knots[-1])


def test_summary_diagnostics(backdoor_summary, backdoor_dataset, backdoor_fit):
    s = backdoor_summary
    assert s.horizon_t == 10.0
    # max_cumhaz is the worst per-subject model cumhaz at the horizon
    eta = backdoor_dataset.covariates @ backdoor_fit.beta
    want = float(np.max(np.exp(eta))) * backdoor_fit.baseline_cumhaz(10.0)
    assert s.max_cumhaz == pytest.approx(want, rel=1e-12)
    assert s.rarity_flag == (s.max_cumhaz > 0.1)
    assert s.a_z > 1.0  # Jensen: E exp > exp E for nondegenerate z
    assert s.mean_joint_risk > s.a_z * 0.5


def test_do_cdf_baseline_is_h0():
    fit = hand_fit([0.3, 0.7], ["x", "z"], [1.0, 2.0], [0.02, 0.05])
    ds = two_column_dataset(np.linspace(-1, 1, 40), np.zeros(40))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=2.0)
    est = dh.do_cdf(fit, summary, [0.0], 1.5)
    assert est.value == 0.02
    assert est.method == "do_cdf"
    assert not est.rarity_flag
    assert dh.do_cdf(fit, summary, [0.0], 0.5).value == 0.0


def test_do_cdf_rejects_negative_t(backdoor_fit, backdoor_summary):
    with pytest.raises(dh.InvalidArgumentError):
        dh.do_cdf(backdoor_fit, backdoor_summary, [1.0], -0.1)


@pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
def test_horizon_must_be_finite_and_nonnegative(backdoor_dataset, backdoor_fit, backdoor_summary, t):
    # one rule for every reader of the baseline; NaN used to read its last knot
    message = f"must be finite and >= 0, got {t}"
    with pytest.raises(dh.InvalidArgumentError, match=f"^t {message}$"):
        dh.do_cdf(backdoor_fit, backdoor_summary, [1.0], t)
    with pytest.raises(dh.InvalidArgumentError, match=f"^t {message}$"):
        dh.do_cumhaz(backdoor_fit, backdoor_summary, [1.0], t)
    with pytest.raises(dh.InvalidArgumentError, match=f"^t {message}$"):
        dh.approx_error_report(backdoor_fit, backdoor_dataset, t)
    with pytest.raises(dh.InvalidArgumentError, match=f"^horizon_t {message}$"):
        dh.compute_az(backdoor_dataset, backdoor_fit, ["z"], horizon_t=t)


def test_do_cdf_flag_triggers_strictly_above_threshold():
    fit = hand_fit([0.3, 0.7], ["x", "z"], [1.0, 2.0, 3.0], [0.05, 0.1, 0.100001])
    ds = two_column_dataset(np.linspace(-1, 1, 40), np.zeros(40))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    assert not dh.do_cdf(fit, summary, [0.0], 1.0).rarity_flag
    assert not dh.do_cdf(fit, summary, [0.0], 2.0).rarity_flag  # exactly 0.1
    assert dh.do_cdf(fit, summary, [0.0], 3.0).rarity_flag


def test_do_cdf_reference_vs_oracle(backdoor_config, backdoor_fit, backdoor_summary):
    est = dh.do_cdf(backdoor_fit, backdoor_summary, [1.0], 10.0)
    oracle = dh.simulate_do(backdoor_config, 1.0, 400_000, 1717, 10.0)
    assert abs(est.value - oracle.incidence) / oracle.incidence <= 0.10


def test_causal_rr_identity_contrast(backdoor_fit, backdoor_summary):
    est = dh.causal_rr(backdoor_fit, backdoor_summary, [1.3], [1.3])
    assert est.value == 1.0
    assert est.std_err == 0.0


def test_causal_rr_scalar_doubling():
    fit = hand_fit([math.log(2.0), 0.9], ["x", "z"], [1.0], [0.05])
    est = dh.causal_rr(fit, adjusting("z"), [1.0], [0.0])
    assert est.value == pytest.approx(2.0, rel=1e-15)


def test_causal_rr_log_antisymmetry(backdoor_fit, backdoor_summary):
    fwd = dh.causal_rr(backdoor_fit, backdoor_summary, [1.7], [0.4])
    rev = dh.causal_rr(backdoor_fit, backdoor_summary, [0.4], [1.7])
    assert fwd.value * rev.value == pytest.approx(1.0, rel=1e-14)


def test_causal_rr_independent_of_z_coefficient(backdoor_fit, backdoor_summary):
    base = dh.causal_rr(backdoor_fit, backdoor_summary, [1.0], [0.0])
    perturbed_beta = backdoor_fit.beta.copy()
    perturbed_beta[backdoor_fit.covariate_names.index("z")] += 0.37
    perturbed = dh.CoxFit(
        beta=perturbed_beta,
        covariance=backdoor_fit.covariance,
        covariate_names=backdoor_fit.covariate_names,
        baseline_cumhaz=backdoor_fit.baseline_cumhaz,
        n=backdoor_fit.n,
        n_events=backdoor_fit.n_events,
        log_likelihood=backdoor_fit.log_likelihood,
        converged=True,
        iterations=backdoor_fit.iterations,
        final_score_norm=backdoor_fit.final_score_norm,
    )
    assert dh.causal_rr(perturbed, backdoor_summary, [1.0], [0.0]).value == base.value


def test_causal_rr_roles_ignore_x_prefix():
    # an adjustment column named like an exposure stays an adjustment column,
    # and an exposure with any name is contrasted
    fit = hand_fit([math.log(2.0), 0.4], ["exposure", "xage"], [1.0], [0.05])
    est = dh.causal_rr(fit, adjusting("xage"), [1.0], [0.0])
    assert est.value == pytest.approx(2.0, rel=1e-15)


def test_causal_rr_argument_checks(backdoor_fit, backdoor_summary):
    with pytest.raises(dh.InvalidArgumentError):
        dh.causal_rr(backdoor_fit, backdoor_summary, [1.0, 2.0], [0.0])
    with pytest.raises(dh.InvalidArgumentError, match="no exposure columns"):
        dh.causal_rr(backdoor_fit, adjusting("x", "z"), [], [])


def test_causal_rr_multivariate_delta_se():
    cov = np.array([
        [0.04, 0.01, 0.0],
        [0.01, 0.09, 0.0],
        [0.0, 0.0, 0.25],
    ])
    fit = hand_fit([0.2, -0.5, 0.9], ["x1", "x2", "z"], [1.0], [0.05], covariance=cov)
    est = dh.causal_rr(fit, adjusting("z"), [1.0, 2.0], [0.0, 1.0])
    log_rr = 0.2 * 1.0 + (-0.5) * 1.0
    var_log = 0.04 + 0.09 + 2 * 0.01
    assert est.value == pytest.approx(math.exp(log_rr), rel=1e-15)
    assert est.std_err == pytest.approx(est.value * math.sqrt(var_log), rel=1e-12)


def test_do_cdf_ratio_matches_causal_rr(backdoor_fit, backdoor_summary):
    # float rounding keeps this at the 1e-13 level rather than bit-exact
    rr = dh.causal_rr(backdoor_fit, backdoor_summary, [1.3], [0.2]).value
    for t in (5.0, 10.0):
        num = dh.do_cdf(backdoor_fit, backdoor_summary, [1.3], t).value
        den = dh.do_cdf(backdoor_fit, backdoor_summary, [0.2], t).value
        assert num / den == pytest.approx(rr, rel=1e-13)


def test_do_cumhaz():
    fit = hand_fit([math.log(2.0), 0.4], ["x", "z"], [1.0, 2.0, 3.0], [0.01, 0.04, 0.09])
    ds = two_column_dataset(np.linspace(-1, 1, 40), np.zeros(40))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=3.0)
    assert dh.do_cumhaz(fit, summary, [0.0], 2.5) == 0.04
    assert dh.do_cumhaz(fit, summary, [1.0], 2.5) == pytest.approx(0.08, rel=1e-15)


def test_paf_zero_when_everyone_at_reference():
    fit = hand_fit([0.8, 0.5], ["x", "z"], [1.0], [0.05])
    z = np.linspace(-2, 2, 60)
    ds = two_column_dataset(np.zeros(60), z)
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    assert dh.paf(fit, summary) == 0.0


def test_paf_two_point_exposure():
    fit = hand_fit([math.log(2.0), 0.5], ["x", "z"], [1.0], [0.05])
    ds = two_column_dataset(np.tile([0.0, 1.0], 50), np.zeros(100))
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    assert dh.paf(fit, summary) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # protective reference exposure gives a negative attributable fraction
    assert dh.paf(fit, summary, x0=[1.0]) == pytest.approx(-1.0 / 3.0, rel=1e-13)


def test_naive_rr_single_covariate(backdoor_dataset):
    est = dh.naive_rr(backdoor_dataset, "x", 1.0, 0.0)
    assert est.method == "naive_rr"
    assert est.value > 1.0
    assert est.std_err > 0.0


def test_compute_az_holds_one_cohort_sized_column(backdoor_fit):
    n = 200_000
    dataset = dh.generate(make_backdoor_config(n_subjects=n))
    dh.compute_az(dataset, backdoor_fit, ["z"])  # first-call allocations
    tracemalloc.start()
    try:
        dh.compute_az(dataset, backdoor_fit, ["z"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n-length float64 column is 1.6 MB; a copy of the cohort's
    # covariates would add 3.2 MB, and exp(eta) beside eta 1.6 MB
    assert peak < 8 * n + 64 * 1024


@pytest.mark.parametrize("z_columns", [["z"], []])
@pytest.mark.parametrize("n", [129, 2 * _BLOCK + 8, 50_001])
def test_compute_az_has_the_bits_of_whole_array_means(backdoor_fit, n, z_columns):
    cohort = dh.generate(make_backdoor_config(n_subjects=n))
    beta_z = backdoor_fit.beta[[backdoor_fit.covariate_names.index(c) for c in z_columns]]
    joint_risk = np.exp(whole_array_eta(cohort, backdoor_fit.covariate_names, backdoor_fit.beta))
    want = (
        float(np.mean(joint_risk)),
        float(np.max(joint_risk) * backdoor_fit.baseline_cumhaz(10.0)),
        float(np.mean(np.exp(whole_array_eta(cohort, z_columns, beta_z)))),
    )
    s = dh.compute_az(cohort, backdoor_fit, z_columns, horizon_t=10.0)
    assert [v.hex() for v in (s.mean_joint_risk, s.max_cumhaz, s.a_z)] == [v.hex() for v in want]
    if not z_columns:
        assert s.a_z == 1.0


def test_compute_az_holds_no_cohort_sized_array(backdoor_fit):
    # one 200k-row float64 column is 1.6 MB; the bound is a few _BLOCK-row
    # temporaries and does not grow with n
    dataset = dh.generate(make_backdoor_config(n_subjects=200_000))
    dh.compute_az(dataset, backdoor_fit, ["z"])  # first-call allocations
    tracemalloc.start()
    try:
        dh.compute_az(dataset, backdoor_fit, ["z"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * _BLOCK
