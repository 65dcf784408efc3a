import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard import cox
from dohazard.cox import _BLOCK, _breslow, _head_sums, _nlpl, _prepared, breslow_baseline, neg_log_partial_likelihood

from conftest import make_backdoor_config, make_frontdoor_config, make_tiny_dataset


def three_subject_fixture():
    # distinct event times, binary covariate; optimum solves 2u^2 = 1 for u = e^beta
    return make_tiny_dataset([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 0.0, 1.0])


def hand_nlpl(dataset, beta):
    """Direct O(n^2) Breslow partial likelihood, no shared code."""
    beta = np.asarray(beta, dtype=float)
    eta = dataset.covariates @ beta
    total = 0.0
    for i in range(dataset.n):
        if not dataset.event[i]:
            continue
        risk = dataset.time >= dataset.time[i]
        total += float(eta[i]) - math.log(float(np.exp(eta[risk]).sum()))
    return -total


def test_nlpl_null_value():
    ds = three_subject_fixture()
    value, gradient, hessian = neg_log_partial_likelihood(ds, [0.0])
    assert value == pytest.approx(math.log(6.0), rel=1e-15)
    assert gradient.shape == (1,)
    assert hessian.shape == (1, 1)


def test_nlpl_single_subject_is_zero():
    ds = make_tiny_dataset([1.0], [1], [2.5])
    for beta in (-1.0, 0.0, 0.7):
        value, _, _ = neg_log_partial_likelihood(ds, [beta])
        assert value == pytest.approx(0.0, abs=1e-12)


def test_nlpl_matches_direct_computation():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        ds = make_tiny_dataset(
            rng.uniform(0.1, 5.0, n),
            rng.integers(0, 2, n) | (np.arange(n) == 0),  # at least one event
            rng.normal(size=n),
            rng.normal(size=n),
        )
        beta = rng.normal(scale=0.5, size=2)
        value, _, _ = neg_log_partial_likelihood(ds, beta)
        assert value == pytest.approx(hand_nlpl(ds, beta), rel=1e-12)


def test_nlpl_ties_share_risk_set():
    ds = make_tiny_dataset([1.0, 1.0, 2.0], [1, 1, 1], [1.0, 0.0, 2.0])
    beta = 0.3
    s = math.exp(0.3) + 1.0 + math.exp(0.6)
    want = -((0.3 - math.log(s)) + (0.0 - math.log(s)) + (0.6 - 0.6))
    value, _, _ = neg_log_partial_likelihood(ds, [beta])
    assert value == pytest.approx(want, rel=1e-14)


def test_gradient_hessian_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(5, 50))
        ds = make_tiny_dataset(
            rng.uniform(0.1, 5.0, n),
            rng.integers(0, 2, n) | (np.arange(n) == 0),
            rng.normal(size=n),
            rng.normal(size=n),
        )
        beta = rng.normal(scale=0.5, size=2)
        value, gradient, hessian = neg_log_partial_likelihood(ds, beta)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            vp, gp, _ = neg_log_partial_likelihood(ds, beta + e)
            vm, gm, _ = neg_log_partial_likelihood(ds, beta - e)
            fd_grad = (vp - vm) / (2.0 * h)
            assert fd_grad == pytest.approx(gradient[j], rel=1e-5, abs=1e-7)
            fd_hess = (gp - gm) / (2.0 * h)
            assert fd_hess == pytest.approx(hessian[:, j], rel=1e-5, abs=1e-6)


def test_three_subject_estimate():
    ds = three_subject_fixture()
    fit = dh.fit_cox(ds)
    assert fit.converged
    assert fit.coef("x") == pytest.approx(-0.5 * math.log(2.0), abs=1e-8)
    # grid search of the hand-derived objective agrees:
    # risk sets give nlpl(b) = ln(2e^b + 1) + ln(e^b + 1) - b
    grid = np.arange(-3.0, 3.0 + 1e-4, 1e-4)
    values = np.log(2.0 * np.exp(grid) + 1.0) + np.log(1.0 + np.exp(grid)) - grid
    assert grid[int(np.argmin(values))] == pytest.approx(fit.coef("x"), abs=1e-4)


def test_nelson_aalen_fixture():
    ds = three_subject_fixture()
    base = breslow_baseline(ds, [0.0])
    assert np.array_equal(base.knots, [1.0, 2.0, 3.0])
    # at beta = 0 the increments are exactly 1/3, 1/2, 1/1
    assert np.array_equal(base.values, np.cumsum([1.0 / 3.0, 1.0 / 2.0, 1.0]))
    assert base.values == pytest.approx([1.0 / 3.0, 5.0 / 6.0, 11.0 / 6.0], rel=1e-15)


def test_breslow_single_event():
    ds = make_tiny_dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 0, 0, 0], [0.5, -1.0, 0.2, 0.0, 1.0])
    base = breslow_baseline(ds, [0.0])
    assert base(1.0) == pytest.approx(1.0 / 5.0, rel=1e-15)
    assert base(0.999) == 0.0
    assert base(100.0) == base(1.0)


def test_breslow_tied_increment():
    ds = make_tiny_dataset([1.0, 1.0, 2.0], [1, 1, 1], [0.0, 1.0, 2.0])
    base = breslow_baseline(ds, [0.0])
    assert np.array_equal(base.knots, [1.0, 2.0])
    assert base.values == pytest.approx([2.0 / 3.0, 5.0 / 3.0], rel=1e-15)


def test_breslow_recovers_constant_hazard():
    cfg = make_backdoor_config(
        n_subjects=100_000,
        seed=21,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.0),
    )
    ds = dh.generate(cfg)
    base = breslow_baseline(ds, [0.0, 0.0])
    assert base(10.0) == pytest.approx(0.002 * 10.0, rel=0.05)


def test_fit_reference_recovery(backdoor_fit):
    fit = backdoor_fit
    assert fit.converged
    assert fit.final_score_norm <= 1e-9
    assert fit.iterations <= 10
    assert abs(fit.coef("x") - 0.3) < 3.0 * fit.std_err("x")
    assert abs(fit.coef("z") - 0.4) < 3.0 * fit.std_err("z")
    assert fit.n == 100_000
    assert fit.n_events == 2460
    cov = fit.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.diag(cov) > 0)


def test_fit_null_coefficients():
    cfg = make_backdoor_config(
        n_subjects=50_000,
        seed=31,
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.0),
    )
    fit = dh.fit_cox(dh.generate(cfg))
    for name in ("x", "z"):
        assert abs(fit.coef(name)) < 4.0 * fit.std_err(name)


def test_fit_permutation_invariance(backdoor_dataset):
    sub = dh.Dataset(
        time=backdoor_dataset.time[:5000],
        event=backdoor_dataset.event[:5000],
        covariates=backdoor_dataset.covariates[:5000],
        covariate_names=["x", "z"],
    )
    perm = np.random.default_rng(0).permutation(5000)
    shuffled = dh.Dataset(
        time=sub.time[perm],
        event=sub.event[perm],
        covariates=sub.covariates[perm],
        covariate_names=["x", "z"],
    )
    f1 = dh.fit_cox(sub)
    f2 = dh.fit_cox(shuffled)
    assert np.max(np.abs(f1.beta - f2.beta)) <= 1e-12
    assert np.array_equal(f1.baseline_cumhaz.knots, f2.baseline_cumhaz.knots)
    assert np.max(np.abs(f1.baseline_cumhaz.values - f2.baseline_cumhaz.values)) <= 1e-12


def test_fit_scaling_invariance(backdoor_dataset):
    sub = dh.Dataset(
        time=backdoor_dataset.time[:5000],
        event=backdoor_dataset.event[:5000],
        covariates=backdoor_dataset.covariates[:5000].copy(),
        covariate_names=["x", "z"],
    )
    scaled_cov = sub.covariates.copy()
    scaled_cov[:, 0] *= 10.0
    scaled = dh.Dataset(
        time=sub.time, event=sub.event, covariates=scaled_cov, covariate_names=["x", "z"]
    )
    f1 = dh.fit_cox(sub)
    f2 = dh.fit_cox(scaled)
    assert f2.coef("x") == pytest.approx(f1.coef("x") / 10.0, rel=1e-8)
    assert f2.coef("z") == pytest.approx(f1.coef("z"), rel=1e-8)
    for i in range(5):
        lp1 = float(f1.beta @ sub.covariates[i])
        lp2 = float(f2.beta @ scaled.covariates[i])
        assert lp2 == pytest.approx(lp1, rel=1e-8, abs=1e-10)


def test_step_function_semantics():
    f = dh.StepFunction(knots=[1.0, 2.0], values=[0.1, 0.3])
    assert f(0.5) == 0.0
    assert f(1.0) == 0.1  # right continuous: jump included at the knot
    assert f(1.5) == 0.1
    assert f(2.0) == 0.3
    assert f(99.0) == 0.3
    assert np.array_equal(f([0.0, 1.0, 3.0]), [0.0, 0.1, 0.3])
    with pytest.raises(dh.InvalidArgumentError):
        dh.StepFunction(knots=[2.0, 1.0], values=[0.1, 0.3])
    with pytest.raises(dh.InvalidArgumentError):
        dh.StepFunction(knots=[1.0], values=[0.1, 0.3])
    with pytest.raises(dh.InvalidArgumentError, match="knots must not be empty"):
        dh.StepFunction(knots=[], values=[])


def test_fit_rejects_no_events():
    ds = make_tiny_dataset([1.0, 2.0], [0, 0], [0.0, 1.0])
    with pytest.raises(dh.NoEventsError):
        dh.fit_cox(ds)


def test_fit_rejects_repeated_covariate_names():
    ds = make_tiny_dataset([1.0, 2.0, 3.0], [1, 0, 1], [0.0, 1.0, 0.5], [0.3, 0.1, 0.2])
    for names in (["x", "x"], ["z", "x", "z"]):
        with pytest.raises(dh.InvalidArgumentError, match=f"covariate '{names[-1]}' is named more than once"):
            dh.fit_cox(ds, names)
    with pytest.raises(dh.InvalidArgumentError, match="named more than once"):
        neg_log_partial_likelihood(ds, [0.1, 0.1], ["x", "x"])


def test_fit_rejects_constant_covariate():
    ds = make_tiny_dataset([1.0, 2.0, 3.0], [1, 1, 0], [0.5, 0.5, 0.5])
    with pytest.raises(dh.DegenerateCovariateError, match="'x'"):
        dh.fit_cox(ds)


def test_fit_detects_separation():
    # covariate perfectly ordered against event time: likelihood is monotone,
    # and the small covariate scale forces the coefficient past the guard
    ds = make_tiny_dataset([1.0, 2.0], [1, 1], [0.1, 0.0])
    with pytest.raises(dh.MonotoneLikelihoodError, match="'x'"):
        dh.fit_cox(ds)


def test_fit_detects_separation_where_the_score_underflows():
    # ten subjects tied at t=0.5, one event at the lowest covariate: the
    # likelihood rises toward beta = -inf, and near beta = -21 the score
    # drops below tol while the Newton step is still a full unit
    ds = make_tiny_dataset([0.5] * 10, [1] + [0] * 9, np.arange(10.0))
    with pytest.raises(dh.MonotoneLikelihoodError, match="'x'"):
        dh.fit_cox(ds)


def test_fit_detects_collinearity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    ds = dh.Dataset(
        time=rng.uniform(0.5, 3.0, 30),
        event=np.ones(30, dtype=int),
        covariates=np.column_stack([x, x]),
        covariate_names=["x", "x_copy"],
    )
    with pytest.raises(dh.NumericalError, match="singular"):
        dh.fit_cox(ds)


def test_nlpl_overflow_advises_rescaling():
    ds = make_tiny_dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 1.0, 2.0])
    with pytest.raises(dh.NumericalError, match="rescale"):
        neg_log_partial_likelihood(ds, [600.0])


def test_nlpl_checks_arguments():
    ds = three_subject_fixture()
    with pytest.raises(dh.InvalidArgumentError):
        neg_log_partial_likelihood(ds, [0.0, 0.0])
    with pytest.raises(dh.InvalidArgumentError):
        dh.fit_cox(ds, ["nope"])


def test_fit_max_iter_reports_not_converged(backdoor_dataset):
    sub = dh.Dataset(
        time=backdoor_dataset.time[:3000],
        event=backdoor_dataset.event[:3000],
        covariates=backdoor_dataset.covariates[:3000],
        covariate_names=["x", "z"],
    )
    fit = dh.fit_cox(sub, max_iter=1)
    assert fit.iterations == 1
    assert not fit.converged


def test_linear_predictor_and_prediction():
    base = dh.StepFunction(knots=[1.0, 2.0], values=[0.1, 0.3])
    fit = dh.CoxFit(
        beta=np.array([math.log(2.0)]),
        covariance=np.eye(1),
        covariate_names=["x"],
        baseline_cumhaz=base,
        n=10,
        n_events=5,
        log_likelihood=-1.0,
        converged=True,
        iterations=3,
        final_score_norm=0.0,
    )
    # with an empty adjustment set a_z = 1, so do_cumhaz is the model's
    # cumulative hazard exp(beta . x) * H0(t) at one covariate vector
    summary = dh.compute_az(make_tiny_dataset([1.0, 2.0], [1, 1], [0.5, -0.5]), fit, [], horizon_t=2.0)
    assert summary.a_z == 1.0
    assert dh.do_cumhaz(fit, summary, [0.0], 1.5) == 0.1
    assert dh.do_cumhaz(fit, summary, [1.0], 1.5) == pytest.approx(0.2, rel=1e-15)
    assert dh.do_cumhaz(fit, summary, [1.0], 0.5) == 0.0
    with pytest.raises(dh.InvalidArgumentError):
        dh.do_cumhaz(fit, summary, [1.0], -1.0)
    with pytest.raises(dh.InvalidArgumentError):
        dh.do_cumhaz(fit, summary, [1.0, 2.0], 1.5)

    # the baseline is anchored at the zero vector: the linear predictor is beta . x
    assert dh.do_cumhaz(fit, summary, [1.0], 2.0) == math.exp(math.log(2.0)) * 0.3
    assert dh.do_cumhaz(fit, summary, [-2.0], 2.0) == math.exp(-2.0 * math.log(2.0)) * 0.3


def test_fit_save_load_roundtrip(tmp_path):
    ds = dh.generate(make_backdoor_config(n_subjects=800, seed=5))
    fit = dh.fit_cox(ds)
    path = tmp_path / "fit.json"
    dh.save_fit(fit, path)
    back = dh.load_fit(path)
    assert np.array_equal(back.beta, fit.beta)
    assert np.array_equal(back.covariance, fit.covariance)
    assert back.covariate_names == fit.covariate_names
    assert np.array_equal(back.baseline_cumhaz.knots, fit.baseline_cumhaz.knots)
    assert np.array_equal(back.baseline_cumhaz.values, fit.baseline_cumhaz.values)
    assert "baseline_x0" not in json.loads(path.read_text())
    assert (back.n, back.n_events, back.converged, back.iterations) == (
        fit.n, fit.n_events, fit.converged, fit.iterations,
    )
    assert back.log_likelihood == fit.log_likelihood
    assert back.final_score_norm == fit.final_score_norm


def test_load_fit_errors(tmp_path):
    path = tmp_path / "fit.json"
    path.write_text("{ not json\n")
    with pytest.raises(dh.ParseError):
        dh.load_fit(path)
    path.write_text("5\n")
    with pytest.raises(dh.ValidationError, match="must be a JSON object"):
        dh.load_fit(path)
    ds = dh.generate(make_backdoor_config(n_subjects=300, seed=6))
    dh.save_fit(dh.fit_cox(ds), path)
    good = json.loads(path.read_text())

    def load_with(**changes):
        raw = {**good, **changes}
        path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
        return dh.load_fit(path)

    with pytest.raises(dh.ValidationError, match="covariance"):
        load_with(covariance=None)
    (v00, _), (_, v11) = good["covariance"]
    bad_fields = [
        ("beta", "abc"),
        ("beta", [0.3]),
        ("beta", [0.3, True]),
        ("beta", [0.3, 10**400]),
        ("covariance", [[1.0, 0.0]]),
        ("covariance", [[1.0, 0.0], [0.0]]),
        ("baseline_values", good["baseline_values"][:-1]),
        ("baseline_knots", "abc"),
        ("baseline_knots", good["baseline_knots"][::-1]),
        ("baseline_x0", [1.0, 1.0]),
        ("covariate_names", []),
        ("n", "abc"),
        ("n_events", 2.5),
        ("iterations", "3"),
        ("log_likelihood", "x"),
        ("final_score_norm", [1.0]),
        ("converged", "false"),
        # a baseline that is not a cumulative hazard: negative, or decreasing
        ("baseline_values", [-v for v in good["baseline_values"]]),
        ("baseline_values", good["baseline_values"][::-1]),
        # a NaN knot among floats, which finite_numbers checks in one pass
        ("baseline_knots", [math.nan] + good["baseline_knots"][1:]),
        # numbers no fit can hold
        ("covariance", [[-1.0, 0.0], [0.0, -1.0]]),
        # a covariance that is not symmetric, or is indefinite though its
        # variances are not negative
        ("covariance", [[v00, v00], [0.0, v11]]),
        ("covariance", [[v00, 1.0], [1.0, v11]]),
        ("n", 0),
        ("n_events", -5),
        ("n_events", good["n"] + 1),
        ("iterations", -1),
        ("covariate_names", ["x", "x"]),
    ]
    for key, value in bad_fields:
        with pytest.raises(dh.ValidationError, match=f"^{re.escape(str(path))}: .*field '{key}'"):
            load_with(**{key: value})
    with pytest.raises(dh.ValidationError, match=r"'covariance' must be symmetric, to 1e-12 \* max\|C\|"):
        load_with(covariance=[[v00, v00], [0.0, v11]])
    with pytest.raises(dh.ValidationError, match="'covariance' must be positive semidefinite"):
        load_with(covariance=[[v00, 1.0], [1.0, v11]])
    # rounding in a fitted covariance is no asymmetry
    nudged = [[v00, 1.0001e-12 * v00], [1e-12 * v00, v11]]
    assert load_with(covariance=nudged).covariance.tolist() == nudged
    # a baseline with no knots at all, values matching, names the knots
    with pytest.raises(dh.ValidationError, match="field 'baseline_knots' is invalid: knots must not be empty"):
        load_with(baseline_knots=[], baseline_values=[])
    # fit files written with the zero anchor key still load
    assert np.array_equal(load_with(baseline_x0=[0.0, 0.0]).beta, good["beta"])


# Property tests: small cohorts whose times come from a handful of values,
# so most event rows share their risk set with a tie group.

_TIED_TIMES = (0.5, 1.0, 1.5, 2.0, 3.0)
cox_settings = settings(max_examples=80, deadline=None)


@st.composite
def tied_cohorts(draw, min_n=2):
    """(dataset, beta): 1-3 normal covariates, at least one event."""
    n = draw(st.integers(min_n, 30))
    p = draw(st.integers(1, 3))
    time = draw(st.lists(st.sampled_from(_TIED_TIMES), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    event[draw(st.integers(0, n - 1))] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = dh.Dataset(
        time=np.array(time),
        event=np.array(event),
        covariates=rng.normal(size=(n, p)),
        covariate_names=[f"c{j}" for j in range(p)],
    )
    beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    return dataset, beta


def fitted(dataset, tol=1e-9):
    """fit_cox, discarding cohorts with no finite optimum: the fitter's own
    refusals (separation, collinearity, a constant column), and separated
    cohorts it does not refuse, where the objective stops changing in
    floating point before |beta| reaches the guard at 50 and the fit
    reports convergence at an arbitrary point of a flat likelihood."""
    try:
        fit = dh.fit_cox(dataset, tol=tol)
    except dh.NumericalError:
        assume(False)
    assume(np.max(np.abs(fit.beta)) < 10.0)
    return fit


def hand_breslow(dataset, beta):
    """Per-knot loop: events at the knot over the sum of exp(eta) over
    every subject still at risk there."""
    w = np.exp(dataset.covariates @ beta)
    knots = np.unique(dataset.time[dataset.event])
    increments = [np.sum(dataset.event & (dataset.time == k)) / w[dataset.time >= k].sum() for k in knots]
    return knots, np.cumsum(increments)


@cox_settings
@given(tied_cohorts())
def test_nlpl_matches_direct_computation_under_ties(case):
    dataset, beta = case
    value, _, _ = neg_log_partial_likelihood(dataset, beta)
    assert value == pytest.approx(hand_nlpl(dataset, beta), rel=1e-12)


@cox_settings
@given(tied_cohorts())
def test_breslow_matches_per_knot_loop(case):
    dataset, beta = case
    base = breslow_baseline(dataset, beta)
    knots, values = hand_breslow(dataset, beta)
    assert np.array_equal(base.knots, knots)
    np.testing.assert_allclose(base.values, values, rtol=1e-12, atol=0.0)


@cox_settings
@given(tied_cohorts(min_n=10))
def test_fit_baseline_is_breslow_at_fitted_beta(case):
    dataset, _ = case
    fit = fitted(dataset)
    base = breslow_baseline(dataset, fit.beta)
    assert fit.baseline_cumhaz.knots.tobytes() == base.knots.tobytes()
    assert fit.baseline_cumhaz.values.tobytes() == base.values.tobytes()


@cox_settings
@given(tied_cohorts(min_n=10), st.randoms(use_true_random=False))
def test_fit_beta_invariant_to_row_order(case, random):
    dataset, _ = case
    perm = np.array(random.sample(range(dataset.n), dataset.n))
    shuffled = dh.Dataset(
        time=dataset.time[perm],
        event=dataset.event[perm],
        covariates=dataset.covariates[perm],
        covariate_names=dataset.covariate_names,
    )
    # the stopping rule pins beta only to about tol over the smallest
    # information eigenvalue, so a row order can stop one step earlier;
    # a tight tol puts both fits on the optimum itself
    np.testing.assert_allclose(fitted(shuffled, 1e-13).beta, fitted(dataset, 1e-13).beta, rtol=1e-9, atol=1e-9)


@st.composite
def censored_cohorts(draw):
    """(time, event) of 1-60 rows: times from a handful of values or any in
    (0, 10], a share of them (none to all) censored at the horizon 10, and
    events anywhere, at the horizon too, with at least one."""
    n = draw(st.integers(1, 60))
    time = draw(st.lists(st.sampled_from(_TIED_TIMES) | st.floats(0.01, 10.0), min_size=n, max_size=n))
    at_horizon = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    time = [10.0 if draw(st.floats(0.0, 1.0)) < at_horizon else t for t in time]
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    event[draw(st.integers(0, n - 1))] = True
    return time, event


@settings(max_examples=150, deadline=None)
@given(censored_cohorts())
@example(([10.0] * 6, [True, False, True, False, False, True]))  # every row tied, events at the largest time
@example(([10.0, 2.0, 10.0, 10.0, 1.0, 10.0], [True, True, False, False, False, True]))  # most rows at the largest time
@example(([4.0, 1.0, 3.0, 2.0], [True, False, True, True]))  # no ties
@example(([3.0], [True]))  # one row
def test_prepared_sorts_as_a_stable_argsort(case):
    time, event = case
    n = len(time)
    covariates = np.stack([np.arange(n), -np.arange(n), np.ones(n)], axis=1)
    dataset = dh.Dataset(
        time=time,
        event=event,
        covariates=covariates,
        covariate_names=["row", "minus_row", "one"],
    )
    assert dataset.covariates.flags.f_contiguous
    order = np.argsort(dataset.time, kind="stable")
    t_s = dataset.time[order]
    want_ev = np.flatnonzero(dataset.event[order])
    tied = dataset.time == dataset.time.max()
    n_below = n - np.count_nonzero(tied)
    # columns out of order, and a run of them in order
    for names, columns in ((["minus_row", "row"], [1, 0]), (["row", "minus_row"], [0, 1])):
        _, cohort = _prepared(dataset, names)
        x_s = covariates[order][:, columns]
        # the sorted rows below the largest time, one contiguous row per name
        assert cohort.x_below.flags.c_contiguous and cohort.x_below.tobytes() == x_s[:n_below].T.tobytes()
        # the tied rows, read from the cohort in row order, end the sort
        assert np.array_equal(dataset.time == cohort.top, tied)
        assert covariates[tied][:, columns].tobytes() == x_s[n_below:].tobytes()
        assert cohort.x_ev.flags.c_contiguous and cohort.x_ev.tobytes() == x_s[want_ev].tobytes()
        assert np.array_equal(cohort.head, np.searchsorted(t_s, t_s[want_ev], side="left"))
        assert cohort.event_times.tobytes() == t_s[want_ev].tobytes()


# The streamed risk-set sums against a reference built from their
# definition over whole arrays: one linear predictor and one np.exp over
# all rows; the rows tied at the largest time summed pairwise (np.add.reduce
# of one contiguous array) per _BLOCK-row chunk of the cohort, the chunk
# totals added in row order from 0.0; and one reversed cumsum over the
# time-sorted rows below the largest time, started from that total.


def linear_predictor(x, beta):
    """beta . x of every row of x, added column by column from the left."""
    eta = x[:, 0] * beta[0]
    for j in range(1, len(beta)):
        eta = eta + x[:, j] * beta[j]
    return eta


def risk_set_terms(x, beta, p):
    """The (n, k) terms of every row: w = exp(eta), then w * x_j for j < p,
    then w * (x_i * x_j) for i <= j < p."""
    w = np.exp(linear_predictor(x, beta))
    pairs = zip(*np.triu_indices(p))
    return np.column_stack([w] + [w * x[:, a] for a in range(p)] + [w * (x[:, a] * x[:, b]) for a, b in pairs])


def tied_totals(terms, tied):
    """The sum of the tied rows' terms, chunk by chunk of the cohort."""
    total = np.zeros(terms.shape[1])
    for start in range(0, len(tied), _BLOCK):
        chunk = slice(start, start + _BLOCK)
        if tied[chunk].any():
            total += [np.add.reduce(column[tied[chunk]]) for column in terms[chunk].T]
    return total


def reference_sums(dataset, names, beta, p):
    """(s0, s1, s2, x_ev, eta_ev, event_times): the risk-set sums of p
    covariates at each event row's tie head, in time order, and the event
    rows' covariates (C order), linear predictor and times."""
    idx = [dataset.column_index(c) for c in names or dataset.covariate_names]
    x = np.ascontiguousarray(dataset.covariates[:, idx])
    terms = risk_set_terms(x, beta, p)
    tied = dataset.time == dataset.time.max()
    order = np.argsort(dataset.time, kind="stable")
    n_below = dataset.n - np.count_nonzero(tied)
    t_s = dataset.time[order]
    ev = order[np.flatnonzero(dataset.event[order])]
    head = np.searchsorted(t_s, dataset.time[ev], side="left")
    # row q holds the total plus the last q rows below the largest time
    run = np.cumsum(np.vstack([tied_totals(terms, tied), terms[order[:n_below]][::-1]]), axis=0)
    sums = run[n_below - head]
    pair = np.empty((p, p), dtype=np.intp)
    i, j = np.triu_indices(p)
    pair[i, j] = pair[j, i] = np.arange(1 + p, 1 + p + i.size)
    s2 = np.ascontiguousarray(sums[:, pair])
    return sums[:, 0], sums[:, 1:1 + p], s2, x[ev], linear_predictor(x, beta)[ev], dataset.time[ev]


def reference_nlpl(dataset, names, beta):
    s0_e, s1_e, s2_e, x_ev, eta_ev, _ = reference_sums(dataset, names, beta, len(beta))
    ratio1 = s1_e / s0_e[:, None]
    value = -float(np.sum(eta_ev - np.log(s0_e)))
    gradient = -np.sum(x_ev - ratio1, axis=0)
    hessian = np.sum(s2_e / s0_e[:, None, None] - ratio1[:, :, None] * ratio1[:, None, :], axis=0)
    return value, gradient, hessian, s0_e


@st.composite
def sorted_cohorts(draw):
    """Time-sorted (beta, t_s, d_s, x_s) around the block size: tie groups
    of every length, one tie group across each edge of the blocks the rows
    below the largest time are cut into, signed zeros among the covariates,
    and at times a run of -0.0 rows at the end, each an event at its own
    time, so that the rows at the largest time are one row, and numpy's
    pairwise sum of their -0.0 terms reads +0.0. p, the number of
    covariates, runs from 1 to 4."""
    n = draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_s = np.sort(rng.integers(1, 1 + draw(st.sampled_from([1, 7, 500, 4 * n])), n)).astype(np.float64)
    d_s = rng.random(n) < draw(st.sampled_from([0.01, 0.5, 1.0]))
    d_s[draw(st.integers(0, n - 1))] = True
    x_s = rng.normal(size=(n, p))
    x_s[rng.random(x_s.shape) < 0.05] = 0.0
    x_s[rng.random(x_s.shape) < 0.05] = -0.0
    tail = draw(st.sampled_from([0, 1, 3]))
    if tail:
        t_s[n - tail:] = t_s[n - tail - 1] + np.arange(1, tail + 1)
        d_s[n - tail:] = True
        x_s[n - tail:] = -0.0
    # the rows below the largest time are cut at n_below - k * _BLOCK
    n_below = int(np.count_nonzero(t_s < t_s[-1]))
    for edge in range(n_below - _BLOCK, 0, -_BLOCK):
        t_s[edge - 3:edge + 2] = t_s[edge - 3]
    beta = rng.uniform(-1.0, 1.0, x_s.shape[1])
    return beta, t_s, d_s, x_s, p


@settings(max_examples=30, deadline=None)
@given(sorted_cohorts(), st.booleans())
def test_blocked_tail_sums_equal_whole_array_sums(case, shuffle):
    beta, t_s, d_s, x_s, p = case
    # the rows at the largest time are read from the cohort in row order:
    # shuffled, they fall in every chunk of the cohort
    rows = np.random.default_rng(len(t_s)).permutation(len(t_s)) if shuffle else np.arange(len(t_s))
    dataset = dh.Dataset(
        time=t_s[rows],
        event=d_s[rows],
        covariates=x_s[rows],
        covariate_names=[f"c{j}" for j in range(x_s.shape[1])],
    )
    _, cohort = _prepared(dataset, None)
    s0, s1, s2 = reference_sums(dataset, None, beta, p)[:3]
    i, j = np.triu_indices(p)
    want = np.column_stack([s0, s1, s2[:, i, j]])
    # _head_sums takes eta and exp(eta) chunk by chunk and block by block;
    # its sums must equal those of one product and one np.exp over the
    # whole array, summed as the reference sums them
    got = _head_sums(beta, cohort)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, expected in zip(_nlpl(beta, cohort), reference_nlpl(dataset, None, beta)):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@st.composite
def unsorted_cohorts(draw):
    """(dataset, names, beta): rows in any order, below the horizon 10 or
    censored at it, with 1 to 4 covariates. The rows below
    the largest time number 1 more than a multiple of _BLOCK at times, so
    that the last block of them is one row, and at times the first chunk of
    the cohort holds exactly one tied row; events fall at the largest time
    too. names is every covariate (None), or ["z", "x"] or a run of columns
    from the second."""
    n_below = draw(st.sampled_from([0, 1, 2, 9, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1]))
    n_tied = draw(st.sampled_from([1, 2, 40, _BLOCK + 3]))
    n = n_below + n_tied
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = np.zeros(n, dtype=bool)
    if n_below >= _BLOCK - 1 and draw(st.booleans()):
        tied[rng.integers(_BLOCK)] = True
        tied[_BLOCK:] = rng.permutation(np.arange(n - _BLOCK) < n_tied - 1)
    else:
        tied = rng.permutation(np.arange(n) < n_tied)
    time = np.full(n, 10.0)
    time[~tied] = rng.choice(np.linspace(0.1, 9.9, draw(st.sampled_from([3, 1000]))), n_below)
    event = rng.random(n) < draw(st.sampled_from([0.02, 0.3, 1.0]))
    event[rng.integers(n)] = True
    if draw(st.booleans()):
        event[np.flatnonzero(tied)[0]] = True
    p = draw(st.integers(1, 4))
    covariates = rng.normal(size=(n, p))
    columns = ["x", "z", "w", "v"][:p]
    names = draw(st.sampled_from([None] + [["z", "x"]] * (p >= 2) + [columns[1:]] * (p >= 3)))
    beta = rng.uniform(-0.5, 0.5, len(names or columns))
    return dh.Dataset(time=time, event=event, covariates=covariates, covariate_names=columns), names, beta


def fit_bytes(dataset, names):
    """Every field of fit_cox's fit as bytes, or the refusal it raised."""
    try:
        fit = dh.fit_cox(dataset, names)
    except dh.NumericalError as exc:
        return type(exc).__name__, str(exc)
    fields = (fit.beta, fit.covariance, fit.baseline_cumhaz.knots, fit.baseline_cumhaz.values, fit.log_likelihood)
    return [np.asarray(f).tobytes() for f in fields] + [fit.final_score_norm, fit.iterations, fit.converged]


@settings(max_examples=40, deadline=None)
@given(unsorted_cohorts())
# one row, whose product the whole cohort computes as one row too
@example((dh.Dataset(time=[3.0], event=[True], covariates=[[0.7, -1.3, 0.2]], covariate_names=["x", "z", "w"]),
          None, np.array([0.4, -0.3, 0.9])))
# one row below the largest time and one at it: each a 1-row block
@example((dh.Dataset(time=[10.0, 3.0], event=[True, True], covariates=[[0.7, -1.3, 0.2], [0.1, 0.5, -0.8]],
                     covariate_names=["x", "z", "w"]), None, np.array([0.4, -0.3, 0.9])))
def test_streamed_likelihood_baseline_and_fit_are_whole_array_bytes(case):
    dataset, names, beta = case
    value, gradient, hessian, s0_e = reference_nlpl(dataset, names, beta)
    got = neg_log_partial_likelihood(dataset, beta, names)
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in (value, gradient, hessian)]
    base, want = breslow_baseline(dataset, beta, names), _breslow(reference_sums(dataset, names, beta, 0)[5], s0_e)
    assert (base.knots.tobytes(), base.values.tobytes()) == (want.knots.tobytes(), want.values.tobytes())
    idx = [dataset.column_index(c) for c in names or dataset.covariate_names]

    def reference_step(beta, cohort):
        if np.max(np.abs(linear_predictor(dataset.covariates[:, idx], beta))) > cox._ETA_BOUND:
            raise dh.NumericalError("linear predictor exceeds exp() range")
        return reference_nlpl(dataset, names, beta)

    # the Newton loop on streamed sums, and on the reference sums
    streamed = fit_bytes(dataset, names)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cox, "_nlpl", reference_step)
        assert fit_bytes(dataset, names) == streamed


@st.composite
def named_cohorts(draw):
    """(dataset, names): an unsorted cohort and any 1 to p of its columns,
    in any order, so mostly not a run of adjacent columns."""
    dataset = draw(unsorted_cohorts())[0]
    columns = draw(st.permutations(dataset.covariate_names))
    return dataset, columns[:draw(st.integers(1, len(columns)))]


@settings(max_examples=30, deadline=None)
@given(named_cohorts())
# two columns that are not adjacent, named out of order
@example((dh.Dataset(time=[10.0, 3.0, 10.0, 2.0, 10.0], event=[True, True, False, True, True],
                     covariates=[[0.7, -1.3, 0.2], [0.1, 0.5, -0.8], [-0.4, 0.9, 1.1], [1.5, 0.3, -0.2],
                                 [0.6, -0.7, 0.4]],
                     covariate_names=["x", "z", "w"]), ["w", "x"]))
def test_fit_bytes_do_not_depend_on_covariate_layout(case):
    # Dataset stores a C- or an F-order input column-major: the fit of any
    # named columns reads the same bytes from both
    dataset, names = case
    copies = [
        dh.Dataset(time=dataset.time, event=dataset.event, covariates=dataset.covariates.copy(order=layout),
                   covariate_names=dataset.covariate_names)
        for layout in "CF"
    ]
    assert all(copy.covariates.flags.f_contiguous for copy in copies)
    assert fit_bytes(copies[0], names) == fit_bytes(copies[1], names)


def test_tied_totals_are_within_2_ulp_of_fsum():
    # the README backdoor scenario censors some 97.5% of its rows at the
    # horizon; one of them is made an event, so the last event's risk set
    # is the tied rows alone
    dataset = dh.generate(make_backdoor_config(n_subjects=120_000))
    tied = dataset.time == dataset.time.max()
    assert np.count_nonzero(tied) >= 100_000
    event = dataset.event.copy()
    event[np.flatnonzero(tied)[0]] = True
    dataset = dh.Dataset(time=dataset.time, event=event, covariates=dataset.covariates,
                         covariate_names=dataset.covariate_names)
    beta = np.array([0.298, 0.401])
    _, cohort = _prepared(dataset, None)
    terms = risk_set_terms(dataset.covariates[tied], beta, 2)
    for value, column in zip(_head_sums(beta, cohort)[-1], terms.T, strict=True):
        exact = math.fsum(column)
        assert abs(value - exact) <= 2 * np.spacing(abs(exact))


def test_head_sums_hold_only_their_block_buffers():
    # one row of _BLOCK + 1 per risk-set sum (k of them), the temporary of
    # one covariate's product with its coefficient (_BLOCK) and the tied row
    # numbers of a chunk (_BLOCK); the rest is the returned arrays, the
    # chunk totals and the per-block gathers at the heads
    n, p = 3 * _BLOCK + 5, 2
    k = 1 + p + p * (p + 1) // 2
    rng = np.random.default_rng(3)
    # more than a block below the largest time, events below it and a few
    # at it
    tied = rng.random(n) < 0.6
    event = ~tied & (rng.random(n) < 0.1)
    event[np.flatnonzero(tied)[:5]] = True
    covariates = rng.normal(size=(n, p))
    beta = np.array([0.3, 0.4])
    dataset = dh.Dataset(
        time=np.where(tied, 10.0, rng.uniform(0.1, 9.0, n)),
        event=event,
        covariates=covariates,
        covariate_names=["x", "z"],
    )
    _, cohort = _prepared(dataset, None)
    assert cohort.x_below.shape[1] > _BLOCK
    _head_sums(beta, cohort)  # first-call allocations
    tracemalloc.start()
    try:
        sums = _head_sums(beta, cohort)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (cohort.head.size, k) and sums.base is None
    returned = sums.nbytes
    assert peak - returned <= (k * (_BLOCK + 1) + 2 * _BLOCK) * 8 + 64 * 1024


def test_fit_streams_risk_sets_in_blocks():
    n = 200_000
    dataset = dh.generate(make_backdoor_config(n_subjects=n))
    dh.fit_cox(dh.generate(make_backdoor_config(n_subjects=1_000)))  # first-call allocations
    tracemalloc.start()
    try:
        dh.fit_cox(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the fit holds the rows below the largest time and the event rows, and
    # the blocks; a sorted copy of the covariates would take 3.2 MB and a
    # whole-array eta 1.6 MB
    assert peak < 2 * 8 * n


def test_fit_holds_no_cohort_sized_array_on_the_frontdoor_benchmark_cohort():
    # the experiment_frontdoor cohort: 22% of its 200k rows lie below the
    # largest time, and the fit holds their sorted copy (0.7 MB), the event
    # rows and the blocks. A mask of the tied rows would add 0.2 MB, and a
    # gather from a row-major column a 1.6 MB copy.
    config = make_frontdoor_config(n_subjects=200_000, baseline_hazard=dh.WeibullHazard(1.5, 120.0), censor_rate=0.02)
    dataset = dh.generate(config)
    dh.fit_cox(dh.generate(make_frontdoor_config(n_subjects=1_000)))  # first-call allocations
    tracemalloc.start()
    try:
        dh.fit_cox(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_prepared_order_is_the_stable_time_sort(ties):
    # numpy's default sort gives the stable permutation only when no two
    # times below the largest tie; with ties the stable sort is taken
    rng = np.random.default_rng(8)
    n = 3 * _BLOCK + 5
    time = rng.uniform(0.1, 9.0, n)
    if ties:
        time = np.round(time, 1)
    time[rng.random(n) < 0.5] = 10.0
    event = rng.random(n) < 0.3
    covariates = rng.normal(size=(n, 2))
    dataset = dh.Dataset(time=time, event=event, covariates=covariates, covariate_names=["x", "z"])
    _, cohort = _prepared(dataset, None)
    order = np.argsort(time, kind="stable")
    below = order[:cohort.x_below.shape[1]]
    assert np.all(time[below] < 10.0) and np.all(time[order[below.size:]] == 10.0)
    assert cohort.x_below.tobytes() == np.ascontiguousarray(covariates[below].T).tobytes()
    assert cohort.x_ev.tobytes() == covariates[order[event[order]]].tobytes()


def test_nlpl_returns_s0_apart_from_its_sums():
    # a view would keep the evaluation's (events, k) sums alive
    dataset = dh.generate(make_backdoor_config(n_subjects=2_000))
    beta, cohort = _prepared(dataset, None, [0.3, 0.4])
    *_, s0 = _nlpl(beta, cohort)
    assert s0.base is None
    assert s0.tobytes() == _head_sums(beta, cohort)[:, 0].tobytes()
