"""Every estimate is invariant to an affine change of the measured columns,
to the unit of time and to repeating every row.

With x' = a + b*x and z' = c + d*z (b, d nonzero) the fitted coefficients
scale by 1/b and 1/d, the baseline (anchored at covariates equal to zero)
absorbs the shifts, and the mediator line's slope, intercept and noise sd
follow the map. Each incidence, relative risk and PAF of either DAG is then
the same quantity written in other units: it must not move, with every
exposure value read at its transformed value.

The fit reads the times only through their order and ties, and the Breslow
knots only move with them, so scaling every time and horizon by c keeps
every estimate's bits wherever it keeps that order and those ties. A
cohort with every row repeated k times has the same estimates, and model
SEs 1/sqrt(k) as large.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard import backdoor, frontdoor
from dohazard.cox import breslow_baseline

from conftest import make_backdoor_config, make_frontdoor_config
from truth import frontdoor_do_cdf_empirical

CONTRASTS = ((1.0, 0.0), (2.0, -1.0))
HORIZONS = (5.0, 10.0)
REL = 1e-9

shifts = st.floats(-3.0, 3.0)
scales = st.tuples(st.floats(0.25, 4.0), st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])


def estimates(dag, dataset, a=0.0, b=1.0):
    """Every incidence and RR of the DAG's table on dataset, with the
    contrasts' x mapped to a + b*x, and the backdoor PAF against that
    map's image of do(0)."""
    fit = dh.fit_cox(dataset, ["x", "z"])
    contrasts = [(a + b * x, a + b * x0) for x, x0 in CONTRASTS]
    if dag == "backdoor":
        rows, summary = backdoor.estimate_table(dataset, fit, contrasts, HORIZONS, ["z"])
        values = [est.value for method, *_, est in rows if method != "paf"]
        return values + [backdoor.paf(fit, summary, a)]
    rows, _ = frontdoor.estimate_table(dataset, fit, contrasts, HORIZONS)
    return [est.value for *_, est in rows]


@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=shifts, b=scales, c=shifts, d=scales)
@example(seed=7, a=0.0, b=1.0, c=1.0, d=1.0)  # z + 1
def test_estimates_are_invariant_to_shifting_and_scaling_x_and_z(dag, seed, a, b, c, d):
    config = (make_backdoor_config if dag == "backdoor" else make_frontdoor_config)(n_subjects=4_000, seed=seed)
    dataset = dh.generate(config)
    moved = dh.Dataset(
        time=dataset.time,
        event=dataset.event,
        covariates=dataset.covariates * [b, d] + [a, c],
        covariate_names=dataset.covariate_names,
    )
    np.testing.assert_allclose(estimates(dag, moved, a, b), estimates(dag, dataset), rtol=REL, atol=0.0)


def test_gaussian_frontdoor_matches_the_binned_sum_with_the_mediator_shifted(frontdoor_dataset):
    # criterion 6's 3% rule on the reference cohort with z + 1: the binned
    # sum does not move, and the closed form must not either
    shifted = dh.Dataset(
        time=frontdoor_dataset.time,
        event=frontdoor_dataset.event,
        covariates=frontdoor_dataset.covariates + [0.0, 1.0],
        covariate_names=frontdoor_dataset.covariate_names,
    )
    fit = dh.fit_cox(shifted, ["x", "z"])
    params = dh.estimate_frontdoor_params(shifted, fit)
    for x in (0.0, 0.5, 1.0):
        gaussian = dh.frontdoor_do_cdf_gaussian(params, fit.baseline_cumhaz(10.0), x).value
        empirical = frontdoor_do_cdf_empirical(shifted, fit, x, 10.0)
        assert abs(gaussian - empirical) / empirical <= 0.03, (x, gaussian, empirical)


def censored_cohort(dag, seed):
    """A small cohort of the DAG's reference scenario with random censoring,
    so that its times are not all tied at the horizon."""
    make_config = make_backdoor_config if dag == "backdoor" else make_frontdoor_config
    return dh.generate(make_config(n_subjects=3_000, seed=seed, censor_rate=0.01))


def table(dag, dataset, fit, horizons):
    """The DAG's estimate table as rows (method, x, x0, t, value, std_err)."""
    if dag == "backdoor":
        rows, _ = backdoor.estimate_table(dataset, fit, CONTRASTS, horizons, ["z"])
    else:
        rows, _ = frontdoor.estimate_table(dataset, fit, CONTRASTS, horizons)
    return [(method, x, x0, t, est.value, est.std_err) for method, x, x0, t, est in rows]


def bits(values) -> bytes:
    """The float64 bytes of values, numbers or arrays, joined."""
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


@pytest.mark.parametrize("c", [2**-3, 2.0, 2**10, 3.0, 365.25, 0.1])
@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=42)
def test_estimates_do_not_depend_on_the_unit_of_time(dag, c, seed):
    dataset = censored_cohort(dag, seed)
    # a positive scale keeps the order of the times and horizons, and a
    # power of two keeps their ties too; another scale may merge two values
    points = np.sort(np.concatenate([dataset.time, HORIZONS]))
    kept = np.array_equal(np.diff(points) > 0, np.diff(points * c) > 0)
    assert kept or math.frexp(c)[0] != 0.5
    assume(kept)
    scaled = dh.Dataset(
        time=dataset.time * c,
        event=dataset.event,
        covariates=dataset.covariates,
        covariate_names=dataset.covariate_names,
    )
    fit, fit_c = dh.fit_cox(dataset, ["x", "z"]), dh.fit_cox(scaled, ["x", "z"])
    assert (fit_c.iterations, fit_c.converged) == (fit.iterations, fit.converged)
    assert bits([fit_c.beta, fit_c.covariance, fit_c.log_likelihood, fit_c.final_score_norm]) == bits(
        [fit.beta, fit.covariance, fit.log_likelihood, fit.final_score_norm]
    )
    for base_c, base in (
        (fit_c.baseline_cumhaz, fit.baseline_cumhaz),
        (breslow_baseline(scaled, fit.beta, ["x", "z"]), breslow_baseline(dataset, fit.beta, ["x", "z"])),
    ):
        assert bits([base_c.knots, base_c.values]) == bits([base.knots * c, base.values])
    summary_c = backdoor.compute_az(scaled, fit_c, ["z"], horizon_t=10.0 * c)
    summary = backdoor.compute_az(dataset, fit, ["z"], horizon_t=10.0)
    assert summary_c.rarity_flag == summary.rarity_flag
    assert bits([summary_c.a_z, summary_c.mean_joint_risk, summary_c.max_cumhaz, summary_c.horizon_t]) == bits(
        [summary.a_z, summary.mean_joint_risk, summary.max_cumhaz, summary.horizon_t * c]
    )
    rows_c = table(dag, scaled, fit_c, [t * c for t in HORIZONS])
    want = [(method, x, x0, t * c, value, se) for method, x, x0, t, value, se in table(dag, dataset, fit, HORIZONS)]
    assert [(method, bits(rest)) for method, *rest in rows_c] == [(method, bits(rest)) for method, *rest in want]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
def test_repeating_every_row_keeps_the_estimates(dag, k):
    # sigma_x and sigma_z divide by n - 1 and n - 2, so the frontdoor do_cdf
    # rows, which read them, move; the relative risk does not read them
    dataset = censored_cohort(dag, 7)
    repeated = dh.Dataset(
        time=np.repeat(dataset.time, k),
        event=np.repeat(dataset.event, k),
        covariates=np.repeat(dataset.covariates, k, axis=0),
        covariate_names=dataset.covariate_names,
    )
    fit, fit_k = dh.fit_cox(dataset, ["x", "z"]), dh.fit_cox(repeated, ["x", "z"])

    def close(got, want, rtol=1e-12):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    close(fit_k.beta, fit.beta)
    close(np.sqrt(np.diag(fit_k.covariance)) * math.sqrt(k), np.sqrt(np.diag(fit.covariance)), rtol=1e-10)
    assert fit_k.baseline_cumhaz.knots.tobytes() == fit.baseline_cumhaz.knots.tobytes()
    close(fit_k.baseline_cumhaz.values, fit.baseline_cumhaz.values)
    if dag == "backdoor":
        summary_k = backdoor.compute_az(repeated, fit_k, ["z"], horizon_t=10.0)
        summary = backdoor.compute_az(dataset, fit, ["z"], horizon_t=10.0)
        close([summary_k.a_z, summary_k.mean_joint_risk], [summary.a_z, summary.mean_joint_risk])
        rows_k, rows = table(dag, repeated, fit_k, HORIZONS), table(dag, dataset, fit, HORIZONS)
        keys = [[(method, bits(rest[:3])) for method, *rest in table_rows] for table_rows in (rows_k, rows)]
        assert keys[0] == keys[1]
        close([row[4] for row in rows_k], [row[4] for row in rows])
        # the relative risks' delta-method SEs; do_cdf and paf carry none
        close([row[5] * math.sqrt(k) for row in rows_k], [row[5] for row in rows], rtol=1e-10)
    else:
        params_k = frontdoor.estimate_frontdoor_params(repeated, fit_k)
        params = frontdoor.estimate_frontdoor_params(dataset, fit)
        close([params_k.alpha, params_k.gamma, params_k.mu_x], [params.alpha, params.gamma, params.mu_x])
        for x, x0 in CONTRASTS:
            rr_k, rr = (frontdoor.frontdoor_causal_rr(p, x, x0).value for p in (params_k, params))
            close(rr_k, rr)
