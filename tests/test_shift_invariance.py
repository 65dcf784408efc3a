"""Every estimate is invariant to an affine change of the measured columns.

With x' = a + b*x and z' = c + d*z (b, d nonzero) the fitted coefficients
scale by 1/b and 1/d, the baseline (anchored at covariates equal to zero)
absorbs the shifts, and the mediator line's slope, intercept and noise sd
follow the map. Each incidence, relative risk and PAF of either DAG is then
the same quantity written in other units: it must not move, with every
exposure value read at its transformed value.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard import backdoor, frontdoor

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
