"""Shared fixtures: two reference scenarios, each simulated and fitted once per session."""

import numpy as np
import pytest

import dohazard as dh


# tests/pinned.py builds the commands of its pinned outputs from these
# scenarios, so a change to their defaults moves pinned digests.
def make_backdoor_config(**overrides):
    base = dict(
        dag_kind="backdoor",
        n_subjects=100_000,
        seed=42,
        baseline_hazard=dh.ExponentialHazard(0.002),
        horizon_t=10.0,
        censor_rate=0.0,
        coefficients=dh.BackdoorCoefficients(
            a_zx=0.5, sigma_x=1.0, beta_x=0.3, beta_z=0.4
        ),
    )
    base.update(overrides)
    return dh.ScenarioConfig(**base)


def make_frontdoor_config(**overrides):
    base = dict(
        dag_kind="frontdoor",
        n_subjects=100_000,
        seed=7,
        baseline_hazard=dh.ExponentialHazard(0.002),
        horizon_t=10.0,
        censor_rate=0.0,
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=1.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
        ),
    )
    base.update(overrides)
    return dh.ScenarioConfig(**base)


def make_strong_confounding_config(**overrides):
    base = dict(
        seed=4242,
        coefficients=dh.BackdoorCoefficients(
            a_zx=0.8, sigma_x=1.0, beta_x=0.3, beta_z=0.6
        ),
    )
    base.update(overrides)
    return make_backdoor_config(**base)


def make_tiny_dataset(time, event, x, z=None, u=None):
    """Hand-built dataset for exact fixtures."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    cols = [np.asarray(x, dtype=float)]
    names = ["x"]
    if z is not None:
        cols.append(np.asarray(z, dtype=float))
        names.append("z")
    return dh.Dataset(
        time=time,
        event=event,
        covariates=np.column_stack(cols),
        covariate_names=tuple(names),
        u_latent=None if u is None else np.asarray(u, dtype=float),
    )


@pytest.fixture(scope="session")
def backdoor_config():
    return make_backdoor_config()


@pytest.fixture(scope="session")
def backdoor_dataset(backdoor_config):
    return dh.generate(backdoor_config)


@pytest.fixture(scope="session")
def backdoor_fit(backdoor_dataset):
    return dh.fit_cox(backdoor_dataset, ["x", "z"])


@pytest.fixture(scope="session")
def backdoor_summary(backdoor_dataset, backdoor_fit):
    return dh.compute_az(backdoor_dataset, backdoor_fit, ["z"], horizon_t=10.0)


@pytest.fixture(scope="session")
def frontdoor_config():
    return make_frontdoor_config()


@pytest.fixture(scope="session")
def frontdoor_dataset(frontdoor_config):
    return dh.generate(frontdoor_config)


@pytest.fixture(scope="session")
def frontdoor_fit(frontdoor_dataset):
    return dh.fit_cox(frontdoor_dataset, ["x", "z"])


@pytest.fixture(scope="session")
def frontdoor_params(frontdoor_dataset, frontdoor_fit):
    return dh.estimate_frontdoor_params(frontdoor_dataset, fit=frontdoor_fit)


@pytest.fixture(scope="session")
def pinned_sha256(tmp_path_factory):
    """The sha256 of a pin's output; each command of pinned.py runs once a session."""
    from pinned import Outputs  # pinned imports this module

    return Outputs(tmp_path_factory.mktemp("pinned")).sha256
