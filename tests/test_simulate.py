import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dohazard as dh

from conftest import make_backdoor_config, make_frontdoor_config

# frozen regression values for the two reference cohorts
BACKDOOR_EVENTS = 2460
BACKDOOR_FIRST = (10.0, -0.25496111409417921, -0.14147609604383266)
FRONTDOOR_EVENTS = 3680
FRONTDOOR_FIRST = (10.0, 0.74532190738205462, 0.72291593477349925, 1.1874089802587715)


def test_inverse_time_exponential_identity():
    u = 1.0 - math.exp(-1.0)
    assert dh.inverse_survival_time(u, 0.0, dh.ExponentialHazard(1.0)) == pytest.approx(1.0, rel=1e-15)
    assert dh.inverse_survival_time(u, math.log(2.0), dh.ExponentialHazard(1.0)) == pytest.approx(0.5, rel=1e-15)


def test_inverse_time_weibull():
    u = 1.0 - math.exp(-1.0)
    got = dh.inverse_survival_time(u, 0.0, dh.WeibullHazard(2.0, 1.0))
    assert got == pytest.approx(1.0, rel=1e-15)
    # H0(T) e^eta = -log(1-u) holds for random draws
    rng = np.random.default_rng(3)
    haz = dh.WeibullHazard(1.7, 3.0)
    u_arr = rng.uniform(0.01, 0.99, size=50)
    eta = rng.normal(size=50)
    t = dh.inverse_survival_time(u_arr, eta, haz)
    lhs = haz.cumulative(t) * np.exp(eta)
    assert np.allclose(lhs, -np.log1p(-u_arr), rtol=1e-12)


def test_inverse_time_bounds():
    with pytest.raises(dh.InvalidArgumentError):
        dh.inverse_survival_time(0.0, 0.0, dh.ExponentialHazard(1.0))
    with pytest.raises(dh.InvalidArgumentError):
        dh.inverse_survival_time(1.0, 0.0, dh.ExponentialHazard(1.0))
    with pytest.raises(dh.InvalidArgumentError):
        dh.inverse_survival_time(0.5, math.nan, dh.ExponentialHazard(1.0))


def test_hazard_validation():
    with pytest.raises(dh.ValidationError):
        dh.ExponentialHazard(0.0)
    with pytest.raises(dh.ValidationError):
        dh.WeibullHazard(-1.0, 1.0)
    with pytest.raises(dh.ValidationError):
        dh.WeibullHazard(1.0, 0.0)


def test_null_coefficients_event_fraction():
    cfg = make_backdoor_config(
        n_subjects=100_000,
        seed=11,
        baseline_hazard=dh.ExponentialHazard(0.001),
        coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.0, beta_z=0.0),
    )
    ds = dh.generate(cfg)
    p = 1.0 - math.exp(-0.001 * 10.0)
    se = math.sqrt(p * (1 - p) / cfg.n_subjects)
    assert abs(ds.n_events / ds.n - p) < 4.0 * se


def test_huge_censor_rate_kills_events():
    cfg = make_backdoor_config(n_subjects=5_000, censor_rate=1e6)
    ds = dh.generate(cfg)
    assert ds.n_events < 5
    assert float(ds.time.max()) < 1e-3


def test_censoring_respects_horizon():
    cfg = make_backdoor_config(n_subjects=20_000, censor_rate=0.05, seed=3)
    ds = dh.generate(cfg)
    assert float(ds.time.max()) <= cfg.horizon_t
    assert float(ds.time.min()) > 0.0
    assert 0 < ds.n_events < ds.n


def test_backdoor_golden_regression(backdoor_dataset):
    ds = backdoor_dataset
    assert ds.n == 100_000
    assert ds.n_events == BACKDOOR_EVENTS
    assert ds.covariate_names == ("x", "z") or list(ds.covariate_names) == ["x", "z"]
    assert (float(ds.time[0]), float(ds.column("x")[0]), float(ds.column("z")[0])) == BACKDOOR_FIRST


def test_frontdoor_golden_regression(frontdoor_dataset):
    ds = frontdoor_dataset
    assert ds.n == 100_000
    assert ds.n_events == FRONTDOOR_EVENTS
    got = (
        float(ds.time[0]),
        float(ds.column("x")[0]),
        float(ds.column("z")[0]),
        float(ds.u_latent[0]),
    )
    assert got == FRONTDOOR_FIRST


def test_generate_is_deterministic():
    a = dh.generate(make_backdoor_config(n_subjects=2_000))
    b = dh.generate(make_backdoor_config(n_subjects=2_000))
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.event, b.event)
    assert np.array_equal(a.covariates, b.covariates)


def test_frontdoor_x_moments(frontdoor_dataset, frontdoor_config):
    coef = frontdoor_config.coefficients
    x = frontdoor_dataset.column("x")
    sd_x = math.sqrt(coef.c_ux**2 + coef.sigma_x**2)
    assert abs(float(x.mean())) < 4.0 * sd_x / math.sqrt(frontdoor_dataset.n)
    assert float(x.std(ddof=1)) == pytest.approx(sd_x, rel=0.05)


def test_frontdoor_alpha_zero_breaks_xz_link():
    cfg = make_frontdoor_config(
        n_subjects=50_000,
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=0.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
        ),
    )
    ds = dh.generate(cfg)
    r = np.corrcoef(ds.column("x"), ds.column("z"))[0, 1]
    assert abs(float(r)) < 4.0 / math.sqrt(ds.n)


def test_frontdoor_null_hazard_coefficients():
    cfg = make_frontdoor_config(
        n_subjects=100_000,
        coefficients=dh.FrontdoorCoefficients(
            c_ux=0.8, sigma_x=0.6, alpha=1.0, sigma_z=0.5, beta_z=0.0, beta_u=0.0
        ),
    )
    ds = dh.generate(cfg)
    p = 1.0 - math.exp(-0.002 * 10.0)
    se = math.sqrt(p * (1 - p) / cfg.n_subjects)
    assert abs(ds.n_events / ds.n - p) < 4.0 * se


def test_exposure_excluded_from_frontdoor_hazard():
    # structural: the mediated log hazard takes no exposure argument at all
    params = list(inspect.signature(dh.frontdoor_log_hazard).parameters)
    assert params == ["coef", "z", "u"]

    # and the generated times are reproducible from (z, u) alone
    cfg = make_frontdoor_config(n_subjects=1_000)
    ds = dh.generate(cfg)
    eta = dh.frontdoor_log_hazard(cfg.coefficients, ds.column("z"), ds.u_latent)
    u_fail = dh.RngStream(cfg.seed, 4).uniform(size=cfg.n_subjects)
    failure = dh.inverse_survival_time(u_fail, eta, cfg.baseline_hazard)
    assert np.array_equal(np.minimum(failure, cfg.horizon_t), ds.time)
    assert np.array_equal(failure <= cfg.horizon_t, ds.event)


def test_bernoulli_z_support():
    cfg = make_backdoor_config(n_subjects=5_000, z_dist=dh.BernoulliZ(0.4))
    ds = dh.generate(cfg)
    z = ds.column("z")
    assert set(np.unique(z)) <= {0.0, 1.0}
    assert 0.3 < float(z.mean()) < 0.5


def test_save_load_roundtrip(tmp_path):
    ds = dh.generate(make_frontdoor_config(n_subjects=500))
    path = tmp_path / "cohort.csv"
    dh.save_dataset(ds, path)
    back = dh.load_dataset(path)
    assert np.array_equal(back.time, ds.time)
    assert np.array_equal(back.event, ds.event)
    assert np.array_equal(back.covariates, ds.covariates)
    assert list(back.covariate_names) == list(ds.covariate_names)
    assert np.array_equal(back.u_latent, ds.u_latent)
    assert back.provenance == str(path)


def test_save_is_byte_deterministic(tmp_path):
    ds = dh.generate(make_backdoor_config(n_subjects=300))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dh.save_dataset(ds, p1)
    dh.save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("time,event,x\n1.0,1,0.5\n2.0,one,0.1\n")
    with pytest.raises(dh.ParseError, match=r":3:"):
        dh.load_dataset(path)

    path.write_text("time,event,x\n1.0,1\n")
    with pytest.raises(dh.ParseError, match=r":2:"):
        dh.load_dataset(path)

    path.write_text("time,x\n1.0,0.5\n")
    with pytest.raises(dh.ValidationError, match="event"):
        dh.load_dataset(path)

    path.write_text("time,event,x\n1.0,2,0.5\n")
    with pytest.raises(dh.ValidationError, match="event"):
        dh.load_dataset(path)

    path.write_text("time,event,x\n-1.0,1,0.5\n")
    with pytest.raises(dh.ValidationError):
        dh.load_dataset(path)

    path.write_text("time,event,x\n")
    with pytest.raises(dh.ValidationError, match="no data rows"):
        dh.load_dataset(path)

    path.write_text("")
    with pytest.raises(dh.ValidationError):
        dh.load_dataset(path)


def test_config_json_roundtrip(tmp_path):
    cfg = make_frontdoor_config(censor_rate=0.01, n_subjects=123)
    raw = cfg.to_dict()
    assert dh.ScenarioConfig.from_dict(raw) == cfg
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert dh.load_scenario_config(path) == cfg


def test_config_rejects_missing_field(tmp_path):
    raw = make_backdoor_config().to_dict()
    del raw["baseline_hazard"]
    with pytest.raises(dh.ValidationError, match="baseline_hazard"):
        dh.ScenarioConfig.from_dict(raw)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dag_kind": "backdoor",\n  oops\n}\n')
    with pytest.raises(dh.ParseError, match="line 3"):
        dh.load_scenario_config(path)


def test_config_field_validation():
    with pytest.raises(dh.ValidationError, match="n_subjects"):
        make_backdoor_config(n_subjects=0)
    with pytest.raises(dh.ValidationError, match="horizon_t"):
        make_backdoor_config(horizon_t=0.0)
    with pytest.raises(dh.ValidationError, match="censor_rate"):
        make_backdoor_config(censor_rate=-0.1)
    with pytest.raises(dh.ValidationError, match="dag_kind"):
        make_backdoor_config(dag_kind="diamond")
    with pytest.raises(dh.ValidationError, match="coefficients"):
        make_backdoor_config(
            coefficients=dh.FrontdoorCoefficients(
                c_ux=0.8, sigma_x=0.6, alpha=1.0, sigma_z=0.5, beta_z=0.5, beta_u=0.7
            )
        )
    with pytest.raises(dh.ValidationError, match="sigma_x"):
        dh.BackdoorCoefficients(a_zx=0.5, sigma_x=-1.0, beta_x=0.3, beta_z=0.4)
    with pytest.raises(dh.ValidationError, match="finite"):
        dh.BackdoorCoefficients(a_zx=math.inf, sigma_x=1.0, beta_x=0.3, beta_z=0.4)


def test_config_type_checks():
    raw = make_backdoor_config().to_dict()
    raw["n_subjects"] = True
    with pytest.raises(dh.ValidationError, match="n_subjects"):
        dh.ScenarioConfig.from_dict(raw)
    raw = make_backdoor_config().to_dict()
    raw["horizon_t"] = "ten"
    with pytest.raises(dh.ValidationError, match="horizon_t"):
        dh.ScenarioConfig.from_dict(raw)
    raw = make_backdoor_config().to_dict()
    raw["z_dist"] = {"kind": "poisson"}
    with pytest.raises(dh.ValidationError, match="z_dist"):
        dh.ScenarioConfig.from_dict(raw)


def test_dataset_validation():
    with pytest.raises(dh.ValidationError):
        dh.Dataset(time=[], event=[], covariates=np.empty((0, 1)), covariate_names=["x"])
    with pytest.raises(dh.ValidationError):
        dh.Dataset(time=[1.0, 2.0], event=[1], covariates=np.zeros((2, 1)), covariate_names=["x"])
    with pytest.raises(dh.ValidationError):
        dh.Dataset(time=[1.0], event=[1], covariates=np.zeros((1, 2)), covariate_names=["x", "x"])
    with pytest.raises(dh.ValidationError):
        dh.Dataset(time=[0.0], event=[1], covariates=np.zeros((1, 1)), covariate_names=["x"])
    with pytest.raises(dh.ValidationError):
        dh.Dataset(time=[1.0], event=[1], covariates=[[math.nan]], covariate_names=["x"])


def test_dataset_column_lookup():
    ds = dh.generate(make_frontdoor_config(n_subjects=5))
    assert np.array_equal(ds.column("x"), ds.covariates[:, 0])
    assert np.array_equal(ds.column("z"), ds.covariates[:, 1])
    with pytest.raises(dh.InvalidArgumentError, match="unknown covariate"):
        ds.column("w")


# Property tests of the one structural model: draw_scm serves both the
# cohort generator and the intervention oracle, so an intervention must
# leave what X does not cause untouched, and generate must be its censoring.

@st.composite
def scm_scenarios(draw, **coefficient_overrides):
    """A small scenario over both DAGs, both baseline kinds and both Z laws."""
    moderate = st.floats(-1.0, 1.0)
    sd = st.floats(0.0, 1.5)
    if draw(st.sampled_from(["backdoor", "frontdoor"])) == "backdoor":
        dag_kind = "backdoor"
        coefficients = dict(a_zx=draw(moderate), sigma_x=draw(sd), beta_x=draw(moderate), beta_z=draw(moderate))
    else:
        dag_kind = "frontdoor"
        coefficients = dict(
            c_ux=draw(moderate), sigma_x=draw(sd), alpha=draw(moderate),
            sigma_z=draw(sd), beta_z=draw(moderate), beta_u=draw(moderate),
        )
    coefficients.update({k: v for k, v in coefficient_overrides.items() if k in coefficients})
    if draw(st.booleans()):
        hazard = dh.ExponentialHazard(draw(st.floats(1e-3, 0.5)))
    else:
        hazard = dh.WeibullHazard(draw(st.floats(0.5, 3.0)), draw(st.floats(1.0, 50.0)))
    z_dist = dh.BernoulliZ(draw(st.floats(0.0, 1.0))) if draw(st.booleans()) else dh.StandardNormalZ()
    return dh.ScenarioConfig(
        dag_kind=dag_kind,
        n_subjects=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32)),
        baseline_hazard=hazard,
        horizon_t=10.0,
        censor_rate=draw(st.sampled_from([0.0, 0.05])),
        coefficients=(dh.BackdoorCoefficients if dag_kind == "backdoor" else dh.FrontdoorCoefficients)(**coefficients),
        z_dist=z_dist,
    )


arm_offsets = st.integers(0, 100)
forced_x = st.floats(-3.0, 3.0)
scm_settings = settings(max_examples=60, deadline=None)


@scm_settings
@given(scm_scenarios(), arm_offsets, forced_x)
def test_do_arm_keeps_non_descendants_of_x(config, offset, x_value):
    n, seed = config.n_subjects, config.seed
    x, z, u, _ = dh.draw_scm(config, n, seed, offset)
    x_do, z_do, u_do, _ = dh.draw_scm(config, n, seed, offset, x_forced=x_value)
    assert np.all(x_do == x_value)
    if config.dag_kind == "backdoor":
        assert u is None and u_do is None
        assert z_do.tobytes() == z.tobytes()
    else:
        assert u_do.tobytes() == u.tobytes()


@scm_settings
@given(scm_scenarios(beta_x=0.0, alpha=0.0), arm_offsets, forced_x)
def test_do_arm_without_x_to_t_path_keeps_failure_times(config, offset, x_value):
    n, seed = config.n_subjects, config.seed
    factual = dh.draw_scm(config, n, seed, offset)[3]
    forced = dh.draw_scm(config, n, seed, offset, x_forced=x_value)[3]
    assert forced.tobytes() == factual.tobytes()


@scm_settings
@given(scm_scenarios())
def test_generate_censors_one_scm_draw(config):
    x, z, u, failure = dh.draw_scm(config, config.n_subjects, config.seed)
    ds = dh.generate(config)
    assert ds.time[ds.event].tobytes() == failure[ds.event].tobytes()
    assert np.all(ds.time <= failure)
    assert ds.covariates.tobytes() == np.column_stack([x, z]).tobytes()
    assert (ds.u_latent is None) == (u is None)
    if u is not None:
        assert ds.u_latent.tobytes() == u.tobytes()
