import hashlib
import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard.simulate import _BLOCK, _frontdoor_log_hazard

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
    params = list(inspect.signature(_frontdoor_log_hazard).parameters)
    assert params == ["coef", "z", "u"]

    # and the generated times are reproducible from (z, u) alone
    cfg = make_frontdoor_config(n_subjects=1_000)
    ds = dh.generate(cfg)
    eta = _frontdoor_log_hazard(cfg.coefficients, ds.column("z"), ds.u_latent)
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


def test_save_writes_pinned_bytes(tmp_path):
    ds = dh.Dataset(
        time=[0.1, 2.5, 1e-5],
        event=[1, 0, 1],
        covariates=[[-0.0], [5e-324], [1.0 / 3.0]],
        covariate_names=["x"],
        u_latent=[1e308, -2.0, 0.5],
    )
    path = tmp_path / "cohort.csv"
    dh.save_dataset(ds, path)
    assert path.read_bytes() == (
        b"time,event,x,u_latent\r\n"
        b"0.10000000000000001,1,-0,1e+308\r\n"
        b"2.5,0,4.9406564584124654e-324,-2\r\n"
        b"1.0000000000000001e-05,1,0.33333333333333331,0.5\r\n"
    )


# finite float64 values, with the edges of the format drawn often
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    [5e-324, 1e308]
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_save_load_roundtrip_is_bit_exact(tmp_path_factory, data):
    n = data.draw(st.integers(1, 30))
    p = data.draw(st.integers(0, 3))
    ds = dh.Dataset(
        time=data.draw(st.lists(positive_floats, min_size=n, max_size=n)),
        event=data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        covariates=np.array(data.draw(st.lists(finite_floats, min_size=n * p, max_size=n * p))).reshape(n, p),
        covariate_names=[f"c{j}" for j in range(p)],
        u_latent=data.draw(st.none() | st.lists(finite_floats, min_size=n, max_size=n)),
    )
    path = tmp_path_factory.mktemp("roundtrip") / "cohort.csv"
    dh.save_dataset(ds, path)
    back = dh.load_dataset(path)
    assert back.time.tobytes() == ds.time.tobytes()
    assert back.event.tobytes() == ds.event.tobytes()
    assert back.covariates.shape == (n, p)
    assert back.covariates.tobytes() == ds.covariates.tobytes()
    assert back.covariate_names == ds.covariate_names
    assert (back.u_latent is None) == (ds.u_latent is None)
    if ds.u_latent is not None:
        assert back.u_latent.tobytes() == ds.u_latent.tobytes()


def test_load_row_parser_reads_what_the_fast_path_refuses(tmp_path):
    # quoted fields, blank lines and float() spellings the C parser rejects
    # all go through the row parser and read as they always have
    path = tmp_path / "odd.csv"
    path.write_bytes(b'time,event,x\r\n"1.5",1,0.25\r\n\r\n2_5,"0", -3\r\n3,1.0,1e-3')
    ds = dh.load_dataset(path)
    assert ds.time.tolist() == [1.5, 25.0, 3.0]
    assert ds.event.tolist() == [True, False, True]
    assert ds.column("x").tolist() == [0.25, -3.0, 1e-3]


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("time,event,x\n1.0,1,0.5\n2.0,one,0.1\n")
    with pytest.raises(dh.ParseError, match=r":3:"):
        dh.load_dataset(path)

    # line numbers count the blank lines the parser skips
    path.write_text("time,event,x\n1.0,1,0.5\n\n2.0,oops,0.1\n")
    with pytest.raises(dh.ParseError, match=r":4: could not convert string to float: 'oops'"):
        dh.load_dataset(path)

    # an event that parses as a number but is not 0/1: the fourth data row
    path.write_text("time,event,x\n1,1,0\n2,0,0\n3,1,0\n4,2,0\n5,0,0\n")
    with pytest.raises(dh.ValidationError, match=r":5: event must be 0 or 1"):
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
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


# draw_scm fills its columns block by block; the blocks must join into the
# whole-array draw whatever n, so each variable's stream is read on from
# block to block and never reopened.

def whole_array_scm(config, n, seed, offset, x_forced):
    """The structural equations over all n subjects at once, from one read
    of each variable's stream (ids 1: Z or U, 2: X noise, 3: Z noise,
    4: failure)."""
    coef = config.coefficients

    def stream(variable):
        return dh.RngStream(seed, offset + variable)

    def exposure(cause, weight):
        if x_forced is not None:
            return np.full(n, x_forced)
        return weight * cause + stream(2).normal(0.0, coef.sigma_x, n)

    if config.dag_kind == "backdoor":
        u = None
        z = stream(1).normal(0.0, 1.0, n)
        x = exposure(z, coef.a_zx)
        eta = coef.beta_x * x + coef.beta_z * z
    else:
        u = stream(1).normal(0.0, 1.0, n)
        x = exposure(u, coef.c_ux)
        z = coef.alpha * x + stream(3).normal(0.0, coef.sigma_z, n)
        eta = coef.beta_z * z + coef.beta_u * u
    failure = dh.inverse_survival_time(stream(4).uniform(n), eta, config.baseline_hazard)
    return x, z, u, failure


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("x_forced", [None, 1.5])
@pytest.mark.parametrize(
    "hazard", [dh.ExponentialHazard(0.002), dh.WeibullHazard(1.5, 120.0)], ids=["exponential", "weibull"]
)
@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_draw_scm_is_block_invariant(make_config, hazard, x_forced, n):
    config = make_config(baseline_hazard=hazard)
    got = dh.draw_scm(config, n, 11, 16, x_forced=x_forced)
    want = whole_array_scm(config, n, 11, 16, x_forced)
    for name, a, b in zip(("x", "z", "u", "failure"), got, want):
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == (n,) and a.tobytes() == b.tobytes(), name


# sha256 of the draw_scm columns (x, z, u, failure) at n=40_000 for the two
# reference scenarios, frozen from the whole-array draw before blocks.
SCM_DIGESTS = {
    "backdoor": (
        "644ff50c4c20d8f66eccb2c88732e6cb3651e07e6c74569443a54d2cdbb61b41",
        "c430b9eeef8db172d01efc23f97bb035baa8230534fd81485e070e8d4a658b72",
        None,
        "897d9084851ecfea1d7db38faa41a309de8d33ad0d7ea119814fcda84cf61ec6",
    ),
    "frontdoor": (
        "3a4c6acb4bdf7267428419d1959976ca03314d447d41a411bb05779baebb81e4",
        "00a820a4b85e94d20e82467686b8645dd779c9e9a5b0a13c9c3c3079c76a14a5",
        "82180f8f2ce8fb42e4253f6a00179f18256197d96ccdc16fec7486e64ddec8e8",
        "660a776d45b4c9b26a71afef0fe530552441c23f1740f9a769120be5a401bbc4",
    ),
}


@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_draw_scm_pinned_digests(make_config):
    config = make_config()
    columns = dh.draw_scm(config, 40_000, config.seed)
    got = tuple(None if c is None else hashlib.sha256(c.tobytes()).hexdigest() for c in columns)
    assert got == SCM_DIGESTS[config.dag_kind]


@pytest.mark.parametrize("n", [0, -5])
def test_draw_scm_rejects_empty_draw(backdoor_config, n):
    with pytest.raises(dh.InvalidArgumentError, match=f"^n must be >= 1, got {n}$"):
        dh.draw_scm(backdoor_config, n, 1)
