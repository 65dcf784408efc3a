import hashlib
import inspect
import json
import math
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard import cohort
from dohazard.simulate import _frontdoor_log_hazard, _latent_hazards
from dohazard.stats import _BLOCK

from conftest import make_backdoor_config, make_frontdoor_config
from pinned import DRAW_SCM, check
from truth import draw_scm

# save_dataset and load_dataset work in chunks of _BLOCK rows; this edge
# ends the second chunk, so the cases around it cross a whole chunk too
CHUNK_EDGE = 2 * _BLOCK

# frozen regression values for the two reference cohorts
BACKDOOR_EVENTS = 2393
BACKDOOR_FIRST = (10.0, -0.046113629833785641, 0.86689246492167704)
FRONTDOOR_EVENTS = 3676
FRONTDOOR_FIRST = (10.0, -0.82547050458900406, -2.0085747891645545, -0.047391616732544842)


def failure_times(exponential, eta, hazard):
    """The failure times T = invert(H) of the latent hazards H; eta is
    copied, since _latent_hazards forms H in its buffer."""
    return hazard.invert(_latent_hazards(exponential, np.array(eta, dtype=np.float64, ndmin=1)))


def structural_failure_times(exponential, eta, hazard):
    """The failure times as H0^-1(exponential * exp(-eta)), with no buffer
    reused: the reference for the bits of _latent_hazards then invert."""
    return hazard.invert(exponential * np.exp(-eta))


def test_inverse_time_exponential_identity():
    # _latent_hazards takes the exponential variate -log(1 - u)
    assert failure_times(1.0, 0.0, dh.ExponentialHazard(1.0)) == pytest.approx(1.0, rel=1e-15)
    assert failure_times(1.0, math.log(2.0), dh.ExponentialHazard(1.0)) == pytest.approx(0.5, rel=1e-15)


def test_inverse_time_weibull():
    got = failure_times(1.0, 0.0, dh.WeibullHazard(2.0, 1.0))
    assert got == pytest.approx(1.0, rel=1e-15)
    # H0(T) e^eta = -log(1-u) holds for random draws
    rng = np.random.default_rng(3)
    haz = dh.WeibullHazard(1.7, 3.0)
    exponential = -np.log1p(-rng.uniform(0.01, 0.99, size=50))
    eta = rng.normal(size=50)
    t = failure_times(exponential, eta, haz)
    lhs = haz.cumulative(t) * np.exp(eta)
    assert np.allclose(lhs, exponential, rtol=1e-12)
    # formed in eta's buffer, H has the bits of exponential * exp(-eta)
    assert t.tobytes() == structural_failure_times(exponential, eta, haz).tobytes()


def test_hazard_validation():
    with pytest.raises(dh.ValidationError):
        dh.ExponentialHazard(0.0)
    with pytest.raises(dh.ValidationError):
        dh.WeibullHazard(-1.0, 1.0)
    with pytest.raises(dh.ValidationError):
        dh.WeibullHazard(1.0, 0.0)
    with pytest.raises(dh.ValidationError, match="field 'baseline_hazard.scale' must be a finite number"):
        dh.WeibullHazard(1.0, math.inf)


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
    failure = structural_failure_times(-np.log1p(-u_fail), eta, cfg.baseline_hazard)
    assert np.array_equal(np.minimum(failure, cfg.horizon_t), ds.time)
    assert np.array_equal(failure <= cfg.horizon_t, ds.event)


def test_bernoulli_z_support():
    cfg = make_backdoor_config(n_subjects=5_000, z_dist=dh.BernoulliZ(0.4))
    ds = dh.generate(cfg)
    z = ds.column("z")
    assert set(np.unique(z)) <= {0.0, 1.0}
    assert 0.3 < float(z.mean()) < 0.5


def saved_with_cache(tmp_path, n=50):
    dataset = dh.generate(make_frontdoor_config(n_subjects=n))
    path = tmp_path / "cohort.csv"
    dh.save_dataset(dataset, path)
    return dataset, path


def saved_cohort(tmp_path, n):
    """A cohort saved as CSV without its column cache, so that loading it
    exercises the CSV reader."""
    dataset, path = saved_with_cache(tmp_path, n)
    cache_of(path).unlink()
    return dataset, path


def cache_of(path):
    return path.with_name(path.name + ".cols")


def load_csv(path):
    """load_dataset with the column cache deleted first: the CSV reader's result."""
    cache_of(path).unlink(missing_ok=True)
    return dh.load_dataset(path)


def assert_same_cohort(got, want):
    for name in ("time", "event", "covariates", "u_latent"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.base is None, name  # owns its memory, so nothing larger stays alive behind it
    assert got.covariate_names == want.covariate_names


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


def test_save_is_byte_deterministic(tmp_path):
    ds = dh.generate(make_backdoor_config(n_subjects=300))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dh.save_dataset(ds, p1)
    dh.save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert cache_of(p1).read_bytes() == cache_of(p2).read_bytes()


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
    # the cache: the magic, the CSV's sha256, the payload's CRC-32 and the
    # payload, each column's little-endian bytes in turn, events one byte each
    columns = [ds.time.astype("<f8"), ds.event.astype("u1"), *ds.covariates.T.astype("<f8"), ds.u_latent.astype("<f8")]
    payload = b"".join(c.tobytes() for c in columns)
    crc = zlib.crc32(payload).to_bytes(4, "little")
    assert cache_of(path).read_bytes() == b"DOHCOLS1" + hashlib.sha256(path.read_bytes()).digest() + crc + payload


def percent_template_body(dataset):
    """The rows as save_dataset wrote them with a repeated '%.17g'/'%d'
    row template, one %-substitution per value: the reference its numpy
    formatter must match byte for byte."""
    columns = [dataset.time, dataset.event] + list(dataset.covariates.T)
    if dataset.u_latent is not None:
        columns.append(dataset.u_latent)
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * (len(columns) - 2)) + "\r\n"
    return "".join(row % values for values in zip(*(c.tolist() for c in columns))).encode()


def assert_saved_as_percent_template(path, dataset):
    """Save the dataset at path and check its body against the reference;
    returns how many values the formatter handed to Python's '%.17g' %."""
    handed = []
    real = cohort._python_formatted

    def python_formatted(values, sep):
        handed.append(len(values))
        return real(values, sep)

    with mock.patch.object(cohort, "_python_formatted", python_formatted):
        dh.save_dataset(dataset, path)
    header, body = path.read_bytes().split(b"\r\n", 1)
    assert body == percent_template_body(dataset)
    return sum(handed)


# %.17g's edges: zeros, subnormals, the switch between fixed and exponent
# notation at 1e-4 and 1e17, the exact path's limits at 1e-4 and 2**52,
# powers of ten and their neighbours (where a float log10 overshoots), and
# exact ties that round half to even, down and up
FORMAT_EDGES = sorted(
    {0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 0.1, 1.0 / 3.0}
    | {float(f"{m}e{k}") for m in ("1", "9.999999999999999", "9.99999999999999999") for k in range(-6, 19)}
    | {math.nextafter(float(f"1e{k}"), to) for k in range(-6, 19) for to in (0.0, math.inf)}
    | {v for p in (2.0**52, 2.0**53) for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))}
    | {123456789012345.625, 123456789012345.875}
)
FORMAT_EDGES = FORMAT_EDGES + [-v for v in FORMAT_EDGES]


def random_doubles(rng, n):
    """Finite float64 values from uniform random bit patterns, a quarter of
    them replaced by the edges of the format."""
    values = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 1.5
    edges = rng.random(n) < 0.25
    values[edges] = rng.choice(FORMAT_EDGES, size=int(edges.sum()))
    return values


@pytest.mark.parametrize("n", [CHUNK_EDGE - 1, CHUNK_EDGE + 1])
def test_save_matches_the_percent_template(tmp_path, n):
    # across block edges, with a u_latent column: random bit
    # patterns (mostly outside the exact path's range), the format's edges,
    # and a generated cohort's values (mostly inside it)
    rng = np.random.default_rng(n)
    cohort = dh.generate(make_frontdoor_config(n_subjects=n))
    ds = dh.Dataset(
        time=np.where(rng.random(n) < 0.5, np.abs(random_doubles(rng, n)), cohort.time).clip(5e-324),
        event=cohort.event,
        covariates=np.stack([random_doubles(rng, n), cohort.column("x"), cohort.column("z")], axis=1),
        covariate_names=["bits", "x", "z"],
        u_latent=np.where(rng.random(n) < 0.5, random_doubles(rng, n), cohort.u_latent),
    )
    handed = assert_saved_as_percent_template(tmp_path / "cohort.csv", ds)
    assert 0 < handed < 5 * ds.n  # both paths ran


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_save_matches_the_percent_template_on_any_double(tmp_path_factory, data):
    doubles = (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(FORMAT_EDGES)
        | st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(math.isfinite)
    )
    n = data.draw(st.integers(1, 40))
    values = data.draw(st.lists(doubles, min_size=3 * n, max_size=3 * n))
    ds = dh.Dataset(
        time=np.abs(values[:n]).clip(5e-324),
        event=data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        covariates=np.reshape(values[n:], (n, 2)),
        covariate_names=["x", "z"],
    )
    assert_saved_as_percent_template(tmp_path_factory.mktemp("format") / "cohort.csv", ds)


@pytest.mark.parametrize("off", [-1, 1])
def test_save_checks_its_exponent_estimate(tmp_path, monkeypatch, off):
    # a decimal exponent one off makes the exact path's digit string one
    # digit long or short; the check on its length sends such a value to
    # Python's formatter instead of printing wrong digits
    estimate = cohort._decimal_exponents
    monkeypatch.setattr(cohort, "_decimal_exponents", lambda magnitudes: estimate(magnitudes) + off)
    edges = np.array(FORMAT_EDGES)
    drawn = dh.generate(make_frontdoor_config(n_subjects=len(edges)))
    ds = dh.Dataset(
        time=drawn.time, event=drawn.event, covariates=edges[:, None], covariate_names=["x"], u_latent=drawn.u_latent
    )
    assert_saved_as_percent_template(tmp_path / "cohort.csv", ds)


def test_save_takes_both_paths_on_the_edges(tmp_path):
    edges = np.array(FORMAT_EDGES)
    ds = dh.Dataset(
        time=np.abs(edges).clip(5e-324),
        event=np.arange(len(edges)) % 2,
        covariates=edges[:, None],
        covariate_names=["x"],
        u_latent=edges[::-1],
    )
    handed = assert_saved_as_percent_template(tmp_path / "cohort.csv", ds)
    assert 0 < handed < 3 * len(edges)


def test_save_formats_a_tied_maximum_once_per_column(tmp_path):
    # columns mostly at their maximum, across block edges:
    # times censored at the horizon; a covariate mostly 0.0 with -0.0 rows
    # (equal values, other text); maxima that Python's formatter writes
    # (2**53, 1e-5, the last column); a block exactly half tied and one
    # tied but for one row
    n = 3 * _BLOCK + 1
    rng = np.random.default_rng(5)
    tied = rng.random(n) < 0.9
    time = np.where(rng.random(n) < 0.97, 10.0, rng.uniform(0.1, 10.0, n))
    zero = np.where(rng.random(n) < 0.1, -0.0, np.where(tied, 0.0, -rng.random(n)))
    big = np.where(tied, 2.0**53, rng.uniform(-1e3, 1e3, n))
    big[:_BLOCK] = np.where(np.arange(_BLOCK) % 2 == 0, 2.0**53, 1.0 / 3.0)
    big[_BLOCK:2 * _BLOCK] = 2.0**53
    big[_BLOCK + 17] = 0.5
    small = np.where(tied, 1e-5, -rng.random(n))
    ds = dh.Dataset(
        time=time,
        event=rng.random(n) < 0.03,
        covariates=np.stack([zero, big], axis=1),
        covariate_names=["zero", "big"],
        u_latent=small,
    )
    handed = assert_saved_as_percent_template(tmp_path / "cohort.csv", ds)
    # written one by one, the zeros, 2**53 and 1e-5 would hand Python about
    # 2.8 values a row; the tied ones are handed once per column
    assert handed < 1.5 * n


def test_save_lays_out_only_values_from_10_up_byte_by_byte(tmp_path):
    # a value below 10 is written as words; only an exact-path value from
    # 10 up goes through the _LAYOUT gather (_fixed_texts). A rare-outcome
    # cohort with horizon 10 has no such value, its horizon being formatted
    # once per column; the same cohort's times in days, times 36.5, have one
    # per time that is neither tied at the horizon nor below 10
    laid_out = []
    real = cohort._fixed_texts

    def fixed_texts(sign, *args):
        laid_out.append(len(sign))
        return real(sign, *args)

    drawn = dh.generate(make_backdoor_config(n_subjects=CHUNK_EDGE + 1))
    assert drawn.time.max() == 10.0 and np.abs(drawn.covariates).max() < 10.0
    with mock.patch.object(cohort, "_fixed_texts", fixed_texts):
        assert_saved_as_percent_template(tmp_path / "cohort.csv", drawn)
        assert laid_out == []
        days = dh.Dataset(drawn.time * 36.5, drawn.event, drawn.covariates, drawn.covariate_names)
        assert_saved_as_percent_template(tmp_path / "days.csv", days)
    assert sum(laid_out) == np.count_nonzero((days.time >= 10.0) & (days.time < days.time.max())) > 0


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
    with mock.patch.object(cohort, "_count_lines", refuse_csv_reader):
        from_cache = dh.load_dataset(path)
    for back in (from_cache, load_csv(path)):
        assert_same_cohort(back, ds)
        assert back.covariates.flags.f_contiguous


def test_load_row_parser_reads_what_the_fast_path_refuses(tmp_path):
    # quoted fields, blank lines, a padded number and an event spelled 1.0
    # read as they always have; 2_5 and a fullwidth digit, which float()
    # takes but numpy does not, are refused with the line they are on
    path = tmp_path / "odd.csv"
    odd = b'time,event,x\r\n"1.5",1,0.25\r\n\r\n%s,"0", -3\r\n3,1.0,1e-3'
    path.write_bytes(odd % b"25")
    ds = dh.load_dataset(path)
    assert ds.time.tolist() == [1.5, 25.0, 3.0]
    assert ds.event.tolist() == [True, False, True]
    assert ds.column("x").tolist() == [0.25, -3.0, 1e-3]
    for value in ["2_5", "\uff11"]:
        path.write_bytes(odd % value.encode())
        with pytest.raises(dh.ParseError, match=rf"odd.csv:4: could not convert string to float: '{value}'$"):
            dh.load_dataset(path)


def quote_first_field(path):
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    path.write_bytes(b"\r\n".join([header, b'"' + first.replace(b",", b'",', 1), rest]))


@pytest.mark.parametrize("quote", [False, True], ids=["loadtxt", "quoted"])
def test_loaded_dataset_holds_no_parse_buffer(tmp_path, quote):
    _, path = saved_cohort(tmp_path, 500)
    if quote:
        quote_first_field(path)
    ds = dh.load_dataset(path)
    for name in ("time", "event", "covariates", "u_latent"):
        column = held = getattr(ds, name)
        while held.base is not None:
            held = held.base
        # a view into the parsed table would keep every column of it alive
        assert held.nbytes == column.nbytes, name


def refuse_csv_reader(*args):
    raise AssertionError("a cohort with a sound column cache must not be parsed")


@pytest.mark.parametrize("n", [1, CHUNK_EDGE - 1, CHUNK_EDGE, CHUNK_EDGE + 1, 2 * CHUNK_EDGE + 3])
def test_load_fills_the_columns_chunk_by_chunk(tmp_path, n):
    # rows on both sides of each chunk edge land in their own places, and a
    # body that ends on a chunk edge reads no phantom chunk after it
    dataset, path = saved_cohort(tmp_path, n)
    assert_same_cohort(dh.load_dataset(path), dataset)


def _blank_line_at_chunk_edge(rows):
    return rows[:CHUNK_EDGE - 1] + [b""] + rows[CHUNK_EDGE - 1:]


@pytest.mark.parametrize(
    "edit",
    [
        _blank_line_at_chunk_edge,
        lambda rows: [b"", b""] + rows + [b"", b""],
        lambda rows: rows[:3] + [b""] * 3 + rows[3:],
    ],
    ids=["blank_line_at_chunk_edge", "blank_lines_around_body", "blank_lines_inside"],
)
@pytest.mark.parametrize("final_newline", [True, False], ids=["final_newline", "no_final_newline"])
@pytest.mark.parametrize("n", [CHUNK_EDGE, CHUNK_EDGE + 2])
def test_load_skips_blank_lines(tmp_path, edit, final_newline, n):
    # numpy warns once per blank line when it reads a chunk; the loader must
    # neither let that warning out (pytest makes it an error) nor count the
    # blank lines as rows
    dataset, path = saved_cohort(tmp_path, n)
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]
    path.write_bytes(b"\r\n".join([header] + edit(rows)) + b"\r\n" * final_newline)
    loaded = dh.load_dataset(path)
    assert_same_cohort(loaded, dataset)
    assert loaded.covariates.flags.f_contiguous  # the layout every loaded cohort has


@pytest.mark.parametrize("n", [1, CHUNK_EDGE, CHUNK_EDGE + 1])
def test_load_reads_a_last_row_without_line_end(tmp_path, n):
    dataset, path = saved_cohort(tmp_path, n)
    path.write_bytes(path.read_bytes()[:-2])
    assert_same_cohort(dh.load_dataset(path), dataset)


def _one_lone_cr(data):
    cut = data.index(b"\r\n", len(data) // 2)
    return data[:cut] + b"\r" + data[cut + 2:]


@pytest.mark.parametrize(
    "ends",
    [
        lambda data: data.replace(b"\r\n", b"\r"),
        _one_lone_cr,
        lambda data: _one_lone_cr(data).replace(b"\r\n", b"\n"),
    ],
    ids=["cr_only", "crlf_and_a_lone_cr", "lf_and_a_lone_cr"],
)
@pytest.mark.parametrize("n", [3, CHUNK_EDGE + 1])
def test_load_reads_every_line_end(tmp_path, ends, n):
    # "\r", "\n" and "\r\n" each end a row, also where lone CRs and lone
    # LFs meet in one file; at n = CHUNK_EDGE + 1 the row after the
    # last whole chunk must still be read
    dataset, path = saved_cohort(tmp_path, n)
    path.write_bytes(ends(path.read_bytes()))
    assert_same_cohort(dh.load_dataset(path), dataset)


def test_load_reads_a_header_that_spans_lines(tmp_path):
    # a quoted header name holding a lone CR and a lone LF: the header's
    # three lines hold more line ends than the count of either kind sees
    path = tmp_path / "header.csv"
    header = b'time,"a\rb\nc",event\r\n'
    path.write_bytes(header + b"1.5,0.25,1\r\n2,0.5,0\r\n")
    ds = dh.load_dataset(path)
    assert ds.time.tolist() == [1.5, 2.0]
    assert ds.event.tolist() == [True, False]
    assert ds.covariate_names == ["a\rb\nc"]
    assert ds.covariates.tolist() == [[0.25], [0.5]]
    path.write_bytes(header)
    with pytest.raises(dh.ValidationError, match="no data rows"):
        dh.load_dataset(path)


# LF, CRLF and CR: each ends one line for the text layer, numpy and csv alike
LINE_ENDS = (b"\n", b"\r\n", b"\r")


def in_a_random_dialect(lines, seed, at_chunk_edge):
    """The CSV lines (the header, then the rows, without line ends) as one
    file's bytes in a random dialect, and the offset at which each line
    starts: any field quoted; each line ended by LF, CRLF or CR; blank
    lines after any line; and now and then a line end inside a quoted data
    field, before or after its number. When at_chunk_edge, the rows on both
    sides of the chunk edge at CHUNK_EDGE rows each quote a line end, and a
    blank line lies between them."""
    rng = np.random.default_rng(seed)
    shape = (len(lines), lines[0].count(b",") + 1)
    p_quote, p_blank = rng.random(2)  # this file's shares of quoted fields and of lines followed by blanks
    quoted = rng.random(shape) < p_quote
    inner = np.where(rng.random(shape) < 0.02, rng.integers(1, 4, shape), 0)  # 1 + the index of a line end
    inner[0] = 0  # a header name keeps its text
    before = rng.random(shape) < 0.5
    ends = rng.integers(0, 3, len(lines))
    blanks = np.where(rng.random(len(lines)) < p_blank, rng.integers(1, 3, len(lines)), 0)
    if at_chunk_edge and len(lines) > CHUNK_EDGE + 1:
        edge = [CHUNK_EDGE, CHUNK_EDGE + 1]  # the header is line 0
        quoted[edge, 0] = True
        inner[edge, 0] = rng.integers(1, 4, 2)
        blanks[CHUNK_EDGE] += 1
    out, starts = bytearray(), []
    for k, line in enumerate(lines):
        starts.append(len(out))
        fields = line.split(b",")
        for j in np.flatnonzero(quoted[k]):
            end = LINE_ENDS[inner[k, j] - 1] if inner[k, j] else b""
            fields[j] = b'"' + (end + fields[j] if before[k, j] else fields[j] + end) + b'"'
        # a blank line repeats its line's end, so that no LF follows a CR
        out += b",".join(fields) + LINE_ENDS[ends[k]] * (1 + blanks[k])
    return bytes(out), starts


# no shrinking: a smaller seed is no simpler a file, so shrinking would
# only read more cohorts of up to 16385 rows
@settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    n=st.sampled_from([CHUNK_EDGE - 1, CHUNK_EDGE + 1]) | st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    at_chunk_edge=st.booleans(),
)
@example(n=CHUNK_EDGE + 1, seed=0, at_chunk_edge=True)
def test_load_reads_any_dialect_bit_for_bit(tmp_path_factory, n, seed, at_chunk_edge):
    dataset, path = saved_cohort(tmp_path_factory.mktemp("dialect"), n)
    lines = path.read_bytes().split(b"\r\n")[:-1]
    data, _ = in_a_random_dialect(lines, seed, at_chunk_edge)
    path.write_bytes(data)
    assert_same_cohort(dh.load_dataset(path), dataset)
    # the same file with one bad token: the error names the line its row starts on
    rng = np.random.default_rng(seed)
    row = int(rng.integers(1, len(lines)))
    fields = lines[row].split(b",")
    fields[rng.integers(len(fields))] = b"oops"
    lines[row] = b",".join(fields)
    data, starts = in_a_random_dialect(lines, seed, at_chunk_edge)
    path.write_bytes(data)
    line = len(data[:starts[row]].splitlines()) + 1
    with pytest.raises(dh.ParseError, match=rf"cohort.csv:{line}: could not convert string to float: '[^']*oops[^']*'$"):
        dh.load_dataset(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"\r", b"\n", b"0", b","])).map(b"".join))
def test_count_lines_is_the_count_of_splitlines(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("lines") / "lines.csv"
    path.write_bytes(data)
    assert cohort._count_lines(path) == len(data.splitlines())


@pytest.mark.parametrize("edge", [b"\r\n", b"\r0", b"\n\r", b"0\r"], ids=["crlf", "lone_cr", "lf_cr", "cr_after"])
def test_count_lines_across_the_read_boundary(tmp_path, edge):
    # the first byte of edge is the last of the scan's first 1 MiB read
    head = b"0,0\r\n" * 200_000
    data = head + b"0" * (2**20 - 1 - len(head)) + edge + b"0\n0"
    path = tmp_path / "lines.csv"
    path.write_bytes(data)
    assert cohort._count_lines(path) == len(data.splitlines())


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held_bytes(dataset):
    return sum(a.nbytes for a in (dataset.time, dataset.event, dataset.covariates, dataset.u_latent))


# One more cohort-sized float64 array at n=200_000 takes 1.6 MB.
_ONE_COLUMN = 8 * 200_000


def test_generate_fills_the_cohort_block_by_block():
    dh.generate(make_frontdoor_config(n_subjects=1_000, censor_rate=0.02))  # first-call allocations
    dataset, peak = _traced_peak(lambda: dh.generate(make_frontdoor_config(n_subjects=200_000, censor_rate=0.02)))
    # the cohort takes 6.6 MB; the whole-array draw held 6.8 MB more
    assert peak < _held_bytes(dataset) + _ONE_COLUMN


def test_load_fills_the_cohort_chunk_by_chunk(tmp_path):
    _, small = saved_cohort(tmp_path, 1_000)
    dh.load_dataset(small)  # first-call allocations
    _, path = saved_cohort(tmp_path, 200_000)
    dataset, peak = _traced_peak(lambda: dh.load_dataset(path))
    # the cohort takes 6.6 MB; a table of the whole body held 8.4 MB more
    assert peak < _held_bytes(dataset) + _ONE_COLUMN


def test_load_reads_the_cache_chunk_by_chunk(tmp_path, monkeypatch):
    _, small = saved_with_cache(tmp_path, 1_000)
    dh.load_dataset(small)  # first-call allocations
    want, path = saved_with_cache(tmp_path, 200_000)
    monkeypatch.setattr(cohort, "_count_lines", refuse_csv_reader)
    dataset, peak = _traced_peak(lambda: dh.load_dataset(path))
    assert_same_cohort(dataset, want)
    assert peak < _held_bytes(dataset) + _ONE_COLUMN


def test_load_fills_a_quoted_cohort_chunk_by_chunk(tmp_path):
    _, small = saved_cohort(tmp_path, 1_000)
    dh.load_dataset(small)  # first-call allocations
    want, path = saved_cohort(tmp_path, 200_000)
    quote_first_field(path)
    dataset, peak = _traced_peak(lambda: dh.load_dataset(path))
    assert_same_cohort(dataset, want)
    # a list of every row as Python floats, as a csv row loop builds, held 64 MB more
    assert peak < _held_bytes(dataset) + _ONE_COLUMN


def sound_cache(path, n):
    """The magic, digest, CRC and payload of a sound cache for the CSV at
    path that reads each of its n times one greater, so that using it shows."""
    data = cache_of(path).read_bytes()
    payload = (np.frombuffer(data, "<f8", count=n, offset=44) + 1.0).astype("<f8").tobytes() + data[44 + 8 * n:]
    return with_payload({"magic": data[:8], "digest": data[8:40]}, payload)


def with_payload(parts, payload):
    return {**parts, "crc": zlib.crc32(payload).to_bytes(4, "little"), "payload": payload}


def write_cache(path, parts):
    cache_of(path).write_bytes(b"".join(parts[k] for k in ("magic", "digest", "crc", "payload")))


def test_load_trusts_a_sound_cache(tmp_path):
    # the positive control of the tests below: a cache in the right layout
    # that records the CSV's digest is read instead of the CSV
    want, path = saved_with_cache(tmp_path)
    write_cache(path, sound_cache(path, want.n))
    got = dh.load_dataset(path)
    assert got.time.tobytes() == (want.time + 1.0).tobytes()
    assert got.covariates.flags.f_contiguous and got.covariates.base is None


def _set_byte(data, at, value):
    return data[:at] + bytes([value]) + data[at + 1:]


# Each damage leaves the CRC of the payload it writes, so that only the
# check it names refuses it, except a flipped byte and a trailing byte that
# the sound CRC does not cover. The cohort has n rows of time, event, x, z
# and u_latent.
CACHE_LAYOUT_DAMAGE = {
    "wrong_magic": lambda c, n: {**c, "magic": b"DOHCOLS2"},
    "other_digest": lambda c, n: {**c, "digest": _set_byte(c["digest"], 0, c["digest"][0] ^ 1)},
    "one_byte_short": lambda c, n: with_payload(c, c["payload"][:-1]),
    "one_byte_long": lambda c, n: {**c, "payload": c["payload"] + b"\0"},
    "no_rows": lambda c, n: with_payload(c, b""),
    "flipped_payload_byte": lambda c, n: {**c, "payload": _set_byte(c["payload"], 0, c["payload"][0] ^ 1)},
    "event_of_2": lambda c, n: with_payload(c, _set_byte(c["payload"], 8 * n, 2)),
    "one_covariate": lambda c, n: with_payload(c, c["payload"][:17 * n] + c["payload"][25 * n:]),
}


@pytest.mark.parametrize("damage", CACHE_LAYOUT_DAMAGE.values(), ids=CACHE_LAYOUT_DAMAGE)
def test_load_reads_the_csv_past_a_cache_of_another_layout(tmp_path, damage):
    want, path = saved_with_cache(tmp_path)
    write_cache(path, damage(sound_cache(path, want.n), want.n))
    assert_same_cohort(dh.load_dataset(path), want)


def _flip_middle_byte(data):
    middle = len(data) // 2
    return _set_byte(data, middle, data[middle] ^ 1)


CACHE_FILE_DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "flipped_byte": _flip_middle_byte,
    "not_a_cache": lambda data: b"time,event\r\n",
    "cut_in_crc": lambda data: data[:42],
    "empty": lambda data: b"",
}


@pytest.mark.parametrize("damage", CACHE_FILE_DAMAGE.values(), ids=CACHE_FILE_DAMAGE)
def test_load_reads_the_csv_past_a_damaged_cache(tmp_path, damage):
    want, path = saved_with_cache(tmp_path)
    cache_of(path).write_bytes(damage(cache_of(path).read_bytes()))
    assert_same_cohort(dh.load_dataset(path), want)


def test_save_cut_off_in_the_cache_leaves_the_old_one_whole(tmp_path):
    # the cache goes to a temporary name first: a save stopped while writing
    # it leaves no temporary and the old cache as it was, whose digest no
    # longer matches, so the next load parses the new CSV
    _, path = saved_with_cache(tmp_path)
    old = cache_of(path).read_bytes()
    new = dh.generate(make_frontdoor_config(n_subjects=60))
    with mock.patch.object(cohort.zlib, "crc32", side_effect=KeyboardInterrupt), pytest.raises(KeyboardInterrupt):
        dh.save_dataset(new, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "cohort.csv.cols"]
    assert cache_of(path).read_bytes() == old
    assert_same_cohort(dh.load_dataset(path), new)


def test_save_and_load_leave_an_old_npz_cache_alone(tmp_path):
    want, path = saved_with_cache(tmp_path)
    npz = path.with_name(path.name + ".npz")
    npz.write_bytes(b"PK\5\6" + bytes(18))  # an empty zip archive
    assert_same_cohort(load_csv(path), want)
    dh.save_dataset(want, path)
    assert_same_cohort(dh.load_dataset(path), want)
    assert npz.read_bytes() == b"PK\5\6" + bytes(18)


def test_load_reads_an_edited_csv_not_its_cache(tmp_path):
    want, path = saved_with_cache(tmp_path)
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    path.write_bytes(b"\r\n".join([header, b"1.25" + first[first.index(b","):], rest]))
    got = dh.load_dataset(path)
    assert got.time[0] == 1.25
    assert got.time[1:].tobytes() == want.time[1:].tobytes()
    assert_same_cohort(got, load_csv(path))


def test_load_raises_on_a_bad_row_despite_the_cache(tmp_path):
    # the same error, line number included, as the CSV reader gives alone
    _, path = saved_with_cache(tmp_path)
    rows = path.read_bytes().split(b"\r\n")
    rows[3] = b"oops" + rows[3][rows[3].index(b","):]
    path.write_bytes(b"\r\n".join(rows))
    with pytest.raises(dh.ParseError, match=r"cohort.csv:4: could not convert string to float: 'oops'$"):
        dh.load_dataset(path)
    cache_of(path).unlink()
    with pytest.raises(dh.ParseError, match=r"cohort.csv:4: could not convert string to float: 'oops'$"):
        dh.load_dataset(path)


def test_load_never_reads_a_cache_without_its_csv(tmp_path):
    _, path = saved_with_cache(tmp_path)
    path.unlink()
    assert cache_of(path).exists()
    with pytest.raises(FileNotFoundError):
        dh.load_dataset(path)


def test_load_takes_the_roles_from_the_csv_header(tmp_path):
    # a CSV column named u_latent is the hidden column wherever it stands;
    # the cache holds the columns in the CSV's order, so it may be read only
    # where that is the order of the loaded columns: u_latent last. Dataset
    # refuses a covariate of that name, so the CSV and its cache are written
    # here as save_dataset wrote them while it took one.
    path = tmp_path / "cohort.csv"
    for names, covariates in [(["u_latent"], [[0.5], [0.25]]), (["a", "u_latent", "b"], [[3.0, 0.5, 4.0], [5.0, 0.25, 6.0]])]:
        rows = [["time", "event", *names]] + [[f"{t:.17g}", d, *(f"{v:.17g}" for v in row)]
                                              for t, d, row in zip([1.0, 2.0], [1, 0], covariates)]
        data = "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()
        path.write_bytes(data)
        columns = [np.array([1.0, 2.0]), np.array([True, False]), *np.array(covariates).T]
        cohort._write_cache(columns, path, hashlib.sha256(data).digest())
        got = dh.load_dataset(path)
        assert got.covariate_names == [n for n in names if n != "u_latent"] and got.u_latent.tolist() == [0.5, 0.25]
        assert_same_cohort(got, load_csv(path))


@pytest.mark.parametrize("quoted", [False, True], ids=["chunk_reader", "quoted"])
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, quoted):
    # far enough into the body that the header read, which decodes the
    # file's first 8 KiB, does not reach it
    rows = [b"time,event,x"] + [b"%d.5,1,0.25" % k for k in range(1, 2000)]
    if quoted:
        rows[1] = b'"1.5",1,0.25'
    rows[1500] = b"1500.5,1,0.\xe9"
    path = tmp_path / "cohort.csv"
    path.write_bytes(b"\r\n".join(rows) + b"\r\n")
    message = r"cohort.csv:1501: not UTF-8: .* position 11: unexpected end of data$"
    with pytest.raises(dh.ParseError, match=message):
        dh.load_dataset(path)


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

    # a column given twice is refused, not read from its first copy
    for header, role in [("time,event,x,event", "event"), ("time,event,time,x", "time"), ("time,event,u_latent,u_latent", "u_latent"), ("time,event,x,x", "x")]:
        path.write_text(header + "\n1.0,1,0.5,0\n")
        with pytest.raises(dh.ValidationError, match=rf"bad.csv: column '{role}' appears more than once$"):
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


@pytest.mark.parametrize(
    "text, line",
    [
        (b'time,"a\nb",event\n1.0,0.5,1\noops,0.1,0\n', 4),
        (b'time,"a\r\nb",event\r\n1.0,0.5,1\r\noops,0.1,0\r\n', 4),
        (b'time,event,x\r\n1,1,"0.5\r\n"\r\n2,oops,0.1\r\n', 4),
        (b'time,event,x\n"1\n\n",1,0.5\n\n2,oops,0.1\n', 6),
        ("time,event,x\n\u00a01.5\u2003,1,0.5\noops,1,0.1\n".encode(), 3),
    ],
    ids=["header_spans_lines", "header_spans_crlf_lines", "field_spans_lines", "field_spans_lines_then_blank", "spaces"],
)
def test_load_names_the_line_a_bad_record_starts_on(tmp_path, text, line):
    # line numbers count lines, not records, when a quoted header name or
    # field holds a line end; numpy and the scan both take a number padded
    # with non-ASCII spaces
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(dh.ParseError, match=rf":{line}: could not convert string to float: 'oops'"):
        dh.load_dataset(path)


def test_config_json_roundtrip(tmp_path):
    cfg = make_frontdoor_config(censor_rate=0.01, n_subjects=123)
    raw = cfg.to_dict()
    assert dh.ScenarioConfig.from_dict(raw) == cfg
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert dh.load_scenario_config(path) == cfg
    # to_dict writes only the keys from_dict knows, for every hazard and z law
    cfg = make_backdoor_config(baseline_hazard=dh.WeibullHazard(1.5, 120.0), z_dist=dh.BernoulliZ(0.3))
    assert dh.ScenarioConfig.from_dict(cfg.to_dict()) == cfg


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
    # a frontdoor Z is the mediator line: a Z law would be echoed, not drawn
    raw = {**make_frontdoor_config().to_dict(), "z_dist": {"kind": "bernoulli", "p": 0.3}}
    with pytest.raises(dh.ValidationError, match="z_dist"):
        dh.ScenarioConfig.from_dict(raw)
    with pytest.raises(dh.ValidationError, match="z_dist"):
        make_frontdoor_config(z_dist=dh.BernoulliZ(0.3))
    # every scenario number is a finite JSON number, and a refusal names
    # its dotted field: no string, boolean, list or float-overflowing int
    # passes, and none escapes as a TypeError or an OverflowError
    weibull = {"kind": "weibull", "shape": 1.5, "scale": 120.0}
    for section, value, field in [
        ("baseline_hazard", {"kind": "exponential", "rate": "0.002"}, "baseline_hazard.rate"),
        ("baseline_hazard", {"kind": "exponential", "rate": True}, "baseline_hazard.rate"),
        ("baseline_hazard", {"kind": "exponential", "rate": [1]}, "baseline_hazard.rate"),
        ("baseline_hazard", {**weibull, "shape": "1.5"}, "baseline_hazard.shape"),
        ("baseline_hazard", {**weibull, "scale": 10**400}, "baseline_hazard.scale"),
        ("z_dist", {"kind": "bernoulli", "p": True}, "z_dist.p"),
        ("z_dist", {"kind": "bernoulli", "p": "0.5"}, "z_dist.p"),
        ("beta_x", True, "coefficients.beta_x"),
        ("beta_x", "0.3", "coefficients.beta_x"),
        ("beta_z", 10**400, "coefficients.beta_z"),
        ("horizon_t", 10**400, "horizon_t"),
        ("censor_rate", 10**400, "censor_rate"),
    ]:
        raw = make_backdoor_config().to_dict()
        if section.startswith("beta"):
            raw["coefficients"][section] = value
        else:
            raw[section] = value
        with pytest.raises(dh.ValidationError, match=f"field '{field}' must be a finite number"):
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
    for event in ([2, 0, 1], [0.5, 0, 1], [math.nan, 0, 1]):
        with pytest.raises(dh.ValidationError, match="event"):
            dh.Dataset(time=[1.0, 2.0, 3.0], event=event, covariates=np.zeros((3, 1)), covariate_names=["x"])
    ds = dh.Dataset(time=[1.0, 2.0, 3.0], event=[1, 0, 1], covariates=np.zeros((3, 1)), covariate_names=["x"])
    assert ds.event.tolist() == [True, False, True] and ds.n_events == 2
    # save_dataset writes these columns beside the covariates, and a CSV
    # that repeats a column name cannot be loaded
    for name in ("time", "event", "u_latent"):
        with pytest.raises(dh.ValidationError, match=name):
            dh.Dataset(time=[1.0, 2.0], event=[1, 0], covariates=np.zeros((2, 2)), covariate_names=["x", name])


def test_dataset_column_lookup():
    ds = dh.generate(make_frontdoor_config(n_subjects=5))
    assert np.array_equal(ds.column("x"), ds.covariates[:, 0])
    assert np.array_equal(ds.column("z"), ds.covariates[:, 1])
    with pytest.raises(dh.InvalidArgumentError, match="unknown covariate"):
        ds.column("w")


def test_generate_fills_column_major_covariates():
    # as load_dataset does, so that Dataset copies neither cohort and each
    # covariate is one contiguous column
    assert dh.generate(make_frontdoor_config(n_subjects=_BLOCK + 3)).covariates.flags.f_contiguous


def test_a_row_major_cohort_is_stored_column_major_with_the_same_outputs(backdoor_fit):
    cohort = dh.generate(make_backdoor_config(n_subjects=2 * _BLOCK + 8))
    row_major = np.ascontiguousarray(cohort.covariates)
    dataset = dh.Dataset(cohort.time, cohort.event, row_major, cohort.covariate_names)
    assert dataset.covariates.flags.f_contiguous and not row_major.flags.f_contiguous
    assert dataset.covariates.tobytes(order="F") == cohort.covariates.tobytes(order="F")

    def fitted(ds, names=None):
        fit = dh.fit_cox(ds, names)
        return [np.asarray(f).tobytes() for f in (fit.beta, fit.covariance, fit.baseline_cumhaz.values)]

    def outputs(ds):
        return fitted(ds) + fitted(ds, ["z", "x"]) + [
            repr(dh.compute_az(ds, backdoor_fit, ["z"])),
            repr(dh.approx_error_report(backdoor_fit, ds, 10.0)),
            repr(dh.ols_fit(ds.column("x"), ds.column("z"))),
        ]

    assert outputs(dataset) == outputs(cohort)


# Property tests of the one structural model: draw_scm serves both the
# cohort generator and the intervention oracle, so an intervention must
# leave what X does not cause untouched, and generate must be its censoring.

@st.composite
def scm_scenarios(draw, **coefficient_overrides):
    """A small scenario over both DAGs, both baseline kinds and, for the
    backdoor DAG, both Z laws."""
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
    if dag_kind == "backdoor" and draw(st.booleans()):
        z_dist = dh.BernoulliZ(draw(st.floats(0.0, 1.0)))
    else:
        z_dist = dh.StandardNormalZ()
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
    x, z, u, _ = draw_scm(config, n, seed, offset)
    x_do, z_do, u_do, _ = draw_scm(config, n, seed, offset, x_forced=x_value)
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
    factual = draw_scm(config, n, seed, offset)[3]
    forced = draw_scm(config, n, seed, offset, x_forced=x_value)[3]
    assert forced.tobytes() == factual.tobytes()


@scm_settings
@given(scm_scenarios())
def test_generate_censors_one_scm_draw(config):
    x, z, u, failure = draw_scm(config, config.n_subjects, config.seed)
    ds = dh.generate(config)
    assert ds.time[ds.event].tobytes() == failure[ds.event].tobytes()
    assert np.all(ds.time <= failure)
    assert ds.covariates.tobytes() == np.column_stack([x, z]).tobytes()
    assert (ds.u_latent is None) == (u is None)
    if u is not None:
        assert ds.u_latent.tobytes() == u.tobytes()


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("censor_rate", [0.0, 0.05])
@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_generate_is_the_censored_whole_array_draw(make_config, censor_rate, n):
    # generate censors each block with the next draws of one censoring
    # stream (id 5); the blocks must join into the whole-array cohort
    config = make_config(n_subjects=n, censor_rate=censor_rate)
    x, z, u, failure = draw_scm(config, n, config.seed)
    if censor_rate > 0:
        censoring = np.minimum(config.horizon_t, dh.RngStream(config.seed, 5).exponential(censor_rate, n))
    else:
        censoring = np.full(n, config.horizon_t)
    event = failure <= censoring
    ds = dh.generate(config)
    assert ds.event.tobytes() == event.tobytes()
    assert ds.time.tobytes() == np.where(event, failure, censoring).tobytes()
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
    failure = structural_failure_times(-np.log1p(-stream(4).uniform(n)), eta, config.baseline_hazard)
    return x, z, u, failure


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("x_forced", [None, 1.5])
@pytest.mark.parametrize(
    "hazard", [dh.ExponentialHazard(0.002), dh.WeibullHazard(1.5, 120.0)], ids=["exponential", "weibull"]
)
@pytest.mark.parametrize("make_config", [make_backdoor_config, make_frontdoor_config], ids=["backdoor", "frontdoor"])
def test_draw_scm_is_block_invariant(make_config, hazard, x_forced, n):
    config = make_config(baseline_hazard=hazard)
    got = draw_scm(config, n, 11, 16, x_forced=x_forced)
    want = whole_array_scm(config, n, 11, 16, x_forced)
    for name, a, b in zip(("x", "z", "u", "failure"), got, want):
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == (n,) and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
def test_draw_scm_pinned_digests(pinned_sha256, dag):
    # the reference scenarios' columns at n=40_000
    check(DRAW_SCM[dag], pinned_sha256)


@pytest.mark.parametrize("n", [0, -5])
def test_draw_scm_rejects_empty_draw(backdoor_config, n):
    with pytest.raises(dh.InvalidArgumentError, match=f"^n must be >= 1, got {n}$"):
        draw_scm(backdoor_config, n, 1)
