import contextlib
import dataclasses
import math
import re
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dohazard as dh
from dohazard import oracle
from dohazard.oracle import _BAND, _TERMS, _bands, _event_counts, _paf, _ratio, oracle_paf, simulate_factual
from dohazard.stats import _BLOCK

from conftest import make_backdoor_config, make_frontdoor_config, make_strong_confounding_config
from truth import draw_scm, incidence, whole_array_eta


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
    dataset = dh.generate(make_backdoor_config(n_subjects=n))
    dh.approx_error_report(backdoor_fit, dataset, 10.0)  # first-call allocations
    tracemalloc.start()
    try:
        dh.approx_error_report(backdoor_fit, dataset, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n-length float64 column is 1.6 MB; a copy of the cohort's
    # covariates would add 3.2 MB, and exp(eta) or H beside eta 1.6 MB
    assert peak < 8 * n + 64 * 1024


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


@contextlib.contextmanager
def inverted_sizes(hazard):
    """A list that collects the size of every array the hazard's class
    inverts while the with-block runs."""
    sizes, invert = [], type(hazard).invert

    def spy(self, h):
        sizes.append(np.size(h))
        return invert(self, h)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(hazard), "invert", spy)
        yield sizes


def band_scenarios(data):
    """A scenario of either DAG whose baseline is exponential or Weibull
    with a shape from 0.2 to 20, scaled so that H0(10) lies in [0.01, 3]."""
    h0_at_horizon = data.draw(st.floats(0.01, 3.0))
    if data.draw(st.booleans()):
        hazard = dh.ExponentialHazard(h0_at_horizon / 10.0)
    else:
        shape = data.draw(st.floats(0.2, 20.0))
        hazard = dh.WeibullHazard(shape, 10.0 / h0_at_horizon ** (1.0 / shape))
    return data.draw(st.sampled_from([make_backdoor_config, make_frontdoor_config]))(baseline_hazard=hazard)


@contextlib.contextmanager
def formed_arms():
    """A list that collects (block, x, rows) for every arm the oracle forms
    (simulate._arm) while the with-block runs: the block's index, the arm's
    x, and None for an arm formed on every subject of the block, else the
    indices in the whole draw of the subjects it is formed on."""
    formed, arm, last = [], oracle._arm, []

    def spy(config, draws, x_forced, rows=slice(None)):
        if not last or last[-1][0] is not draws:
            last.append((draws, sum(d.exponential.size for d, _ in last)))
        start = last[-1][1]
        formed.append((len(last) - 1, x_forced, None if isinstance(rows, slice) else start + rows))
        return arm(config, draws, x_forced, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_arm", spy)
        yield formed


def check_screened_arms(formed, xs, n, failures, ts):
    """Each block of a request with two forced arms or more forms its
    reference arm (the first forced x) and any factual arm on every
    subject, in that order, and each forced arm, the reference among them,
    only on the same few subjects: each one's latent hazard is at a band's
    edge under some forced arm, its failure time within t 2**-26 of some t
    (the band and the screen's margin, in time, for a Weibull shape from
    0.2). Returns the subjects formed so."""
    forced = [x for x in dict.fromkeys(xs) if x is not None]
    edges = [np.zeros(0, dtype=np.intp)]
    for block in range(-(-n // _BLOCK)):
        calls = [(x, rows) for b, x, rows in formed if b == block]
        assert [x for x, rows in calls if rows is None] == [forced[0]] + [None] * (None in xs)
        subsets = [(x, rows) for x, rows in calls if rows is not None]
        if subsets:
            rows = subsets[0][1]
            assert [x for x, _ in subsets] == forced and all(np.array_equal(r, rows) for _, r in subsets)
            near = [np.abs(failures[x][rows] - t) <= t * 2.0**-26 for x in forced for t in ts]
            assert np.any(near, axis=0).all()
            edges.append(rows)
    return np.concatenate(edges)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_event_counts_are_exact_at_the_horizons_edge(data):
    # each horizon is the failure time of a drawn subject, whose latent
    # hazard lies inside the band: the count must still be that of the
    # failure times. Every baseline takes a band, and only subjects inside
    # one are inverted; with two forced arms or more, a forced arm other
    # than the reference is formed only on subjects at a band's edge
    config = band_scenarios(data)
    n, seed = data.draw(st.sampled_from([500, _BLOCK + 1])), data.draw(st.integers(0, 2**32))
    xs = data.draw(st.lists(st.none() | st.floats(-2.0, 2.0), min_size=1, max_size=3))
    failures = {x: draw_scm(config, n, seed, 16, x_forced=x)[3] for x in xs}
    within = np.concatenate([f[(f > 0) & (f <= config.horizon_t)] for f in failures.values()])
    assume(within.size > 0)
    ts = data.draw(st.lists(st.sampled_from(within.tolist()), min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(xs)), max_size=2))
    assert _bands(config.baseline_hazard, ts) is not None
    with inverted_sizes(config.baseline_hazard) as inverted, formed_arms() as formed:
        counts = _event_counts(config, n, seed, 16, xs, ts, pairs)
    # each horizon's two band edges, then only the subjects inside a band
    k = len(set(ts))
    assert inverted[:k] == [2] * k and 0 < sum(inverted[k:]) < n
    arms = list(dict.fromkeys(xs))
    if len([x for x in arms if x is not None]) >= 2:
        check_screened_arms(formed, xs, n, failures, ts)
    else:
        assert [(b, x) for b, x, rows in formed if rows is None] == [(b, x) for b in range(-(-n // _BLOCK)) for x in arms]
        assert all(rows is None for *_, rows in formed)
    for x, failure in failures.items():
        for t in ts:
            assert counts[x, t] == np.count_nonzero(failure <= t), (x, t)
    for x, x0 in pairs:
        for t in ts:
            assert counts[x, x0, t] == np.count_nonzero((failures[x] <= t) & (failures[x0] <= t)), (x, x0, t)


@pytest.mark.parametrize(
    "hazard",
    [dh.WeibullHazard(1e-9, 10.0), dh.WeibullHazard(50.0, 1e-6), dh.WeibullHazard(50.0, 1e8)],
    ids=["flat", "overflowing", "underflowing"],
)
def test_event_counts_invert_every_subject_where_the_band_does_not_hold(hazard):
    # where H0 cannot tell t(1 - 2**-30) from t, or under- or overflows
    # there, no band holds. Each arm is then formed on every subject and
    # inverts every subject once, with two forced arms as with one
    config = make_frontdoor_config(baseline_hazard=hazard)
    n, ts, xs = _BLOCK + 1, [2.5, 10.0], [1.0, 0.0, None]
    assert all(_bands(hazard, [t]) is None for t in ts)
    with np.errstate(over="ignore"):
        with inverted_sizes(hazard) as inverted, formed_arms() as formed:
            counts = _event_counts(config, n, 3, 0, xs, ts)
        failures = {x: draw_scm(config, n, 3, 0, x_forced=x)[3] for x in xs}
    # the band edges aside (two values each), three arms' two blocks
    assert [size for size in inverted if size != 2] == [_BLOCK] * 3 + [1] * 3
    assert formed == [(b, x, None) for b in (0, 1) for x in xs]
    for (x, t), count in counts.items():
        assert count == np.count_nonzero(failures[x] <= t), (x, t)


def test_event_counts_take_a_band_for_an_exponential_baseline():
    # an exponential baseline takes a band like any other: each arm
    # inverts only the subjects inside one, and the forced arm after the
    # reference is formed only on subjects at a band's edge
    hazard = dh.ExponentialHazard(0.002)
    config = make_frontdoor_config(baseline_hazard=hazard)
    n, ts, xs = _BLOCK + 1, [2.5, 10.0], [1.0, 0.0, None]
    failures = {x: draw_scm(config, n, 3, 0, x_forced=x)[3] for x in xs}
    # a horizon at a failure time of each forced arm, so that both have
    # subjects inside a band
    ts += [float(failures[x][failures[x] <= 10.0].max()) for x in xs[:2]]
    assert _bands(hazard, ts) is not None
    with inverted_sizes(hazard) as inverted, formed_arms() as formed:
        counts = _event_counts(config, n, 3, 0, xs, ts)
    # each horizon's two band edges, then each forced arm's one subject
    # inside a band, the one failing at its horizon: those two subjects
    # are all that either forced arm is formed on beyond the reference
    assert inverted == [2] * len(ts) + [1, 1]
    at_horizon = [np.flatnonzero(failures[x] == t)[0] for x, t in zip(xs[:2], ts[2:])]
    assert sorted(check_screened_arms(formed, xs, n, failures, ts).tolist()) == sorted(at_horizon)
    for (x, t), count in counts.items():
        assert count == np.count_nonzero(failures[x] <= t), (x, t)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_screen_is_exact_at_every_arms_edge(data):
    # three forced arms or more and the factual one, with a horizon at a
    # failure time of each arm but the reference, and every ordered pair of
    # arms: each forced arm is counted from the reference's hazards, so band
    # edges fall on every arm and pair, (x, None), (None, x) and the
    # self-pairs (x, x) and (None, None) among them
    config = band_scenarios(data)
    n, seed = data.draw(st.sampled_from([500, _BLOCK + 1])), data.draw(st.integers(0, 2**32))
    forced = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=4, unique=True))
    xs = forced + [None]
    failures = {x: draw_scm(config, n, seed, 16, x_forced=x)[3] for x in xs}
    ts = []
    for x in xs[1:]:
        within = failures[x][(failures[x] > 0) & (failures[x] <= config.horizon_t)]
        assume(within.size > 0)
        ts.append(data.draw(st.sampled_from(within.tolist())))
    pairs = [(x, x0) for x in xs for x0 in xs]
    with formed_arms() as formed:
        counts = _event_counts(config, n, seed, 16, xs, ts, pairs)
    edges = check_screened_arms(formed, xs, n, failures, ts)
    for x, t in zip(forced[1:], ts):
        assert np.isin(np.flatnonzero(failures[x] == t), edges).all(), (x, t)
    for x, failure in failures.items():
        for t in ts:
            assert counts[x, t] == np.count_nonzero(failure <= t), (x, t)
    for x, x0 in pairs:
        for t in ts:
            assert counts[x, x0, t] == np.count_nonzero((failures[x] <= t) & (failures[x0] <= t)), (x, x0, t)


def test_blocks_past_the_screens_bound_are_counted_arm_by_arm():
    # beta_z = 130 puts |beta_z z| past _TERMS = 2**9 in about half of the
    # blocks, where the largest |z| passes 3.9: those blocks form every arm
    # on every subject, the others only the reference and the factual arm
    config = make_backdoor_config(coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=0.3, beta_z=130.0))
    n, xs, ts = 12 * _BLOCK, [1.0, 0.0, -1.0, None], [2.5, 10.0]
    pairs = [(1.0, 0.0), (None, -1.0)]
    with formed_arms() as formed:
        counts = _event_counts(config, n, 5, 0, xs, ts, pairs)
    z = draw_scm(config, n, 5)[1]
    beyond = [130.0 * np.abs(zb).max() + 0.3 * 1.0 > _TERMS for zb in np.split(z, 12)]
    assert 0 < sum(beyond) < 12
    for block, past in enumerate(beyond):
        calls = [(x, rows) for b, x, rows in formed if b == block]
        assert calls == ([(x, None) for x in xs] if past else [(1.0, None), (None, None)])
    failures = {x: draw_scm(config, n, 5, x_forced=x)[3] for x in xs}
    for x, failure in failures.items():
        for t in ts:
            assert counts[x, t] == np.count_nonzero(failure <= t), (x, t)
    for x, x0 in pairs:
        for t in ts:
            assert counts[x, x0, t] == np.count_nonzero((failures[x] <= t) & (failures[x0] <= t)), (x, x0, t)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(-12, 12).map(lambda k: 2.0**k) | st.floats(0.01, 100.0))
def test_event_counts_do_not_depend_on_the_unit_of_time(data, c):
    # a rate divided by c, or a Weibull scale multiplied by c, with the
    # horizons multiplied by c, is the scenario in another unit of time.
    # A power of two scales every failure time exactly; another c moves
    # each by a few ulps, which can move across t only a subject whose
    # failure time lies inside the band around t
    config = band_scenarios(data)
    hazard = config.baseline_hazard
    if isinstance(hazard, dh.ExponentialHazard):
        scaled_hazard = dh.ExponentialHazard(hazard.rate / c)
    else:
        scaled_hazard = dh.WeibullHazard(hazard.shape, hazard.scale * c)
    scaled = dataclasses.replace(config, baseline_hazard=scaled_hazard, horizon_t=config.horizon_t * c)
    n, seed = _BLOCK + 1, data.draw(st.integers(0, 2**32))
    xs = data.draw(st.lists(st.none() | st.floats(-2.0, 2.0), min_size=1, max_size=3))
    failures = {x: draw_scm(config, n, seed, 0, x_forced=x)[3] for x in xs}
    within = np.concatenate([f[(f > 0) & (f <= config.horizon_t)] for f in failures.values()])
    ts = data.draw(st.lists(st.sampled_from(within.tolist()) | st.floats(0.01, 10.0), min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(xs)), max_size=2))
    counts = _event_counts(config, n, seed, 0, xs, ts, pairs)
    scaled_counts = _event_counts(scaled, n, seed, 0, xs, [c * t for t in ts], pairs)
    exact = math.frexp(c)[0] == 0.5
    for t in ts:
        inside = {x: np.count_nonzero(np.abs(f - t) <= t * _BAND) for x, f in failures.items()}
        for x in xs:
            moved = abs(scaled_counts[x, c * t] - counts[x, t])
            assert moved == 0 if exact else moved <= inside[x], (x, t)
        for x, x0 in pairs:
            moved = abs(scaled_counts[x, x0, c * t] - counts[x, x0, t])
            assert moved == 0 if exact else moved <= inside[x] + inside[x0], (x, x0, t)


# The oracle against the quadrature truth: each scenario makes TRUTH_ROWS
# comparisons (four arms' incidences, two ratios and a PAF, at two
# horizons), and z is set as perfbench/workloads.py sets it, so that the
# chance that any of them misses by noise is that of one 3-sigma test.
TRUTH_SCENARIOS, TRUTH_ROWS, TRUTH_N = 200, 14, 200_000
TRUTH_Z = NormalDist().inv_cdf(1 - 2 * (1 - NormalDist().cdf(3.0)) / (2 * TRUTH_SCENARIOS * TRUTH_ROWS))


def signed(lo, hi):
    """Floats whose magnitude lies in [lo, hi], of either sign."""
    return st.tuples(st.floats(lo, hi), st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])


@st.composite
def truth_scenarios(draw):
    """A scenario of either DAG, a Bernoulli confounder among them, with
    H0(10) from 0.2 to 0.8 on an exponential or Weibull baseline, three
    forced x at least 0.5 apart and two horizons. Each arm's incidence is
    at least some 1.5%, and the effect of x on the log hazard, and the
    spread of the drawn X, are bounded away from zero: so every count,
    and the count of subjects failing under one arm of a pair only, is in
    the hundreds or more, near normal at the test's z."""
    h0_at_horizon = draw(st.floats(0.2, 0.8))
    shape = draw(st.none() | st.floats(0.5, 2.0))
    if shape is None:
        hazard = dh.ExponentialHazard(h0_at_horizon / 10.0)
    else:
        hazard = dh.WeibullHazard(shape, 10.0 / h0_at_horizon ** (1.0 / shape))
    sigma_x, confounding = draw(st.floats(0.5, 1.5)), st.floats(-0.7, 0.7)
    if draw(st.booleans()):
        coefficients = dh.BackdoorCoefficients(draw(st.floats(-1.0, 1.0)), sigma_x, draw(signed(0.2, 0.7)), draw(confounding))
        z_dist = dh.BernoulliZ(draw(st.floats(0.0, 1.0))) if draw(st.booleans()) else dh.StandardNormalZ()
        config = make_backdoor_config(baseline_hazard=hazard, coefficients=coefficients, z_dist=z_dist)
    else:
        coefficients = dh.FrontdoorCoefficients(
            draw(st.floats(-1.0, 1.0)), sigma_x, draw(signed(0.5, 1.0)), draw(st.floats(0.2, 1.0)),
            draw(signed(0.3, 0.7)), draw(confounding),
        )
        config = make_frontdoor_config(baseline_hazard=hazard, coefficients=coefficients)
    xs = draw(st.lists(st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]), min_size=3, max_size=3, unique=True))
    return config, xs, [draw(st.floats(5.0, 10.0)), 10.0], draw(st.integers(0, 2**32))


@settings(max_examples=TRUTH_SCENARIOS, deadline=None)
@given(truth_scenarios())
def test_oracle_is_within_noise_of_the_quadrature_truth(case):
    # every incidence, paired ratio (on the log scale, where its SE is
    # the delta method's) and PAF of one _event_counts call lies within
    # TRUTH_Z of its SE from truth.incidence
    config, (x1, x2, x0), ts, seed = case
    n = TRUTH_N
    counts = _event_counts(config, n, seed, 0, [x1, x2, x0, None], ts, [(x1, x0), (x2, x0), (None, x0)])
    for t in ts:
        truth = {x: incidence(config, x, t) for x in (x1, x2, x0, None)}
        for x, p in truth.items():
            assert min(p, 1.0 - p) > 0.015, (x, t)
            estimate = counts[x, t] / n
            assert abs(estimate - p) <= TRUTH_Z * math.sqrt(estimate * (1.0 - estimate) / n), (x, t)
        for x in (x1, x2):
            ratio = _ratio(counts, n, seed, x, x0, t)
            assert abs(math.log(ratio.ratio * truth[x0] / truth[x])) <= TRUTH_Z * ratio.log_standard_error, (x, x0, t)
        paf, se = _paf(counts, n, x0, t)
        assert abs(paf - (1.0 - truth[x0] / truth[None])) <= TRUTH_Z * se, (x0, t)


@pytest.mark.parametrize("x, beta_x", [(1e308, 10.0), (-1e308, 10.0), (None, 0.0)], ids=["+inf", "-inf", "nan"])
def test_non_finite_eta_is_refused(x, beta_x):
    # every input is finite: X forced to +-1e308 with beta_x = 10 gives an
    # eta of +-inf. X drawn with a_zx = 1e308 is infinite where |z| > 1.8,
    # which beta_x = 0 makes a NaN eta in the factual oracle arm; generate
    # draws X, so its eta is NaN or, with beta_x = 10, +-inf; numpy warns of
    # none of it
    config = make_backdoor_config(coefficients=dh.BackdoorCoefficients(1e308, 1.0, beta_x, 0.4))
    arm = "" if x is None else re.escape(f" under do(x={x:g})")
    with pytest.raises(dh.InvalidArgumentError, match=f"^field 'coefficients' gives a non-finite log hazard{arm}$"):
        _event_counts(config, 1_000, 7, 0, [x], [10.0])
    with pytest.raises(dh.InvalidArgumentError, match="^field 'coefficients' gives a non-finite log hazard$"):
        dh.generate(config)


@pytest.mark.parametrize(
    "xs, coefficients, named",
    [
        ([1.0, 2.0, 1e308], dh.BackdoorCoefficients(0.5, 1.0, 10.0, 0.4), 1e308),
        ([0.0, 1.7, None], dh.BackdoorCoefficients(0.5, 1.0, 1e308, 1e307), 1.7),
    ],
    ids=["shift", "draws"],
)
def test_a_later_forced_arm_that_overflows_is_refused(xs, coefficients, named):
    # the first forced arm is finite; a later one's eta is +inf everywhere
    # (shift), or where 1e307 z passes 1.7e308's headroom (draws), which
    # the factual arm after it would reach too: the later one is named
    config = make_backdoor_config(coefficients=coefficients)
    message = re.escape(f"field 'coefficients' gives a non-finite log hazard under do(x={named:g})")
    with pytest.raises(dh.InvalidArgumentError, match=f"^{message}$"):
        _event_counts(config, 1_000, 7, 0, xs, [10.0], [(xs[0], xs[1])])


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


@pytest.mark.parametrize("n", [129, 2 * _BLOCK + 8, 50_001])
def test_approx_report_has_the_bits_of_whole_array_sums(backdoor_fit, n):
    cohort = dh.generate(make_backdoor_config(n_subjects=n))
    h = np.exp(whole_array_eta(cohort, backdoor_fit.covariate_names, backdoor_fit.beta))
    h *= backdoor_fit.baseline_cumhaz(10.0)
    report = dh.approx_error_report(backdoor_fit, cohort, 10.0)
    assert (report.max_cumhaz.hex(), report.mean_cumhaz.hex()) == (float(np.max(h)).hex(), float(np.mean(h)).hex())


def test_approx_report_holds_no_cohort_sized_array(backdoor_fit):
    # one 200k-row float64 column is 1.6 MB; the bound is a few _BLOCK-row
    # temporaries and does not grow with n
    dataset = dh.generate(make_backdoor_config(n_subjects=200_000))
    dh.approx_error_report(backdoor_fit, dataset, 10.0)  # first-call allocations
    tracemalloc.start()
    try:
        dh.approx_error_report(backdoor_fit, dataset, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * _BLOCK
