"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `[criterion N] PASS/FAIL` line so a full run
doubles as a sign-off checklist. Checks are collected before asserting,
so the line is printed even when a test fails.
"""

import json
import math

import numpy as np
import pytest

import dohazard as dh
from dohazard import cli

from conftest import (
    make_backdoor_config,
    make_frontdoor_config,
    make_strong_confounding_config,
    make_tiny_dataset,
)
from test_backdoor import hand_fit, two_column_dataset
from test_cox import three_subject_fixture
from truth import GaussianSpec, frontdoor_do_cdf_empirical, gaussian_exponential_moment

ORACLE_SEED_OFFSET = 1_000_003


def _report(capsys, num, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:2d}] {status}  {name}")
    assert not failures, "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_backdoor_rr_vs_oracle_grid(capsys, backdoor_dataset, backdoor_fit):
    failures = []

    def one_cell(config, dataset, fit, label):
        rr = dh.causal_rr(fit, dh.compute_az(dataset, fit, ["z"]), 1.0, 0.0)
        oracle = dh.oracle_rr(config, 1.0, 0.0, 1_000_000, config.seed + ORACLE_SEED_OFFSET, 10.0)
        tol = max(0.10 * oracle.ratio, 3.0 * oracle.standard_error)
        gap = abs(rr.value - oracle.ratio)
        _check(failures, gap <= tol, f"{label}: |{rr.value:.4f} - {oracle.ratio:.4f}| = {gap:.4f} > {tol:.4f}")
        _check(failures, dataset.n_events / dataset.n <= 0.05, f"{label}: incidence {dataset.n_events / dataset.n:.4f} > 5%")

    reference = make_backdoor_config()
    _check(failures, reference.n_subjects == 100_000 and reference.seed == 42, "reference scenario drifted")
    one_cell(reference, backdoor_dataset, backdoor_fit, "reference")

    seed = 4200
    for beta_x in (0.0, 0.3, 0.6):
        for beta_z in (0.0, 0.3, 0.6):
            config = make_backdoor_config(
                seed=seed,
                coefficients=dh.BackdoorCoefficients(a_zx=0.5, sigma_x=1.0, beta_x=beta_x, beta_z=beta_z),
            )
            dataset = dh.generate(config)
            fit = dh.fit_cox(dataset, ["x", "z"])
            one_cell(config, dataset, fit, f"grid({beta_x},{beta_z})")
            seed += 1

    _report(capsys, 1, "backdoor causal RR vs oracle on reference + 3x3 grid", failures)


def test_criterion_2_conditioning_is_not_intervening(capsys):
    failures = []
    config = make_strong_confounding_config()
    dataset = dh.generate(config)
    oracle = dh.oracle_rr(config, 1.0, 0.0, 1_000_000, config.seed + ORACLE_SEED_OFFSET, 10.0)

    naive = dh.naive_rr(dataset, "x", 1.0, 0.0)
    naive_gap = abs(naive.value - oracle.ratio)
    _check(failures, naive_gap > 4.0 * oracle.standard_error,
           f"naive RR {naive.value:.4f} only {naive_gap / oracle.standard_error:.1f} SE from oracle {oracle.ratio:.4f}")

    fit = dh.fit_cox(dataset, ["x", "z"])
    adjusted = dh.causal_rr(fit, dh.compute_az(dataset, fit, ["z"]), 1.0, 0.0)
    tol = max(0.10 * oracle.ratio, 3.0 * oracle.standard_error)
    _check(failures, abs(adjusted.value - oracle.ratio) <= tol,
           f"adjusted RR {adjusted.value:.4f} misses oracle {oracle.ratio:.4f} beyond {tol:.4f}")

    _report(capsys, 2, "unadjusted Cox RR breaks under strong confounding, adjusted holds", failures)


def test_criterion_3_interventional_incidence(capsys, backdoor_config, backdoor_dataset, backdoor_fit, backdoor_summary):
    failures = []
    _check(failures, backdoor_dataset.n_events / backdoor_dataset.n <= 0.05, "scenario incidence above 5%")
    for x in (0.0, 1.0):
        for t in (5.0, 10.0):
            est = dh.do_cdf(backdoor_fit, backdoor_summary, [x], t)
            oracle = dh.simulate_do(backdoor_config, x, 1_000_000, backdoor_config.seed + ORACLE_SEED_OFFSET, t)
            _check(failures, oracle.incidence <= 0.05, f"x={x} t={t}: oracle incidence {oracle.incidence:.4f} > 5%")
            rel = abs(est.value - oracle.incidence) / oracle.incidence
            _check(failures, rel <= 0.10, f"x={x} t={t}: do_cdf {est.value:.5f} vs oracle {oracle.incidence:.5f} rel {rel:.3f}")
    _report(capsys, 3, "do_cdf within 10% of simulated interventional incidence", failures)


def test_criterion_4_frontdoor_under_unmeasured_confounding(capsys):
    failures = []

    def estimate(beta_u):
        config = make_frontdoor_config(
            coefficients=dh.FrontdoorCoefficients(
                c_ux=0.8, sigma_x=0.6, alpha=1.0, sigma_z=0.5, beta_z=0.5, beta_u=beta_u
            )
        )
        dataset = dh.generate(config)
        fit = dh.fit_cox(dataset, ["x", "z"])
        params = dh.estimate_frontdoor_params(dataset, fit=fit)
        return config, dataset, dh.frontdoor_causal_rr(params, 1.0, 0.0)

    config, dataset, rr = estimate(0.7)
    oracle = dh.oracle_rr(config, 1.0, 0.0, 1_000_000, config.seed + ORACLE_SEED_OFFSET, 10.0)
    combined = math.hypot(oracle.standard_error, rr.std_err)
    tol = max(0.10 * oracle.ratio, 3.0 * combined)
    _check(failures, abs(rr.value - oracle.ratio) <= tol,
           f"frontdoor RR {rr.value:.4f} vs oracle {oracle.ratio:.4f} beyond {tol:.4f}")

    naive = dh.naive_rr(dataset, "x", 1.0, 0.0)
    naive_rel = abs(naive.value - oracle.ratio) / oracle.ratio
    _check(failures, naive_rel > 0.20, f"naive RR {naive.value:.4f} only {naive_rel:.3f} off the oracle")

    sweep = [estimate(beta_u)[2] for beta_u in (0.0, 0.35, 0.7)]
    for i in range(len(sweep)):
        for j in range(i + 1, len(sweep)):
            diff = abs(sweep[i].value - sweep[j].value)
            limit = 3.0 * math.hypot(sweep[i].std_err, sweep[j].std_err)
            _check(failures, diff <= limit, f"estimates drift {diff:.4f} > {limit:.4f} between beta_u cells {i},{j}")

    _report(capsys, 4, "frontdoor RR survives unmeasured confounding, naive does not", failures)


def test_criterion_5_mediation_equivalence_bit_exact(capsys):
    failures = []
    rng = np.random.default_rng(2025)
    for k in range(100):
        params = dh.FrontdoorParams(
            beta_x=rng.uniform(-1, 1),
            beta_z=rng.uniform(-1, 1),
            alpha=rng.uniform(-1, 1),
            mu_x=rng.uniform(-1, 1),
            sigma_x=rng.uniform(0, 1.5),
            sigma_z=rng.uniform(0, 1.5),
            gamma=0.0,
            se_alpha=rng.uniform(0.01, 0.2) if k % 2 else None,
            se_beta_z=rng.uniform(0.01, 0.2) if k % 2 else None,
        )
        x, x0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a = dh.frontdoor_causal_rr(params, x, x0)
        b = dh.mediation_indirect_rr(params, x, x0)
        _check(failures, a.value == b.value, f"point {k}: values differ {a.value!r} vs {b.value!r}")
        same_se = a.std_err == b.std_err or (math.isnan(a.std_err) and math.isnan(b.std_err))
        _check(failures, same_se, f"point {k}: std_err differ {a.std_err!r} vs {b.std_err!r}")
        _check(failures, b.method == "mediation_indirect_rr", f"point {k}: method label {b.method!r}")
    _report(capsys, 5, "frontdoor RR and mediation indirect RR agree bit-exactly", failures)


def test_criterion_6_gaussian_factorization(capsys, frontdoor_dataset, frontdoor_fit, frontdoor_params):
    failures = []
    rng = np.random.default_rng(66)
    cases = [frontdoor_params] + [
        dh.FrontdoorParams(
            beta_x=rng.uniform(-1, 1),
            beta_z=rng.uniform(-1, 1),
            alpha=rng.uniform(-1, 1),
            mu_x=rng.uniform(-1, 1),
            sigma_x=rng.uniform(0, 1.2),
            sigma_z=rng.uniform(0, 1.2),
            gamma=rng.uniform(-1, 1),
        )
        for _ in range(50)
    ]
    for i, params in enumerate(cases):
        h0 = 0.03
        x = rng.uniform(-1.5, 1.5)
        value = dh.frontdoor_do_cdf_gaussian(params, h0, x).value
        product = (
            h0
            * math.exp(params.beta_z * (params.gamma + params.alpha * x))
            * gaussian_exponential_moment(params.beta_x, GaussianSpec(params.mu_x, params.sigma_x))
            * gaussian_exponential_moment(params.beta_z, GaussianSpec(0.0, params.sigma_z))
        )
        rel = abs(value - product) / abs(product)
        _check(failures, rel <= 1e-12, f"case {i}: factorization off by {rel:.2e}")

    h0_10 = frontdoor_fit.baseline_cumhaz(10.0)
    for x in (0.0, 0.5, 1.0):
        gauss = dh.frontdoor_do_cdf_gaussian(frontdoor_params, h0_10, x).value
        emp = frontdoor_do_cdf_empirical(frontdoor_dataset, frontdoor_fit, x, 10.0)
        rel = abs(gauss - emp) / emp
        _check(failures, rel <= 0.03, f"x={x}: gaussian {gauss:.5f} vs empirical {emp:.5f} rel {rel:.4f}")

    _report(capsys, 6, "gaussian frontdoor equals moment product and empirical sum", failures)


def test_criterion_7_rare_disease_approximation(capsys):
    failures = []
    _check(failures, dh.taylor_relative_error(0.05) <= 0.026,
           f"taylor error at H=0.05 is {dh.taylor_relative_error(0.05):.5f} > 0.026")
    _check(failures, dh.taylor_relative_error(0.1) > 0.05,
           f"taylor error at H=0.1 is {dh.taylor_relative_error(0.1):.5f} <= 0.05")

    ds = two_column_dataset(np.zeros(6), np.zeros(6))
    low = dh.approx_error_report(hand_fit([0.0, 0.0], ["x", "z"], [1.0], [0.05]), ds, 1.0)
    high = dh.approx_error_report(hand_fit([0.0, 0.0], ["x", "z"], [1.0], [0.1]), ds, 1.0)
    _check(failures, not low.flagged, "report flagged a 5% cumhaz population")
    _check(failures, high.flagged, "report did not flag a 10% cumhaz population")

    fit = hand_fit([0.3, 0.7], ["x", "z"], [1.0, 2.0, 3.0], [0.05, 0.1, 0.100001])
    summary = dh.compute_az(ds, fit, ["z"], horizon_t=1.0)
    flags = [dh.do_cdf(fit, summary, [0.0], t).rarity_flag for t in (1.0, 2.0, 3.0)]
    _check(failures, flags == [False, False, True],
           f"do_cdf flags at values (0.05, 0.1, 0.100001) were {flags}, want strict > 0.1")

    _report(capsys, 7, "taylor error bounds and rarity flags behave at the 5%/10% marks", failures)


def test_criterion_8_cox_fitter_correctness(capsys):
    failures = []

    ds3 = three_subject_fixture()
    fit = dh.fit_cox(ds3, ["x"])
    beta_hat = fit.coef("x")
    _check(failures, abs(beta_hat - (-0.346574)) <= 1e-6,
           f"three-subject beta {beta_hat:.8f} not within 1e-6 of -0.346574")

    # grid-search oracle on the closed-form objective ln(2e^b+1) + ln(e^b+1) - b
    def objective(b):
        return np.log(2.0 * np.exp(b) + 1.0) + np.log(1.0 + np.exp(b)) - b

    coarse = np.arange(-1.0, 0.0, 1e-4)
    center = coarse[np.argmin(objective(coarse))]
    fine = np.arange(center - 2e-4, center + 2e-4, 1e-7)
    grid_best = fine[np.argmin(objective(fine))]
    _check(failures, abs(beta_hat - grid_best) <= 1e-6,
           f"fitter beta {beta_hat:.8f} vs grid-search {grid_best:.8f}")

    rng = np.random.default_rng(88)
    for case in range(20):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 3))
        names = ["x", "z"][:k]
        ds = make_tiny_dataset(
            rng.exponential(1.0, n) + 0.05,
            np.maximum(rng.integers(0, 2, n), np.eye(n, dtype=int)[0]),
            rng.normal(0, 1, n),
            z=rng.normal(0, 1, n) if k == 2 else None,
        )
        beta = rng.normal(0, 0.5, k)
        _, grad, hess = dh.neg_log_partial_likelihood(ds, beta, names)
        h = 1e-6
        grad_fd = np.empty(k)
        hess_fd = np.empty((k, k))
        for j in range(k):
            step = np.zeros(k)
            step[j] = h
            vp = dh.neg_log_partial_likelihood(ds, beta + step, names)
            vm = dh.neg_log_partial_likelihood(ds, beta - step, names)
            grad_fd[j] = (vp[0] - vm[0]) / (2 * h)
            hess_fd[:, j] = (vp[1] - vm[1]) / (2 * h)
        _check(failures, np.allclose(grad, grad_fd, rtol=1e-5, atol=1e-7),
               f"case {case}: gradient mismatch {grad} vs {grad_fd}")
        _check(failures, np.allclose(hess, hess_fd, rtol=1e-5, atol=1e-6),
               f"case {case}: hessian mismatch")

    base = dh.breslow_baseline(ds3, np.zeros(1))
    _check(failures, np.array_equal(base.values, np.cumsum([1 / 3, 1 / 2, 1.0])),
           f"breslow at beta=0 gave {base.values}, want cumsum(1/3, 1/2, 1)")

    _report(capsys, 8, "cox fitter matches grid search, finite differences, Nelson-Aalen", failures)


def test_criterion_9_paf_vs_oracle(capsys, backdoor_config, backdoor_dataset, backdoor_fit, backdoor_summary):
    failures = []
    formula = dh.paf(backdoor_fit, backdoor_summary)
    oracle_value, oracle_se = dh.oracle_paf(
        backdoor_config, 8_000_000, backdoor_config.seed + ORACLE_SEED_OFFSET, 10.0
    )
    rel = abs(formula - oracle_value) / abs(oracle_value)
    _check(failures, rel <= 0.10,
           f"paf {formula:.5f} vs oracle {oracle_value:.5f} (se {oracle_se:.5f}) rel {rel:.4f}")
    _report(capsys, 9, "population attributable fraction within 10% of simulation", failures)


def test_criterion_10_experiment_determinism(capsys, tmp_path):
    failures = []
    scenario = make_backdoor_config(n_subjects=20_000).to_dict()
    config = {
        "scenario": scenario,
        "contrasts": [[1.0, 0.0]],
        "horizon_grid": [5.0, 10.0],
        "oracle_n": 50_000,
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))

    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        rc = cli.main(["experiment", str(path), "--out-dir", str(out_dir), "--quiet"])
        _check(failures, rc == 0, f"run {run} exited {rc}")
        outputs.append(
            ((out_dir / "estimates.csv").read_bytes(), (out_dir / "report.json").read_bytes())
        )
    _check(failures, outputs[0][0] == outputs[1][0], "estimates.csv differs between runs")
    _check(failures, outputs[0][1] == outputs[1][1], "report.json differs between runs")
    _report(capsys, 10, "repeated experiment runs are byte-identical", failures)
