import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dohazard as dh
from dohazard import cli

from conftest import make_backdoor_config, make_frontdoor_config
from pinned import CLI_20K, PINNED_TOOLCHAIN, check

ROOT = Path(__file__).resolve().parents[1]


def write_scenario(path, config):
    path.write_text(json.dumps(config.to_dict(), indent=2))
    return str(path)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def scenario_path(tmp_path):
    return write_scenario(tmp_path / "scenario.json", make_backdoor_config(n_subjects=4_000))


@pytest.fixture()
def fd_scenario_path(tmp_path):
    return write_scenario(tmp_path / "fd_scenario.json", make_frontdoor_config(n_subjects=4_000))


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_simulate_writes_cohort(tmp_path, scenario_path, capsys):
    rc = run(["simulate", scenario_path, "--out-dir", tmp_path, "--out", "cohort.csv"])
    assert rc == 0
    assert "4000 subjects" in capsys.readouterr().err
    ds = dh.load_dataset(tmp_path / "cohort.csv")
    assert ds.n == 4_000
    assert list(ds.covariate_names) == ["x", "z"]


def test_simulate_quiet_suppresses_notes(tmp_path, scenario_path, capsys):
    rc = run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_simulate_seed_override_and_flag_position(tmp_path, scenario_path):
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--out", "base.csv"])
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--out", "post.csv", "--seed", 99])
    run(["--seed", 99, "simulate", scenario_path, "--out-dir", tmp_path, "--out", "pre.csv"])
    base = (tmp_path / "base.csv").read_bytes()
    post = (tmp_path / "post.csv").read_bytes()
    pre = (tmp_path / "pre.csv").read_bytes()
    assert post != base  # the seed really changed the cohort
    assert post == pre  # flag accepted on either side of the subcommand


def test_fit_command(tmp_path, scenario_path):
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run(["fit", tmp_path / "cohort.csv", "--covariates", "x,z", "--out-dir", tmp_path, "--quiet"])
    assert rc == 0
    fit = dh.load_fit(tmp_path / "fit.json")
    assert fit.converged
    assert fit.covariate_names == ["x", "z"]


def test_backdoor_command(tmp_path, scenario_path):
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run([
        "backdoor", tmp_path / "cohort.csv", "--contrast", "1,0", "--t", 10,
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "backdoor.json").read_text())
    assert payload["x"] == 1.0 and payload["x0"] == 0.0
    assert payload["causal_rr"]["value"] > 0
    assert payload["a_z"] >= 1.0 - 1e-12
    assert 0.0 <= payload["do_cdf_x"]["value"] < 1.0
    assert "paf" in payload


@pytest.mark.parametrize("adjustment", ["age", "xage"])
def test_backdoor_command_named_columns(tmp_path, adjustment):
    # roles come from --z-columns alone: neither a missing nor a leading 'x'
    # in a column name changes which coefficient the causal RR reads
    ds = dh.generate(make_backdoor_config(n_subjects=4_000))
    dh.save_dataset(
        dh.Dataset(time=ds.time, event=ds.event, covariates=ds.covariates, covariate_names=("exposure", adjustment)),
        tmp_path / "named.csv",
    )
    rc = run([
        "backdoor", tmp_path / "named.csv", "--contrast", "1,0", "--t", 10, "--z-columns", adjustment,
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "backdoor.json").read_text())
    fit = dh.fit_cox(dh.load_dataset(tmp_path / "named.csv"))
    assert payload["causal_rr"]["value"] == math.exp(fit.coef("exposure"))


def test_frontdoor_command(tmp_path, fd_scenario_path):
    run(["simulate", fd_scenario_path, "--out-dir", tmp_path, "--out", "fd.csv", "--quiet"])
    rc = run([
        "frontdoor", tmp_path / "fd.csv", "--contrast", "1,0", "--t", 10,
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "frontdoor.json").read_text())
    assert payload["causal_rr"]["value"] == payload["mediation_indirect_rr"]["value"]
    assert set(payload["params"]) == {"beta_x", "beta_z", "alpha", "gamma", "mu_x", "sigma_x", "sigma_z"}


@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
def test_subcommand_is_the_experiment_table_at_one_contrast_and_horizon(tmp_path, dag):
    # backdoor without --fit fits (x, z), as experiment does, on the same
    # cohort read back bit for bit, so every shared value is the same float
    config = (make_backdoor_config if dag == "backdoor" else make_frontdoor_config)(n_subjects=4_000)
    x, x0, t = 2.0, -1.0, 5.0
    assert run(["simulate", write_scenario(tmp_path / "scenario.json", config), "--out-dir", tmp_path, "--quiet"]) == 0
    argv = [dag, tmp_path / "cohort.csv", "--contrast", f"{x},{x0}", "--t", t, "--out-dir", tmp_path, "--quiet"]
    assert run(argv) == 0
    experiment = {"scenario": config.to_dict(), "contrasts": [[x, x0]], "horizon_grid": [t], "oracle_n": 20_000}
    (tmp_path / "experiment.json").write_text(json.dumps(experiment))
    assert run(["experiment", tmp_path / "experiment.json", "--out-dir", tmp_path, "--quiet"]) == 0
    payload = json.loads((tmp_path / f"{dag}.json").read_text())
    rows = json.loads((tmp_path / "report.json").read_text())["estimates"]

    def estimate(method, **key):
        [row] = [r for r in rows if r["method"] == method and all(r[k] == v for k, v in key.items())]
        assert row["t"] == t
        return row["estimate"]

    got = {key: payload[key]["value"] for key in ("causal_rr", "do_cdf_x", "do_cdf_x0")}
    expected = {
        "causal_rr": estimate("causal_rr"),
        "do_cdf_x": estimate("do_cdf", x=x),
        "do_cdf_x0": estimate("do_cdf", x=x0),
    }
    if dag == "backdoor":
        got["paf"], expected["paf"] = payload["paf"], estimate("paf")
    assert got == expected


def test_oracle_command_incidence(tmp_path, scenario_path):
    rc = run([
        "oracle", scenario_path, "--x", 1.0, "--n", 50_000, "--t", 10,
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert 0.0 < payload["incidence"] < 0.2
    assert payload["seed"] == 42 + 1_000_003  # derived from the scenario seed


def test_oracle_seed_means_the_scenario_seed(tmp_path):
    # --seed replaces the scenario seed in oracle as in experiment, so both
    # derive the same oracle seed and draw the same arm
    experiment = json.loads(experiment_config(tmp_path, oracle_n=50_000).read_text())
    scenario = write_scenario(tmp_path / "scenario.json", dh.ScenarioConfig.from_dict(experiment["scenario"]))
    assert run(["experiment", tmp_path / "experiment.json", "--seed", 5, "--out-dir", tmp_path, "--quiet"]) == 0
    assert run([
        "oracle", scenario, "--x", 1.0, "--n", 50_000, "--t", 10, "--seed", 5, "--out-dir", tmp_path, "--quiet",
    ]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["seed"] == report["oracle_seed"] == 5 + 1_000_003
    oracle_row = next(r for r in report["estimates"] if r["method"] == "oracle" and r["x"] == 1.0 and r["t"] == 10.0)
    assert payload["incidence"] == oracle_row["oracle_value"]


def test_oracle_command_shared_streams_identity(tmp_path, scenario_path):
    # both arms are counted from one draw, so a ratio of an arm to itself is
    # exactly one; the flag that used to ask for that draw is gone
    args = ["oracle", scenario_path, "--x", 1.0, "--x0", 1.0, "--n", 20_000, "--out-dir", tmp_path, "--quiet"]
    assert run(args) == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["ratio"] == 1.0
    assert payload["standard_error"] == 0.0
    with pytest.raises(SystemExit) as exc:
        run([*args, "--shared-streams"])
    assert exc.value.code == 2


def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dag_kind": "backdoor",\n  broken\n}')
    rc = run(["simulate", bad, "--out-dir", tmp_path])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err
    # bytes that are not UTF-8, and an integer json cannot convert
    for text in (b'{"seed": "\xff"}', b'{"seed": 1' + b"0" * 5000 + b"}"):
        bad.write_bytes(text)
        assert run(["simulate", bad, "--out-dir", tmp_path]) == 2
        assert "bad.json: invalid JSON: " in capsys.readouterr().err


def test_exit_2_names_missing_field(tmp_path, capsys):
    raw = make_backdoor_config(n_subjects=10).to_dict()
    del raw["baseline_hazard"]
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps(raw))
    rc = run(["simulate", cfg, "--out-dir", tmp_path])
    assert rc == 2
    assert "baseline_hazard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_exit_2_names_coefficients_whose_log_hazard_overflows(tmp_path, capsys, command):
    # finite coefficients: X = 1e308 * z is infinite where |z| > 1.8, and
    # beta_x = 0 makes its log hazard NaN. The refusal names the field, and
    # numpy warns of nothing on the way.
    overflowing = dict(n_subjects=4_000, coefficients=dh.BackdoorCoefficients(1e308, 1.0, 0.0, 0.4))
    if command == "simulate":
        path = write_scenario(tmp_path / "scenario.json", make_backdoor_config(**overflowing))
    else:
        path = experiment_config(tmp_path, **overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, path, "--out-dir", tmp_path, "--quiet"]) == 2
    assert capsys.readouterr().err == "error: field 'coefficients' gives a non-finite log hazard\n"


def test_exit_2_on_missing_file(tmp_path, capsys):
    rc = run(["simulate", tmp_path / "nope.json", "--out-dir", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_exit_2_on_missing_cohort_beside_its_cache(tmp_path, scenario_path, capsys):
    # the column cache is read only for the CSV it was written with
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    (tmp_path / "cohort.csv").unlink()
    assert (tmp_path / "cohort.csv.cols").exists()
    rc = run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--quiet"])
    assert rc == 2
    assert "cohort.csv" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize(
    "text, line",
    [(b"time,event,x\xff\r\n1.0,1,2\r\n", 1), (b"time,event,x\r\n1.0,1,\xff\r\n", 2)],
    ids=["header", "body"],
)
def test_exit_2_on_a_cohort_that_is_not_utf8(tmp_path, capsys, text, line):
    path = tmp_path / "cohort.csv"
    path.write_bytes(text)
    assert run(["fit", path, "--out-dir", tmp_path, "--quiet"]) == 2
    assert f"cohort.csv:{line}: not UTF-8: " in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_fit_reads_a_cohort_after_a_byte_order_mark(tmp_path, scenario_path):
    # Excel's "CSV UTF-8" export starts with one
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "cohort.csv").read_bytes())
    assert run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--out", "fit.json", "--quiet"]) == 0
    assert run(["fit", bom, "--out-dir", tmp_path, "--out", "bom_fit.json", "--quiet"]) == 0
    assert (tmp_path / "bom_fit.json").read_bytes() == (tmp_path / "fit.json").read_bytes()


@pytest.mark.parametrize(
    "text, line",
    [(b"time,event,x\r\n1.0,1,2\r\n\xef\xbb\xbf2.0,0,1\r\n", 3), (b"time,event,x\r\n1.0,1,\"\xef\xbb\xbf2\"\r\n", 2)],
    ids=["row", "quoted_field"],
)
def test_exit_2_on_a_byte_order_mark_past_the_first_byte(tmp_path, capsys, text, line):
    path = tmp_path / "cohort.csv"
    path.write_bytes(text)
    assert run(["fit", path, "--out-dir", tmp_path, "--quiet"]) == 2
    assert f"cohort.csv:{line}: could not convert string to float: " in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("kind", ["scenario", "experiment", "fit"])
def test_json_inputs_may_start_with_a_byte_order_mark(tmp_path, scenario_path, kind):
    # RFC 8259 lets a parser skip one; each run reads the file with and
    # without it and writes the same bytes
    if kind == "scenario":
        source, argv, output = Path(scenario_path), ["simulate", "{}"], "cohort.csv"
    elif kind == "experiment":
        source = experiment_config(tmp_path, n_subjects=2_000, oracle_n=20_000)
        argv, output = ["experiment", "{}"], "estimates.csv"
    else:
        run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
        run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--quiet"])
        source, output = tmp_path / "fit.json", "backdoor.json"
        argv = ["backdoor", tmp_path / "cohort.csv", "--fit", "{}", "--contrast", "1,0", "--t", 10]
    bom = tmp_path / f"bom_{source.name}"
    bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    written = []
    for path in (source, bom):
        out = tmp_path / path.stem
        assert run([str(a).format(path) for a in argv] + ["--out-dir", out, "--quiet"]) == 0
        written.append((out / output).read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
def test_outputs_do_not_depend_on_the_column_cache(tmp_path, scenario_path, fd_scenario_path, dag):
    # the frontdoor cohort's cache also holds u_latent
    run(["simulate", scenario_path if dag == "backdoor" else fd_scenario_path, "--out-dir", tmp_path, "--quiet"])
    estimate = [dag, tmp_path / "cohort.csv", "--contrast", "1,0", "--t", 10, "--out-dir", tmp_path, "--quiet"]
    outputs = []
    for from_csv in (False, True):  # with the cache, then from the CSV alone
        if from_csv:
            (tmp_path / "cohort.csv.cols").unlink()
        assert run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--quiet"]) == 0
        assert run(estimate + (["--fit", tmp_path / "fit.json"] if dag == "backdoor" else [])) == 0
        outputs.append([(tmp_path / name).read_bytes() for name in ("fit.json", f"{dag}.json")])
    assert outputs[0] == outputs[1]


# The two n=20_000 scenarios of the cross-process cache check: 20000 rows
# are two of the CSV reader's chunks, and the frontdoor cohort's cache also
# holds u_latent.
CACHE_CHECK_SCENARIOS = {
    "scenario.json": {
        "dag_kind": "backdoor", "n_subjects": 20000, "seed": 42,
        "baseline_hazard": {"kind": "exponential", "rate": 0.002}, "horizon_t": 10.0,
        "coefficients": {"a_zx": 0.5, "sigma_x": 1.0, "beta_x": 0.3, "beta_z": 0.4},
    },
    "fd_scenario.json": {
        "dag_kind": "frontdoor", "n_subjects": 20000, "seed": 7,
        "baseline_hazard": {"kind": "weibull", "shape": 1.5, "scale": 120.0}, "horizon_t": 10.0,
        "censor_rate": 0.02,
        "coefficients": {"c_ux": 0.8, "sigma_x": 0.6, "alpha": 1.0, "sigma_z": 0.5, "beta_z": 0.5, "beta_u": 0.7},
    },
}


def test_same_outputs_with_and_without_the_cohort_column_cache(tmp_path):
    # simulate, fit and backdoor, and simulate and frontdoor, each command a
    # separate process, must write the same bytes reading the cohorts from
    # their column caches, from the CSVs alone once the caches are deleted,
    # and from the CSVs rewritten with every field quoted
    for name, scenario in CACHE_CHECK_SCENARIOS.items():
        (tmp_path / name).write_text(json.dumps(scenario))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def dohazard(*argv):
        command = [sys.executable, "-m", "dohazard.cli", *map(str, argv), "--quiet"]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)

    for source in ("cache", "csv", "quoted"):
        out = tmp_path / source
        dohazard("simulate", tmp_path / "scenario.json", "--out-dir", out)
        dohazard("simulate", tmp_path / "fd_scenario.json", "--out", "fd_cohort.csv", "--out-dir", out)
        cohorts = [out / "cohort.csv", out / "fd_cohort.csv"]
        if source != "cache":
            for cohort in cohorts:
                Path(f"{cohort}.cols").unlink()
        if source == "quoted":
            for cohort in cohorts:
                with open(cohort, newline="") as fh:
                    rows = list(csv.reader(fh))
                with open(cohort, "w", newline="") as fh:
                    csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        dohazard("fit", out / "cohort.csv", "--out-dir", out)
        dohazard("backdoor", out / "cohort.csv", "--fit", out / "fit.json", "--contrast", "1,0", "--t", 10, "--out-dir", out)
        dohazard("frontdoor", out / "fd_cohort.csv", "--contrast", "1,0", "--t", 10, "--out-dir", out)
    for source in ("csv", "quoted"):
        for name in ("fit.json", "backdoor.json", "frontdoor.json"):
            assert (tmp_path / source / name).read_bytes() == (tmp_path / "cache" / name).read_bytes(), (source, name)


def test_exit_2_on_a_seed_philox_cannot_hold(tmp_path, scenario_path, monkeypatch, capsys):
    # a seed of 2**64 or more is an argument error; experiment and oracle
    # check their derived seed (seed + 1_000_003) before anything is drawn
    assert run(["simulate", scenario_path, "--seed", 2**64, "--out-dir", tmp_path, "--quiet"]) == 2
    assert "2**64" in capsys.readouterr().err
    experiment = tmp_path / "experiment.json"
    scenario = json.loads(Path(scenario_path).read_text())
    experiment.write_text(json.dumps({"scenario": scenario, "contrasts": [[1, 0]], "horizon_grid": [10], "oracle_n": 10}))
    opened = []
    monkeypatch.setattr(dh.RngStream, "__init__", lambda self, *args: opened.append(args))
    seed = 2**64 - cli._ORACLE_SEED_OFFSET
    for argv in (["experiment", experiment], ["oracle", scenario_path, "--x", 1, "--x0", 0, "--n", 1000]):
        assert run([*argv, "--seed", seed, "--out-dir", tmp_path / "out", "--quiet"]) == 2
        assert f"the oracle seed, seed + 1000003, must be below 2**64, got {2**64}" in capsys.readouterr().err
    assert opened == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [2**50, 10**30])
def test_exit_2_on_a_cohort_too_large_to_allocate(tmp_path, capsys, n):
    # 2**50 subjects take 8 PiB a column, beyond any 48-bit address space,
    # so the allocation is refused before a page is touched; numpy refuses
    # 10**30 as a size
    scenario = write_scenario(tmp_path / "huge.json", make_backdoor_config(n_subjects=n))
    assert run(["simulate", scenario, "--out-dir", tmp_path, "--quiet"]) == 2
    assert f"error: n_subjects is too large to hold in memory, got {n}: " in capsys.readouterr().err
    assert not (tmp_path / "cohort.csv").exists()


def test_exit_2_on_bad_contrast(tmp_path, scenario_path, capsys):
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run(["backdoor", tmp_path / "cohort.csv", "--contrast", "1", "--t", 10, "--out-dir", tmp_path])
    assert rc == 2
    assert "contrast" in capsys.readouterr().err


def test_exit_2_on_empty_column_name(tmp_path, scenario_path, capsys):
    # an empty column list is refused, not read as the default: 'z' for
    # backdoor --z-columns, every covariate for fit --covariates
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run([
        "backdoor", tmp_path / "cohort.csv", "--contrast", "1,0", "--t", 10, "--z-columns", "",
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 2
    assert "fit has no covariate ''" in capsys.readouterr().err
    assert not (tmp_path / "backdoor.json").exists()
    assert run(["fit", tmp_path / "cohort.csv", "--covariates", "", "--out-dir", tmp_path, "--quiet"]) == 2
    assert "unknown covariate ''" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_exit_2_on_malformed_fit_file(tmp_path, scenario_path, capsys):
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--quiet"])
    fit = tmp_path / "fit.json"
    good = json.loads(fit.read_text())
    bad_beta = {**good, "beta": "abc"}
    no_baseline = {**good, "baseline_knots": [], "baseline_values": []}
    for content, message in (
        ("5\n", "must be a JSON object"),
        (json.dumps(bad_beta), "field 'beta'"),
        (json.dumps(no_baseline), "field 'baseline_knots'"),
    ):
        fit.write_text(content)
        rc = run([
            "backdoor", tmp_path / "cohort.csv", "--fit", fit, "--contrast", "1,0", "--t", 10,
            "--out-dir", tmp_path, "--quiet",
        ])
        assert rc == 2
        assert message in capsys.readouterr().err


def test_exit_3_on_fit_whose_linear_predictor_overflows(tmp_path, capsys):
    # exp(400 * z) overflows; the standardization wrote "a_z": Infinity,
    # "paf": NaN and infinite do_cdf rows and exited 0
    scenario = write_scenario(tmp_path / "scenario.json", make_backdoor_config(n_subjects=3_000, seed=5))
    run(["simulate", scenario, "--out-dir", tmp_path, "--quiet"])
    run(["fit", tmp_path / "cohort.csv", "--out-dir", tmp_path, "--quiet"])
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({**json.loads(fit.read_text()), "beta": [0.3, 400]}))
    rc = run([
        "backdoor", tmp_path / "cohort.csv", "--fit", fit, "--contrast", "1,0", "--t", 10,
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 3
    assert "numerical error: linear predictor exceeds exp() range" in capsys.readouterr().err
    assert not (tmp_path / "backdoor.json").exists()


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "-0.5"])
@pytest.mark.parametrize("command", ["backdoor", "frontdoor"])
def test_exit_2_on_bad_horizon(tmp_path, scenario_path, capsys, command, t):
    # a NaN horizon read the baseline at its last knot and exited 0
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run([command, tmp_path / "cohort.csv", "--contrast", "1,0", f"--t={t}", "--out-dir", tmp_path, "--quiet"])
    assert rc == 2
    assert f"--t must be finite and >= 0, got {float(t)}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_exit_2_on_repeated_covariate(tmp_path, scenario_path, capsys):
    # the repeated column made the information singular (exit 3)
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run(["fit", tmp_path / "cohort.csv", "--covariates", "x,x", "--out-dir", tmp_path, "--quiet"])
    assert rc == 2
    assert "covariate 'x' is named more than once" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_exit_2_on_repeated_adjustment_column(tmp_path, scenario_path, capsys):
    # the repeated column doubled its term in eta_z and exited 0
    run(["simulate", scenario_path, "--out-dir", tmp_path, "--quiet"])
    rc = run([
        "backdoor", tmp_path / "cohort.csv", "--contrast", "1,0", "--t", 10, "--z-columns", "z,z",
        "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 2
    assert "adjustment column 'z' is named more than once" in capsys.readouterr().err
    assert not (tmp_path / "backdoor.json").exists()


@pytest.mark.parametrize(
    "header, role",
    [("time,event,x,event", "event"), ("time,time,event,x", "time"), ("time,event,x,x", "x")],
    ids=["event", "time", "covariate"],
)
def test_exit_2_on_a_repeated_role_column(tmp_path, capsys, header, role):
    # read from its first copy, a repeated role column was silently dropped;
    # a repeated covariate was refused without the file or the column named
    path = tmp_path / "cohort.csv"
    path.write_text(f"{header}\n1.0,1,0.5,0\n2.0,0,0.25,1\n")
    assert run(["fit", path, "--out-dir", tmp_path, "--quiet"]) == 2
    assert f"cohort.csv: column '{role}' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_exit_3_on_degenerate_covariate(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text(
        "time,event,x,z\n"
        + "".join(f"{t},1,0.5,{0.1 * t}\n" for t in range(1, 8))
    )
    rc = run(["fit", path, "--out-dir", tmp_path])
    assert rc == 3
    assert "'x'" in capsys.readouterr().err


def experiment_config(tmp_path, oracle_n=200_000, **scenario_overrides):
    scenario = make_backdoor_config(**scenario_overrides).to_dict()
    exp = {
        "scenario": scenario,
        "contrasts": [[1.0, 0.0]],
        "horizon_grid": [5.0, 10.0],
        "oracle_n": oracle_n,
        "emit": ["csv", "json"],
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(exp, indent=2))
    return path


def test_experiment_pipeline(tmp_path):
    cfg = experiment_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["experiment", cfg, "--out-dir", out1, "--quiet"]) == 0
    assert run(["experiment", cfg, "--out-dir", out2, "--quiet"]) == 0

    # byte-identical reruns
    assert (out1 / "estimates.csv").read_bytes() == (out2 / "estimates.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    header, rows = read_csv_rows(out1 / "estimates.csv")
    assert header == ["method", "x", "x0", "t", "estimate", "std_err", "oracle_value", "oracle_se", "rel_err", "rarity_flag"]
    methods = {r["method"] for r in rows}
    assert methods == {"causal_rr", "do_cdf", "paf", "oracle"}

    for r in rows:
        if r["method"] in ("causal_rr", "do_cdf"):
            assert float(r["rel_err"]) <= 0.10
        if r["method"] == "paf":
            # the PAF oracle is a difference of two small incidences, so its
            # noise dominates at this oracle_n; bound by its own SE instead
            assert abs(float(r["estimate"]) - float(r["oracle_value"])) <= 4.0 * float(r["oracle_se"])
        if r["method"] == "oracle":
            assert float(r["rel_err"]) == 0.0
        assert r["rarity_flag"] in ("true", "false")

    # CSV numerics round-trip at 12 significant digits
    for r in rows:
        for col in ("x", "x0", "t", "estimate", "std_err", "oracle_value", "oracle_se", "rel_err"):
            s = r[col]
            assert "%.12g" % float(s) == s

    report = json.loads((out1 / "report.json").read_text())
    assert report["fit"]["converged"] is True
    assert report["oracle_seed"] == 42 + 1_000_003
    assert set(report["approximation"]) == {"horizon_t", "max_cumhaz", "mean_cumhaz", "max_rel_error", "flagged"}
    assert len(report["estimates"]) == len(rows)
    assert "backdoor_summary" in report


def test_experiment_warns_on_stderr(tmp_path, monkeypatch, capsys):
    # warnings are not progress notes: --quiet keeps them
    rare = experiment_config(
        tmp_path, oracle_n=20_000, n_subjects=20_000, baseline_hazard=dh.ExponentialHazard(0.0005)
    )
    assert run(["experiment", rare, "--out-dir", tmp_path / "rare", "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    # at the reference rate the largest cumulative hazards are not rare
    common = experiment_config(tmp_path, oracle_n=20_000, n_subjects=4_000)
    assert run(["experiment", common, "--out-dir", tmp_path / "common", "--quiet"]) == 0
    report = json.loads((tmp_path / "common" / "report.json").read_text())
    assert report["approximation"]["flagged"] is True
    err = capsys.readouterr().err
    assert "warning: rare-event approximation flagged at t=10" in err
    assert "did not converge" not in err

    monkeypatch.setattr(cli, "fit_cox", lambda dataset, names: dh.fit_cox(dataset, names, max_iter=1))
    assert run(["experiment", common, "--out-dir", tmp_path / "unconverged", "--quiet"]) == 0
    assert "warning: fit did not converge in 1 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("c", [2.0**-2, 2.0, 2.0**10])
@pytest.mark.parametrize("dag", ["backdoor", "frontdoor"])
def test_experiment_does_not_depend_on_the_unit_of_time(tmp_path, dag, c):
    # the whole scenario in another unit of time: every rate divided by c
    # (a Weibull scale multiplied by c) and every horizon multiplied by c.
    # A power of two scales each time, rate and band edge exactly, so the
    # fit and the oracle's counts are the same: only the fields that hold a
    # time or a rate move, each by exactly c
    if dag == "backdoor":
        config = make_backdoor_config(n_subjects=4_000, censor_rate=0.02, baseline_hazard=dh.ExponentialHazard(0.01))
        hazard = dh.ExponentialHazard(0.01 / c)
    else:
        config = make_frontdoor_config(n_subjects=4_000, censor_rate=0.02, baseline_hazard=dh.WeibullHazard(1.5, 30.0))
        hazard = dh.WeibullHazard(1.5, 30.0 * c)
    scaled = dataclasses.replace(config, baseline_hazard=hazard, horizon_t=10.0 * c, censor_rate=0.02 / c)
    outputs = []
    for scenario, unit in ((config, 1.0), (scaled, c)):
        experiment = {
            "scenario": scenario.to_dict(),
            "contrasts": [[1.0, 0.0], [2.0, -1.0]],
            "horizon_grid": [5.0 * unit, 10.0 * unit],
            "oracle_n": 20_000,
        }
        path = tmp_path / f"experiment_{unit}.json"
        path.write_text(json.dumps(experiment))
        assert run(["experiment", path, "--out-dir", tmp_path / str(unit), "--quiet"]) == 0
        outputs.append((read_csv_rows(tmp_path / str(unit) / "estimates.csv"), json.loads((tmp_path / str(unit) / "report.json").read_text())))
    ((header, rows), report), ((header_c, rows_c), report_c) = outputs
    assert header_c == header and len(rows_c) == len(rows)
    for row, row_c in zip(rows, rows_c):
        assert float(row_c.pop("t")) == c * float(row.pop("t"))
        assert row_c == row

    def moved(report, unit):
        """report with every time divided by unit and every rate multiplied by it."""
        report = json.loads(json.dumps(report))
        scenario = report["scenario"]
        scenario["horizon_t"] /= unit
        scenario["censor_rate"] *= unit
        if "rate" in scenario["baseline_hazard"]:
            scenario["baseline_hazard"]["rate"] *= unit
        else:
            scenario["baseline_hazard"]["scale"] /= unit
        report["horizon_grid"] = [t / unit for t in report["horizon_grid"]]
        for row in report["estimates"]:
            row["t"] /= unit
        report["approximation"]["horizon_t"] /= unit
        if "backdoor_summary" in report:
            report["backdoor_summary"]["horizon_t"] /= unit
        return json.dumps(report, sort_keys=True)

    assert moved(report_c, c) == json.dumps(report, sort_keys=True)


def test_experiment_config_validation(tmp_path, monkeypatch, capsys):
    scenario = make_backdoor_config(n_subjects=100).to_dict()
    bad = {
        "scenario": scenario,
        "contrasts": [],
        "horizon_grid": [5.0],
        "oracle_n": 1000,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(bad))
    assert run(["experiment", path, "--out-dir", tmp_path]) == 2
    assert "contrasts" in capsys.readouterr().err

    bad["contrasts"] = [[1.0, 0.0]]
    bad["horizon_grid"] = [99.0]  # beyond the scenario horizon
    path.write_text(json.dumps(bad))
    assert run(["experiment", path, "--out-dir", tmp_path]) == 2
    assert "horizon_grid" in capsys.readouterr().err

    # every entry is a JSON number (no bool, no string) and contrasts are
    # finite; the config is refused when it is read, before any simulation
    monkeypatch.chdir(tmp_path)
    good = {**bad, "horizon_grid": [5.0]}
    for field, value in (
        ("contrasts", [["a", 0]]),
        ("contrasts", [[1, None]]),
        ("contrasts", [[True, 0]]),
        ("contrasts", [["1.5", 0]]),
        ("contrasts", [[float("nan"), 0]]),
        ("contrasts", [[1, float("-inf")]]),
        ("contrasts", [[1, 0, 2]]),
        ("contrasts", [[10**400, 0]]),
        ("horizon_grid", ["a"]),
        ("horizon_grid", [[10]]),
        ("horizon_grid", [True]),
        ("horizon_grid", ["1.5"]),
        ("horizon_grid", [float("nan")]),
        ("horizon_grid", [10**400]),
        ("oracle_n", True),
        ("emit", [["csv"]]),
        ("emit", "csv"),
        ("emit", []),
        ("output_dir", 5),
        ("output_dir", "out"),
    ):
        path.write_text(json.dumps({**good, field: value}))
        assert run(["experiment", path]) == 2, (field, value)
        err = capsys.readouterr().err
        assert f"field '{field}'" in err, (field, value, err)
        assert "simulating" not in err
    assert not (tmp_path / "5").exists()
    assert not (tmp_path / "out").exists()

    # an unknown key is refused by name at any depth, not ignored
    scenario = good["scenario"]

    def with_scenario(**fields):
        return {**good, "scenario": {**scenario, **fields}}

    for config, key in (
        ({**good, "emits": ["json"]}, "emits"),
        (with_scenario(censor_rates=0.5), "censor_rates"),
        (with_scenario(baseline_hazard={**scenario["baseline_hazard"], "shape": 1.5}), "shape"),  # exponential
        (with_scenario(baseline_hazard={"kind": "weibull", "shape": 1.5, "scale": 120.0, "rate": 0.002}), "rate"),
        (with_scenario(z_dist={"kind": "bernoulli", "p": 0.5, "q": 0.5}), "q"),
    ):
        path.write_text(json.dumps(config))
        assert run(["experiment", path]) == 2, key
        err = capsys.readouterr().err
        assert f"unknown field '{key}'" in err, (key, err)
        assert "simulating" not in err


def test_ci_installs_the_pinned_toolchain():
    # CI's Install step takes its numpy and scipy from constraints.txt, so
    # those must be the versions the digests are pinned for
    lines = (ROOT / "constraints.txt").read_text().splitlines()
    pins = dict(line.split("==") for line in lines if line and not line.startswith("#"))
    assert pins.keys() == {"numpy", "scipy"}
    assert PINNED_TOOLCHAIN.startswith(f"numpy {pins['numpy']}, scipy {pins['scipy']}, ")
    workflow = (ROOT / ".github/workflows/tests.yml").read_text()
    assert 'pip install -e ".[test]" -c constraints.txt' in workflow
    # every digest lives in tests/pinned.py, and the step that runs under one
    # BLAS thread checks that table
    assert re.search(r"\b[0-9a-f]{64}\b", workflow) is None
    steps = re.split(r"^      - ", workflow, flags=re.M)[1:]
    one_thread = [step for step in steps if re.search(r"OPENBLAS_NUM_THREADS(=|: \"?)1\b", step)]
    assert len(one_thread) == 1 and "tests/test_pinned.py" in one_thread[0]


def test_ci_runs_the_column_cache_check():
    # the workflow's cache step runs this test, so CI and a local run check the same
    workflow = (ROOT / ".github/workflows/tests.yml").read_text()
    steps = re.split(r"^      - ", workflow, flags=re.M)[1:]
    [step] = [step for step in steps if "name: Same outputs with and without the cohort column cache" in step]
    assert "tests/test_cli.py::test_same_outputs_with_and_without_the_cohort_column_cache" in step


def test_cli_outputs_match_pinned_digests(pinned_sha256):
    # every subcommand's outputs on the conftest scenarios at n=20_000
    check(CLI_20K, pinned_sha256)


@pytest.mark.parametrize(
    "make_config, streams",
    [
        # one draw at offset 0 serves every arm: Z (id 1), X's noise (2) for
        # the factual arm of the PAF, and the failure uniforms (4)
        (make_backdoor_config, {1, 2, 4}),
        # frontdoor draws U (1), the mediator noise (3) and the uniforms (4),
        # and has no PAF
        (make_frontdoor_config, {1, 3, 4}),
    ],
    ids=["backdoor", "frontdoor"],
)
def test_experiment_draws_each_oracle_offset_once(tmp_path, monkeypatch, make_config, streams):
    scenario, oracle_n = make_config(n_subjects=3_000), 5_000
    experiment = {
        "scenario": scenario.to_dict(),
        "contrasts": [[1, 0], [2, 0], [-1, 0]],
        "horizon_grid": [2.5, 5, 10],
        "oracle_n": oracle_n,
    }
    (tmp_path / "experiment.json").write_text(json.dumps(experiment))
    opened, drawn = [], []
    init, uniform, normal = dh.RngStream.__init__, dh.RngStream.uniform, dh.RngStream.normal

    def spy_init(self, seed, stream_id=0):
        opened.append((seed, stream_id))
        init(self, seed, stream_id)

    # every variate is a uniform or a normal draw; neither calls the other
    def spy_uniform(self, size=None):
        drawn.append(1 if size is None else size)
        return uniform(self, size)

    def spy_normal(self, mean=0.0, sd=1.0, size=None):
        drawn.append(1 if size is None else size)
        return normal(self, mean, sd, size)

    monkeypatch.setattr(dh.RngStream, "__init__", spy_init)
    monkeypatch.setattr(dh.RngStream, "uniform", spy_uniform)
    monkeypatch.setattr(dh.RngStream, "normal", spy_normal)
    assert run(["experiment", tmp_path / "experiment.json", "--out-dir", tmp_path, "--quiet"]) == 0
    oracle_seed = scenario.seed + cli._ORACLE_SEED_OFFSET
    oracle_streams = [stream for seed, stream in opened if seed == oracle_seed]
    assert sorted(oracle_streams) == sorted(streams)  # each stream opened once
    variates = sum(drawn)

    drawn.clear()
    dh.generate(scenario)
    assert variates == sum(drawn) + oracle_n * len(streams)
