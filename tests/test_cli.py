import hashlib
import json
import math

import numpy as np
import pytest

import dohazard as dh
from dohazard import cli

from conftest import make_backdoor_config, make_frontdoor_config


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
    assert set(payload["params"]) == {"beta_x", "beta_z", "alpha", "mu_x", "sigma_x", "sigma_z"}


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
    rc = run([
        "oracle", scenario_path, "--x", 1.0, "--x0", 1.0, "--n", 20_000,
        "--shared-streams", "--out-dir", tmp_path, "--quiet",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["ratio"] == 1.0
    assert payload["standard_error"] == 0.0


def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dag_kind": "backdoor",\n  broken\n}')
    rc = run(["simulate", bad, "--out-dir", tmp_path])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_exit_2_names_missing_field(tmp_path, capsys):
    raw = make_backdoor_config(n_subjects=10).to_dict()
    del raw["baseline_hazard"]
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps(raw))
    rc = run(["simulate", cfg, "--out-dir", tmp_path])
    assert rc == 2
    assert "baseline_hazard" in capsys.readouterr().err


def test_exit_2_on_missing_file(tmp_path, capsys):
    rc = run(["simulate", tmp_path / "nope.json", "--out-dir", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err != ""


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
    bad_beta = {**json.loads(fit.read_text()), "beta": "abc"}
    for content, message in (("5\n", "must be a JSON object"), (json.dumps(bad_beta), "field 'beta'")):
        fit.write_text(content)
        rc = run([
            "backdoor", tmp_path / "cohort.csv", "--fit", fit, "--contrast", "1,0", "--t", 10,
            "--out-dir", tmp_path, "--quiet",
        ])
        assert rc == 2
        assert message in capsys.readouterr().err


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
        ("output_dir", 5),
    ):
        path.write_text(json.dumps({**good, field: value}))
        assert run(["experiment", path]) == 2, (field, value)
        err = capsys.readouterr().err
        assert f"field '{field}'" in err, (field, value, err)
        assert "simulating" not in err
    assert not (tmp_path / "5").exists()


# sha256 of the CLI's outputs on the conftest scenarios at n=20_000: backdoor
# with and without --fit, frontdoor, and experiment for both DAGs. Equal
# digests mean a change left every answer the CLI writes as it was.
PINNED_DIGESTS = {
    "backdoor --fit 1,0 t=10": "34611d2073a7f29f00d5441327f8f4da8605b514bd2a2562222357fb01588549",
    "backdoor --fit 2,-1 t=5": "ef700f3905a0ddf868b9a0adfa111bb742fd05703d6129deda816595bb4f33f3",
    "backdoor 1,0 t=10": "34611d2073a7f29f00d5441327f8f4da8605b514bd2a2562222357fb01588549",
    "backdoor 2,-1 t=5": "ef700f3905a0ddf868b9a0adfa111bb742fd05703d6129deda816595bb4f33f3",
    "experiment backdoor estimates.csv": "b147134287ae1112bcf3e1a549e51d944de40010c8418a3eb24a6f64a4220b6a",
    "experiment backdoor report.json": "3de79107041b1a8c25a36867f211bb030312e2faf966535a37641a04fe89407a",
    "experiment frontdoor estimates.csv": "c4fe5956b6d316d4f5c816258cd0fd4fd717bf6006873ae906e52e2a6eb6223e",
    "experiment frontdoor report.json": "980077d6d5f3efe8deb88392123df11ec8c53cb821b0af88b782e6e4d7ef417e",
    "frontdoor 1,0 t=10": "7c90f9440959280c003eaa1eac0cab5dfcdea885ff7e328a97bf21c0a080f05e",
    "frontdoor 2,-1 t=5": "352607f5faf5de3b96ee18e8a116bf30db6867f894274863a47b84b4f5915085",
}


def test_cli_outputs_match_pinned_digests(tmp_path):
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    got = {}
    for dag, config in (("backdoor", make_backdoor_config), ("frontdoor", make_frontdoor_config)):
        scenario = config(n_subjects=20_000)
        cohort = tmp_path / f"{dag}.csv"
        assert run(["simulate", write_scenario(tmp_path / f"{dag}.json", scenario), "--out-dir", tmp_path,
                    "--out", cohort.name, "--quiet"]) == 0
        variants = [[]]
        if dag == "backdoor":
            assert run(["fit", cohort, "--out-dir", tmp_path, "--quiet"]) == 0
            variants.append(["--fit", tmp_path / "fit.json"])
        for contrast, t in (("1,0", 10), ("2,-1", 5)):
            for extra in variants:
                name = " ".join([dag, *map(str, extra[:1]), contrast, f"t={t}"])
                out = tmp_path / "estimate.json"
                assert run([dag, cohort, "--contrast", contrast, "--t", t, *extra,
                            "--out-dir", tmp_path, "--out", out.name, "--quiet"]) == 0
                got[name] = sha(out)

        experiment = {
            "scenario": scenario.to_dict(),
            "contrasts": [[1, 0], [2, -1]],
            "horizon_grid": [5, 10],
            "oracle_n": 20_000,
        }
        (tmp_path / "experiment.json").write_text(json.dumps(experiment))
        out_dir = tmp_path / f"experiment_{dag}"
        assert run(["experiment", tmp_path / "experiment.json", "--out-dir", out_dir, "--quiet"]) == 0
        for name in ("estimates.csv", "report.json"):
            got[f"experiment {dag} {name}"] = sha(out_dir / name)
    assert got == PINNED_DIGESTS
