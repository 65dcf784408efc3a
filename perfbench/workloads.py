"""The benchmark's workloads: inputs made from a seed, the CLI calls of one
pass, and the checks on what a pass wrote.

Every workload drives ``dohazard.cli.main`` in-process. The scenario seed
is the workload seed, so the same seed gives the same inputs and, because
the program is deterministic, the same output bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

# A causal_rr estimate passes when |estimate - truth| <= max(REL_TOL * truth,
# z * hypot(truth_se, estimate_se)). This is criterion 1's rule with two
# changes that keep a correct program from failing on sampling noise:
# - the SE includes the estimate's own, as criterion 4 does; at n=1e5 the
#   fit's error is as large as the oracle's;
# - z holds the chance that any of a pass's rows misses by noise at that of
#   one 3-sigma test (Bonferroni), so one row gives z = 3 and twelve z = 3.69.
REL_TOL = 0.10
FAMILY_ALPHA = 2 * (1 - NormalDist().cdf(3.0))

_BACKDOOR_COEFFICIENTS = {"a_zx": 0.5, "sigma_x": 1.0, "beta_x": 0.3, "beta_z": 0.4}
_FRONTDOOR_COEFFICIENTS = {"c_ux": 0.8, "sigma_x": 0.6, "alpha": 1.0, "sigma_z": 0.5, "beta_z": 0.5, "beta_u": 0.7}


def _backdoor_scenario(seed: int, n: int) -> dict:
    """The README backdoor reference scenario at cohort size n."""
    return {
        "dag_kind": "backdoor",
        "n_subjects": n,
        "seed": seed,
        "baseline_hazard": {"kind": "exponential", "rate": 0.002},
        "horizon_t": 10.0,
        "censor_rate": 0.0,
        "coefficients": dict(_BACKDOOR_COEFFICIENTS),
    }


def _frontdoor_scenario(seed: int) -> dict:
    """A mediated cohort with a Weibull baseline and random censoring, so
    the fit sees no large tie at the horizon."""
    return {
        "dag_kind": "frontdoor",
        "n_subjects": 200_000,
        "seed": seed,
        "baseline_hazard": {"kind": "weibull", "shape": 1.5, "scale": 120.0},
        "horizon_t": 10.0,
        "censor_rate": 0.02,
        "coefficients": dict(_FRONTDOOR_COEFFICIENTS),
    }


@dataclass(frozen=True)
class Plan:
    """One workload made concrete in a working directory."""

    name: str
    scenario: dict
    argvs: tuple            # argument lists for dohazard.cli.main, run in order
    outputs: tuple          # files a pass writes; their bytes must repeat across passes
    out_dir: Path


# Workload name -> default scenario seed (the README and test-fixture seeds).
# Why each workload exists is recorded in BENCHMARK.json.
DEFAULT_SEEDS = {"experiment_backdoor": 42, "cohort_1e6": 42, "experiment_frontdoor": 7}


def load_package(root: Path):
    """Import dohazard from root/src, never from an installed copy, and
    return its CLI module."""
    src = (root / "src").resolve()
    if not (src / "dohazard" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dohazard package under {src}")
    sys.path.insert(0, str(src))
    import dohazard.cli

    if Path(dohazard.cli.__file__).resolve().parent != src / "dohazard":
        raise ImportError(f"dohazard was imported from {dohazard.cli.__file__}, not from {src}")
    return dohazard.cli


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def prepare(name: str, seed: int, work: Path) -> Plan:
    """Write the workload's input files under work and return its plan."""
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    common = ["--quiet", "--out-dir", str(out)]
    if name == "experiment_backdoor":
        scenario = _backdoor_scenario(seed, 100_000)
        experiment = {
            "scenario": scenario,
            "contrasts": [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]],
            "horizon_grid": [2.5, 5.0, 7.5, 10.0],
            "oracle_n": 200_000,
        }
    elif name == "experiment_frontdoor":
        scenario = _frontdoor_scenario(seed)
        experiment = {"scenario": scenario, "contrasts": [[1.0, 0.0]], "horizon_grid": [10.0], "oracle_n": 1_000_000}
    elif name == "cohort_1e6":
        scenario = _backdoor_scenario(seed, 1_000_000)
        config = _write_json(work / "scenario.json", scenario)
        cohort = str(out / "cohort.csv")
        argvs = (
            common + ["simulate", str(config)],
            common + ["fit", cohort],
            common + ["backdoor", cohort, "--fit", str(out / "fit.json"), "--contrast", "1,0", "--t", "10"],
        )
        outputs = ("cohort.csv", "fit.json", "backdoor.json")
        return Plan(name, scenario, argvs, outputs, out)
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(DEFAULT_SEEDS)}")
    config = _write_json(work / "experiment.json", experiment)
    return Plan(name, scenario, (common + ["experiment", str(config)],), ("estimates.csv", "report.json"), out)


def digests(plan: Plan) -> dict:
    """sha256 of each output file of the last pass."""
    result = {}
    for name in plan.outputs:
        h = hashlib.sha256()
        with open(plan.out_dir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        result[name] = h.hexdigest()
    return result


def _rule_problems(rows: list) -> list:
    """rows: (label, estimate, estimate_se, truth, truth_se) of one pass."""
    z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(rows)))
    problems = []
    for label, estimate, estimate_se, truth, truth_se in rows:
        se = math.hypot(truth_se, estimate_se if math.isfinite(estimate_se) else 0.0)
        tol = max(REL_TOL * truth, z * se)
        gap = abs(estimate - truth)
        if not gap <= tol:
            problems.append(f"{label}: |{estimate:.6g} - {truth:.6g}| = {gap:.3g} > {tol:.3g}")
    return problems


def check_pass(plan: Plan) -> list:
    """Problems with the outputs of the pass just run; empty when correct."""
    if plan.name == "cohort_1e6":
        problems = []
        fit = json.loads((plan.out_dir / "fit.json").read_text(encoding="utf-8"))
        if not fit["converged"]:
            problems.append(f"fit did not converge in {fit['iterations']} iterations")
        rr = json.loads((plan.out_dir / "backdoor.json").read_text(encoding="utf-8"))["causal_rr"]
        true_rr = math.exp(plan.scenario["coefficients"]["beta_x"])
        return problems + _rule_problems([("causal_rr(1,0) vs exp(beta_x)", rr["value"], rr["std_err"], true_rr, 0.0)])
    with open(plan.out_dir / "estimates.csv", newline="", encoding="utf-8") as fh:
        rows = [
            (f"causal_rr({r['x']},{r['x0']}) at t={r['t']}", float(r["estimate"]), float(r["std_err"]),
             float(r["oracle_value"]), float(r["oracle_se"]))
            for r in csv.DictReader(fh)
            if r["method"] == "causal_rr"
        ]
    return _rule_problems(rows) if rows else ["estimates.csv has no causal_rr rows"]


def check_cohort_roundtrip(plan: Plan) -> list:
    """The cohort CSV, read back, equals generate(config) bit for bit."""
    from dohazard.simulate import ScenarioConfig, generate, load_dataset

    expected = generate(ScenarioConfig.from_dict(plan.scenario))
    loaded = load_dataset(plan.out_dir / "cohort.csv")
    problems = []
    for field in ("time", "event", "covariates"):
        a, b = getattr(expected, field), getattr(loaded, field)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"loaded cohort column {field!r} differs from generate(config)")
    if loaded.covariate_names != expected.covariate_names:
        problems.append(f"loaded covariates {loaded.covariate_names} != {expected.covariate_names}")
    return problems
