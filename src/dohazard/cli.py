"""Command-line front end.

Subcommands: simulate, fit, backdoor, frontdoor, oracle, experiment.
All data goes to files; stderr carries progress notes and error text.
Exit codes: 0 success, 2 invalid input (bad JSON, bad fields, bad files),
3 numerical failure (non-convergence, degenerate data).

``backdoor``, ``frontdoor`` and ``experiment`` share one estimate step per
DAG (``_estimator``): one contrast at one horizon for the first two, the
whole grid for ``experiment``.

``experiment`` runs the full pipeline: simulate a cohort, fit it, compute
every causal estimate, run the brute-force intervention oracle, and write
estimates.csv plus report.json. Outputs are byte-stable: rerunning the
same config reproduces both files exactly. Numeric fields of
estimates.csv are rounded to 12 significant digits (%.12g), so they read
back close to, not exactly as, the float64 values; report.json carries
the same rows at full precision. A fit that did not converge and a
tripped rare-event approximation flag are warned about on stderr, even
under --quiet.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import backdoor as bd
from . import frontdoor as fd
from . import oracle as orc
from .cox import fit_cox, load_fit, save_fit
from .errors import DohazardError, InvalidArgumentError, NumericalError, ParseError, ValidationError
from .simulate import (
    Dataset,
    ScenarioConfig,
    _finite_numbers,
    _read_json_object,
    _require_int,
    generate,
    load_dataset,
    load_scenario_config,
    save_dataset,
)

# `experiment` and `oracle` derive the oracle seed from the scenario seed
# by a fixed offset, so one config (or one --seed) pins the whole pipeline.
_ORACLE_SEED_OFFSET = 1_000_003

# Columns of a simulated cohort: the exposure, then the confounder or mediator.
_ROLES = ("x", "z")


@dataclass(frozen=True)
class ExperimentConfig:
    """One end-to-end run: scenario, contrasts, horizons, oracle size."""

    scenario: ScenarioConfig
    contrasts: tuple
    horizon_grid: tuple
    oracle_n: int
    output_dir: str
    emit: frozenset

    def __post_init__(self) -> None:
        if not self.contrasts:
            raise ValidationError("field 'contrasts' must be a nonempty list of [x, x0] pairs")
        if not self.horizon_grid:
            raise ValidationError("field 'horizon_grid' must be a nonempty list of times")
        for t in self.horizon_grid:
            if not 0 < t <= self.scenario.horizon_t:
                raise ValidationError(
                    f"field 'horizon_grid' values must lie in (0, scenario.horizon_t={self.scenario.horizon_t}], got {t}"
                )
        if self.oracle_n < 1:
            raise ValidationError(f"field 'oracle_n' must be >= 1, got {self.oracle_n}")
        bad = self.emit - {"csv", "json"}
        if bad:
            raise ValidationError(f"field 'emit' may contain only 'csv' and 'json', got {sorted(bad)}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        for key in ("scenario", "contrasts", "horizon_grid", "oracle_n"):
            if key not in raw:
                raise ValidationError(f"experiment config is missing field '{key}'")
        if not isinstance(raw["scenario"], dict):
            raise ValidationError("field 'scenario' must be an object")
        contrasts = raw["contrasts"]
        if not _finite_numbers(contrasts, (None, 2)):
            raise ValidationError(
                f"field 'contrasts' must be a list of [x, x0] pairs of finite numbers, got {contrasts!r}"
            )
        horizon = raw["horizon_grid"]
        if not _finite_numbers(horizon, (None,)):
            raise ValidationError(f"field 'horizon_grid' must be a list of finite numbers, got {horizon!r}")
        emit = raw.get("emit", ["csv", "json"])
        if not isinstance(emit, list) or not all(isinstance(e, str) for e in emit):
            raise ValidationError(f"field 'emit' must be a list of strings, got {emit!r}")
        output_dir = raw.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ValidationError(f"field 'output_dir' must be a string, got {output_dir!r}")
        return ExperimentConfig(
            scenario=ScenarioConfig.from_dict(raw["scenario"]),
            contrasts=tuple((float(x), float(x0)) for x, x0 in contrasts),
            horizon_grid=tuple(float(t) for t in horizon),
            oracle_n=_require_int(raw, "oracle_n"),
            output_dir=output_dir,
            emit=frozenset(emit),
        )


def _load_experiment_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_json_object(path, "experiment config"))


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _warn_unconverged(fit) -> None:
    if not fit.converged:
        print(f"warning: fit did not converge in {fit.iterations} iterations", file=sys.stderr)


def _out_path(args, name: str) -> Path:
    base = Path(args.out_dir) if args.out_dir else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    p = Path(name)
    return p if p.is_absolute() else base / p


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.12g" % float(value)


def _parse_contrast(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"--contrast must be 'x,x0', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"--contrast must hold two numbers, got {text!r}") from exc


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _estimate_dict(est) -> dict:
    return {
        "value": est.value,
        "std_err": est.std_err,
        "method": est.method,
        "rarity_flag": est.rarity_flag,
    }


def _scenario_with_seed(config: ScenarioConfig, seed) -> ScenarioConfig:
    return config if seed is None else dataclasses.replace(config, seed=int(seed))


def cmd_simulate(args) -> int:
    config = _scenario_with_seed(load_scenario_config(args.config), args.seed)
    dataset = generate(config)
    out = _out_path(args, args.out)
    save_dataset(dataset, out)
    _info(args, f"wrote {dataset.n} subjects ({dataset.n_events} events) to {out}")
    return 0


def cmd_fit(args) -> int:
    dataset = load_dataset(args.data)
    names = None if args.covariates is None else args.covariates.split(",")
    fit = fit_cox(dataset, names)
    out = _out_path(args, args.out)
    save_fit(fit, out)
    _warn_unconverged(fit)
    _info(args, f"fit {fit.covariate_names} on {fit.n} subjects -> {out}")
    return 0


@dataclass(frozen=True)
class _Estimator:
    """One DAG's estimate step on a fitted cohort. paf is None where the DAG
    does not identify it; facts are the fitted numbers as report.json names
    them; extras are the DAG's own keys of the subcommand's output."""

    rr: Callable  # (x, x0) -> CausalEstimate
    cdf: Callable  # (x, t) -> CausalEstimate
    paf: Callable | None  # () -> float
    facts: dict
    extras: Callable  # (x, x0, t) -> dict


def _estimator(dag_kind: str, dataset: Dataset, fit, z_columns, horizon_t: float) -> _Estimator:
    # estimators are looked up on their modules at call time, so a wrapper
    # installed there sees every call
    if dag_kind == "backdoor":
        summary = bd.compute_az(dataset, fit, z_columns, horizon_t=horizon_t)
        diagnostics = {
            "a_z": summary.a_z,
            "mean_joint_risk": summary.mean_joint_risk,
            "max_cumhaz": summary.max_cumhaz,
            "rarity_flag": summary.rarity_flag,
        }
        return _Estimator(
            rr=lambda x, x0: bd.causal_rr(fit, summary, x, x0),
            cdf=lambda x, t: bd.do_cdf(fit, summary, x, t),
            paf=lambda: bd.paf(fit, summary),
            facts={"backdoor_summary": {**diagnostics, "horizon_t": summary.horizon_t}},
            extras=lambda x, x0, t: {**diagnostics, "do_cumhaz_x": bd.do_cumhaz(fit, summary, x, t)},
        )
    params = fd.estimate_frontdoor_params(dataset, fit)
    fitted = {
        "beta_x": params.beta_x,
        "beta_z": params.beta_z,
        "alpha": params.alpha,
        "mu_x": params.mu_x,
        "sigma_x": params.sigma_x,
        "sigma_z": params.sigma_z,
    }
    return _Estimator(
        rr=lambda x, x0: fd.frontdoor_causal_rr(params, x, x0),
        cdf=lambda x, t: fd.frontdoor_do_cdf_gaussian(params, fit.baseline_cumhaz(t), x),
        paf=None,
        facts={"frontdoor_params": fitted},
        extras=lambda x, x0, t: {
            "params": fitted,
            "mediation_indirect_rr": _estimate_dict(fd.mediation_indirect_rr(params, x, x0)),
        },
    )


def cmd_estimate(args) -> int:
    """backdoor and frontdoor: one contrast at one horizon, from a cohort."""
    x, x0 = _parse_contrast(args.contrast)
    dataset = load_dataset(args.data)
    if args.command == "backdoor":
        fit = load_fit(args.fit) if args.fit else fit_cox(dataset)
        z_columns = args.z_columns.split(",")
    else:
        fit = fit_cox(dataset, list(_ROLES))
        z_columns = None
    est = _estimator(args.command, dataset, fit, z_columns, args.t)
    payload = {
        "causal_rr": _estimate_dict(est.rr(x, x0)),
        "do_cdf_x": _estimate_dict(est.cdf(x, args.t)),
        "do_cdf_x0": _estimate_dict(est.cdf(x0, args.t)),
        **est.extras(x, x0, args.t),
        "t": args.t,
        "x": x,
        "x0": x0,
    }
    if est.paf is not None:
        payload["paf"] = est.paf()
    out = _out_path(args, args.out)
    _write_json(out, payload)
    _info(args, f"{args.command} estimates for ({x} vs {x0}) at t={args.t} -> {out}")
    return 0


def cmd_oracle(args) -> int:
    config = _scenario_with_seed(load_scenario_config(args.config), args.seed)
    seed = config.seed + _ORACLE_SEED_OFFSET
    t = args.t if args.t is not None else config.horizon_t
    payload = {"n": args.n, "seed": seed, "t": t}
    if args.x0 is not None:
        ratio = orc.oracle_rr(config, args.x, args.x0, args.n, seed, t, shared_streams=args.shared_streams)
        payload.update(
            ratio=ratio.ratio,
            standard_error=ratio.standard_error,
            incidence_x=ratio.numerator.incidence,
            incidence_x0=ratio.denominator.incidence,
            x=args.x,
            x0=args.x0,
        )
        _info(args, f"oracle ratio {ratio.ratio:.6g} +- {ratio.standard_error:.2g}")
    else:
        result = orc.simulate_do(config, args.x, args.n, seed, t)
        payload.update(incidence=result.incidence, standard_error=result.standard_error, x=args.x)
        _info(args, f"oracle incidence {result.incidence:.6g} +- {result.standard_error:.2g}")
    out = _out_path(args, args.out)
    _write_json(out, payload)
    return 0


def _experiment_rows(exp: ExperimentConfig, dataset: Dataset, fit, oracle_seed: int) -> tuple:
    """All estimate rows plus the DAG's fitted numbers for report.json."""
    scenario = exp.scenario
    rows = []
    x_values = list(dict.fromkeys(v for contrast in exp.contrasts for v in contrast))
    do_results = {
        (x, t): orc.simulate_do(scenario, x, exp.oracle_n, oracle_seed, t)
        for x in x_values
        for t in exp.horizon_grid
    }

    est = _estimator(scenario.dag_kind, dataset, fit, _ROLES[1:], max(exp.horizon_grid))

    def row(method, x, x0, t, estimate, std_err, oracle_value, oracle_se, rarity_flag):
        rel = abs(estimate - oracle_value) / abs(oracle_value) if oracle_value else float("nan")
        return {
            "method": method,
            "x": x,
            "x0": x0,
            "t": t,
            "estimate": estimate,
            "std_err": std_err,
            "oracle_value": oracle_value,
            "oracle_se": oracle_se,
            "rel_err": rel,
            "rarity_flag": rarity_flag,
        }

    for x, x0 in exp.contrasts:
        rr = est.rr(x, x0)
        for t in exp.horizon_grid:
            ora = orc.oracle_rr(scenario, x, x0, exp.oracle_n, oracle_seed, t)
            rows.append(row("causal_rr", x, x0, t, rr.value, rr.std_err, ora.ratio, ora.standard_error, rr.rarity_flag))
    for x in x_values:
        for t in exp.horizon_grid:
            cdf = est.cdf(x, t)
            ora = do_results[(x, t)]
            rows.append(
                row("do_cdf", x, float("nan"), t, cdf.value, cdf.std_err, ora.incidence, ora.standard_error, cdf.rarity_flag)
            )
    if est.paf is not None:
        value = est.paf()
        for t in exp.horizon_grid:
            o_paf, o_se = orc.oracle_paf(scenario, exp.oracle_n, oracle_seed, t)
            rows.append(row("paf", float("nan"), 0.0, t, value, float("nan"), o_paf, o_se, False))
    for x in x_values:
        for t in exp.horizon_grid:
            ora = do_results[(x, t)]
            rows.append(
                row("oracle", x, float("nan"), t, ora.incidence, ora.standard_error, ora.incidence, ora.standard_error, False)
            )
    return rows, est.facts


def cmd_experiment(args) -> int:
    exp = _load_experiment_config(args.config)
    exp = dataclasses.replace(exp, scenario=_scenario_with_seed(exp.scenario, args.seed))
    out_dir = Path(args.out_dir) if args.out_dir else Path(exp.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scenario = exp.scenario
    oracle_seed = scenario.seed + _ORACLE_SEED_OFFSET
    _info(args, f"simulating {scenario.n_subjects} subjects ({scenario.dag_kind})")
    dataset = generate(scenario)
    fit = fit_cox(dataset, list(_ROLES))
    _warn_unconverged(fit)
    _info(args, f"fit converged={fit.converged} in {fit.iterations} iterations; running oracle (n={exp.oracle_n}/arm)")
    rows, facts = _experiment_rows(exp, dataset, fit, oracle_seed)
    approx = orc.approx_error_report(fit, dataset, max(exp.horizon_grid))
    if approx.flagged:
        print(
            f"warning: rare-event approximation flagged at t={approx.horizon_t:g}: relative error "
            f"up to {approx.max_rel_error:.3g} (max cumulative hazard {approx.max_cumhaz:.3g})",
            file=sys.stderr,
        )

    columns = ["method", "x", "x0", "t", "estimate", "std_err", "oracle_value", "oracle_se", "rel_err", "rarity_flag"]
    written = []
    if "csv" in exp.emit:
        csv_path = out_dir / "estimates.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for r in rows:
                fh.write(",".join(r["method"] if c == "method" else _fmt(r[c]) for c in columns) + "\n")
        written.append(str(csv_path))
    if "json" in exp.emit:
        report = {
            "scenario": scenario.to_dict(),
            "oracle_seed": oracle_seed,
            "oracle_n": exp.oracle_n,
            "contrasts": [list(c) for c in exp.contrasts],
            "horizon_grid": list(exp.horizon_grid),
            "fit": {
                "beta": {name: float(b) for name, b in zip(fit.covariate_names, fit.beta)},
                "std_err": {name: fit.std_err(name) for name in fit.covariate_names},
                "converged": fit.converged,
                "iterations": fit.iterations,
                "n": fit.n,
                "n_events": fit.n_events,
                "log_likelihood": fit.log_likelihood,
            },
            "approximation": {
                "horizon_t": approx.horizon_t,
                "max_cumhaz": approx.max_cumhaz,
                "mean_cumhaz": approx.mean_cumhaz,
                "max_rel_error": approx.max_rel_error,
                "flagged": approx.flagged,
            },
            "estimates": rows,
            **facts,
        }
        json_path = out_dir / "report.json"
        _write_json(json_path, report)
        written.append(str(json_path))
    _info(args, "wrote " + ", ".join(written))
    return 0


def _add_common(parser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default, help="override the config seed")
    parser.add_argument("--out-dir", default=default, help="directory for output files")
    parser.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS if suppress else False,
        help="suppress progress notes on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dohazard",
        description="Causal effect estimation for rare-event proportional-hazards cohorts.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort CSV from a scenario config")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("--out", default="cohort.csv", help="output CSV name")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a proportional-hazards model to a cohort CSV")
    p.add_argument("data", help="cohort CSV")
    p.add_argument("--covariates", default=None, help="comma-separated covariate names (default: all)")
    p.add_argument("--out", default="fit.json", help="output fit JSON name")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("backdoor", help="covariate-adjusted causal estimates from a cohort")
    p.add_argument("data", help="cohort CSV")
    p.add_argument("--fit", default=None, help="fit JSON (default: fit on the fly)")
    p.add_argument("--contrast", required=True, help="exposure contrast 'x,x0'")
    p.add_argument("--t", type=float, required=True, help="horizon time")
    p.add_argument("--z-columns", default=_ROLES[1], help="comma-separated adjustment columns")
    p.add_argument("--out", default="backdoor.json", help="output JSON name")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("frontdoor", help="mediator-based causal estimates from a cohort")
    p.add_argument("data", help="cohort CSV")
    p.add_argument("--contrast", required=True, help="exposure contrast 'x,x0'")
    p.add_argument("--t", type=float, required=True, help="horizon time")
    p.add_argument("--out", default="frontdoor.json", help="output JSON name")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="simulate do-interventions directly on a scenario")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("--x", type=float, required=True, help="intervention value")
    p.add_argument("--x0", type=float, default=None, help="reference value (enables the ratio)")
    p.add_argument("--n", type=int, default=1_000_000, help="subjects per arm")
    p.add_argument("--t", type=float, default=None, help="horizon (default: scenario horizon)")
    p.add_argument("--shared-streams", action="store_true", help="draw both arms from one stream block")
    p.add_argument("--out", default="oracle.json", help="output JSON name")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="full pipeline: simulate, fit, estimate, oracle-compare")
    p.add_argument("config", help="experiment config JSON")
    _add_common(p, suppress=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except DohazardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
