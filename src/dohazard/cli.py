"""Command-line front end.

Subcommands: simulate, fit, backdoor, frontdoor, oracle, experiment.
All data goes to files; stderr carries progress notes and error text.
Exit codes: 0 success, 2 invalid input (bad JSON, bad fields, bad files),
3 numerical failure (non-convergence, degenerate data).

``backdoor``, ``frontdoor`` and ``experiment`` write one estimate table per
DAG (``estimate_table`` of ``backdoor`` and ``frontdoor``): one contrast at
one horizon for the first two, and for ``experiment`` the whole grid
joined to the oracle's reference for each row (``oracle.references``).

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
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import backdoor as bd
from . import frontdoor as fd
from . import oracle as orc
from ._json import read_object, refuse_unknown, require_int, require_number, write_object
from .cohort import Dataset, load_dataset, save_dataset
from .cox import _horizon, fit_cox, load_fit, save_fit
from .errors import DohazardError, InvalidArgumentError, NumericalError, ValidationError
from .simulate import ScenarioConfig, generate, load_scenario_config
from .stats import SEED_LIMIT

# `experiment` and `oracle` derive the oracle seed from the scenario seed
# by a fixed offset, so one config (or one --seed) pins the whole pipeline.
_ORACLE_SEED_OFFSET = 1_000_003

# Columns of a simulated cohort (the exposure, then the confounder or
# mediator) and of estimates.csv, whose keys report.json's rows share.
_ROLES = ("x", "z")
_COLUMNS = ("method", "x", "x0", "t", "estimate", "std_err", "oracle_value", "oracle_se", "rel_err", "rarity_flag")


@dataclass(frozen=True)
class ExperimentConfig:
    """One end-to-end run: scenario, contrasts, horizons, oracle size."""

    scenario: ScenarioConfig
    contrasts: tuple
    horizon_grid: tuple
    oracle_n: int
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
        if not self.emit:
            raise ValidationError("field 'emit' must name 'csv', 'json' or both, got []")
        bad = self.emit - {"csv", "json"}
        if bad:
            raise ValidationError(f"field 'emit' may contain only 'csv' and 'json', got {sorted(bad)}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        for key in ("scenario", "contrasts", "horizon_grid", "oracle_n"):
            if key not in raw:
                raise ValidationError(f"experiment config is missing field '{key}'")
        if "output_dir" in raw:
            raise ValidationError("field 'output_dir' is not read; give the output directory with --out-dir")
        refuse_unknown(raw, [f.name for f in dataclasses.fields(ExperimentConfig)], "experiment config")
        if not isinstance(raw["scenario"], dict):
            raise ValidationError("field 'scenario' must be an object")
        contrasts = require_number(raw, "contrasts", shape=(None, 2), what="a list of [x, x0] pairs of finite numbers")
        horizon = require_number(raw, "horizon_grid", shape=(None,), what="a list of finite numbers")
        emit = raw.get("emit", ["csv", "json"])
        if not isinstance(emit, list) or not all(isinstance(e, str) for e in emit):
            raise ValidationError(f"field 'emit' must be a list of strings, got {emit!r}")
        return ExperimentConfig(
            scenario=ScenarioConfig.from_dict(raw["scenario"]),
            contrasts=tuple((float(x), float(x0)) for x, x0 in contrasts),
            horizon_grid=tuple(float(t) for t in horizon),
            oracle_n=require_int(raw, "oracle_n"),
            emit=frozenset(emit),
        )


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


def _scenario_with_seed(config: ScenarioConfig, seed) -> ScenarioConfig:
    return config if seed is None else dataclasses.replace(config, seed=int(seed))


def _oracle_seed(config: ScenarioConfig) -> int:
    """The oracle's seed, refused before anything is drawn unless it is below 2**64."""
    seed = config.seed + _ORACLE_SEED_OFFSET
    if seed >= SEED_LIMIT:
        raise InvalidArgumentError(f"the oracle seed, seed + {_ORACLE_SEED_OFFSET}, must be below 2**64, got {seed}")
    return seed


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


def _fitted(fitted) -> dict:
    """The fitted numbers of a DAG's table, as the outputs name them."""
    if isinstance(fitted, bd.BackdoorSummary):
        names = ("a_z", "mean_joint_risk", "max_cumhaz", "rarity_flag")
    else:
        names = ("beta_x", "beta_z", "alpha", "gamma", "mu_x", "sigma_x", "sigma_z")
    return {name: getattr(fitted, name) for name in names}


def cmd_estimate(args) -> int:
    """backdoor and frontdoor: the DAG's table for one contrast at one horizon."""
    x, x0 = _parse_contrast(args.contrast)
    _horizon(args.t, "--t")
    dataset = load_dataset(args.data)
    if args.command == "backdoor":
        fit = load_fit(args.fit) if args.fit else fit_cox(dataset)
        rows, summary = bd.estimate_table(dataset, fit, [(x, x0)], [args.t], args.z_columns.split(","))
        payload = {**_fitted(summary), "do_cumhaz_x": bd.do_cumhaz(fit, summary, x, args.t)}
    else:
        fit = fit_cox(dataset, list(_ROLES))
        rows, params = fd.estimate_table(dataset, fit, [(x, x0)], [args.t])
        indirect = fd.mediation_indirect_rr(params, x, x0)
        payload = {"params": _fitted(params), "mediation_indirect_rr": asdict(indirect)}
    payload.update(t=args.t, x=x, x0=x0)
    for method, row_x, _, _, est in rows:
        if method == "do_cdf":  # one row per distinct x of the contrast
            payload.update({key: asdict(est) for key, v in (("do_cdf_x", x), ("do_cdf_x0", x0)) if row_x == v})
        else:
            payload[method] = est.value if method == "paf" else asdict(est)
    out = _out_path(args, args.out)
    write_object(out, payload)
    _info(args, f"{args.command} estimates for ({x} vs {x0}) at t={args.t} -> {out}")
    return 0


def cmd_oracle(args) -> int:
    config = _scenario_with_seed(load_scenario_config(args.config), args.seed)
    seed = _oracle_seed(config)
    t = args.t if args.t is not None else config.horizon_t
    payload = {"n": args.n, "seed": seed, "t": t}
    if args.x0 is not None:
        ratio = orc.oracle_rr(config, args.x, args.x0, args.n, seed, t)
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
    write_object(out, payload)
    return 0


def _experiment_rows(exp: ExperimentConfig, dataset: Dataset, fit, oracle_seed: int) -> tuple:
    """The DAG's table on the grid joined to the oracle's references, plus
    the DAG's fitted numbers for report.json."""
    if exp.scenario.dag_kind == "backdoor":
        rows, summary = bd.estimate_table(dataset, fit, exp.contrasts, exp.horizon_grid, _ROLES[1:])
        facts = {"backdoor_summary": {**_fitted(summary), "horizon_t": summary.horizon_t}}
    else:
        rows, params = fd.estimate_table(dataset, fit, exp.contrasts, exp.horizon_grid)
        facts = {"frontdoor_params": _fitted(params)}
    oracle_rows, refs = orc.references(exp.scenario, exp.oracle_n, oracle_seed, rows)
    table = []
    for (method, x, x0, t, est), (ref, ref_se) in zip(rows + oracle_rows, refs):
        rel = abs(est.value - ref) / abs(ref) if ref else float("nan")
        table.append(dict(zip(_COLUMNS, (method, x, x0, t, est.value, est.std_err, ref, ref_se, rel, est.rarity_flag))))
    return table, facts


def cmd_experiment(args) -> int:
    exp = ExperimentConfig.from_dict(read_object(args.config, "experiment config"))
    exp = dataclasses.replace(exp, scenario=_scenario_with_seed(exp.scenario, args.seed))
    scenario = exp.scenario
    oracle_seed = _oracle_seed(scenario)
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

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

    written = []
    if "csv" in exp.emit:
        csv_path = out_dir / "estimates.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_COLUMNS) + "\n")
            for r in rows:
                fh.write(",".join(r["method"] if c == "method" else _fmt(r[c]) for c in _COLUMNS) + "\n")
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
            "approximation": asdict(approx),
            "estimates": rows,
            **facts,
        }
        json_path = out_dir / "report.json"
        write_object(json_path, report)
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
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DohazardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
