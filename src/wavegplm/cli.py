"""Command-line front end: fit, simulate and calibrate subcommands.

Reports are JSON documents embedding the fully resolved configuration and
seed, so any run can be reproduced from its own output.  Plot-ready data
(grid, true function, one example estimate) is written as tab-delimited
text next to the simulation report.

Exit codes: 0 on success, 2 for input or validation errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitError,
    NumericError,
    RankError,
    WavegplmError,
)
from .estimator import Dataset, FitConfig, PenaltyConfig, backfit
from .families import make_family
from .simulate import SimulationConfig, calibrate_threshold, calibration_regression, run_monte_carlo
from .wavelet import SUPPORTED_FILTERS

_VALIDATION_EXIT = 2
_NUMERIC_EXIT = 3


def _json_default(obj):
    """What ``json`` cannot encode itself: arrays, numpy scalars, dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(document: dict, out: str | None):
    # np.float64 subclasses float: json writes it with float.__repr__, not the hook
    text = json.dumps(document, indent=2, sort_keys=True, default=_json_default)
    if out is None:
        print(text)
    else:
        with open(out, "w") as handle:
            handle.write(text + "\n")


def _add_family_flags(parser):
    parser.add_argument("--family", choices=("gaussian", "binomial", "poisson"),
                        default="gaussian")
    parser.add_argument("--m", type=int, default=None,
                        help="binomial class count (dispersion 1/m)")
    parser.add_argument("--phi", type=float, default=None,
                        help="gaussian dispersion (noise variance)")


def _add_fit_flags(parser):
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="fixed threshold level (default: the per-family "
                             "universal level)")
    parser.add_argument("--penalty", choices=("l1", "sobolev"), default="l1")
    parser.add_argument("--sobolev-s", type=float, default=1.0)
    parser.add_argument("--filter", dest="filter_name", choices=SUPPORTED_FILTERS,
                        default="symmlet-8")
    parser.add_argument("--coarse-level", type=int, default=None)
    parser.add_argument("--kappa", type=int, default=5000)
    parser.add_argument("--delta", type=float, default=1e-20)


def _add_simulation_flags(parser, reps: int):
    parser.add_argument("--function", choices=("sinus", "blocs", "pics"), default="sinus")
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--beta0", type=float, default=1.0)
    parser.add_argument("--snr-f", type=float, default=9.0)
    parser.add_argument("--snr-beta", type=float, default=None)
    parser.add_argument("--reps", type=int, default=reps)
    parser.add_argument("--seed", type=int, default=0)


def _fit_config(args) -> FitConfig:
    penalty = PenaltyConfig(kind=args.penalty, lam=args.lam, sobolev_s=args.sobolev_s,
                            coarse_level=args.coarse_level)
    return FitConfig(kappa=args.kappa, delta=args.delta, filter_name=args.filter_name,
                     penalty=penalty)


def _family(args):
    return make_family(args.family, m=args.m, phi=args.phi)


def read_dataset(path: str) -> Dataset:
    """Delimited text with a header line 'y,x1,...,xp' (comma or whitespace).

    Blank lines are skipped; messages number lines as they are in the file.
    """
    try:
        with open(path) as handle:
            lines = [ln.strip() for ln in handle]
    except OSError as exc:
        raise ConfigurationError(f"cannot read dataset file {path!r}: {exc}") from exc
    numbered = [lineno for lineno, line in enumerate(lines, start=1) if line]
    if len(numbered) < 2:
        raise ConfigurationError(f"dataset file {path!r} has no data rows")
    head = lines[numbered[0] - 1]
    delim = "," if "," in head else None
    header = [c.strip() for c in head.split(delim)]
    if header[0] != "y":
        raise ConfigurationError(
            f"dataset file {path!r}: first column must be 'y', got {header[0]!r}"
        )
    data = np.empty((len(numbered) - 1, len(header)))
    for row, lineno in enumerate(numbered[1:]):
        cells = lines[lineno - 1].split(delim)
        if len(cells) != len(header):
            raise ConfigurationError(
                f"dataset file {path!r}, line {lineno}: "
                f"expected {len(header)} columns, got {len(cells)}"
            )
        try:
            data[row] = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigurationError(
                f"dataset file {path!r}, line {lineno}: {exc}"
            ) from exc
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ConfigurationError(
            f"dataset file {path!r}, line {numbered[bad[0] + 1]}: non-finite value")
    return Dataset(y=data[:, 0], X=data[:, 1:])


def cmd_fit(args) -> int:
    data = read_dataset(args.input)
    family = _family(args)
    config = _fit_config(args)
    fit = backfit(data, family, config)
    _write_json({
        "command": "fit",
        "input": args.input,
        "family": {"kind": args.family, "m": args.m, "phi": family.phi},
        "fit_config": config,
        "beta": fit.beta,
        "f_hat": fit.f_hat,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "lambda": fit.lam,
        "final_loglik": fit.final_loglik,
        "criterion": fit.criterion,
    }, args.out)
    return 0


def _sim_config(args) -> SimulationConfig:
    return SimulationConfig(
        family_kind=args.family,
        m=args.m,
        phi=args.phi,
        function=args.function,
        n=args.n,
        p=args.p,
        beta0=args.beta0,
        target_snr_f=args.snr_f,
        target_snr_beta=args.snr_beta,
        replications=args.reps,
        seed=args.seed,
        fit=_fit_config(args),
    )


def _report_document(report) -> dict:
    # wall time is deliberately left out: reports must be byte-reproducible
    return {
        "config": report.config,
        "snr_f": report.snr_f,
        "snr_beta": report.snr_beta,
        "betas": report.betas,
        "rmises": report.rmises,
        "iteration_counts": report.iteration_counts,
        "failures": report.failures,
        "mean_beta": report.mean_beta,
        "sd_beta": report.sd_beta,
        "mean_rmise": report.mean_rmise,
        "mean_iterations": report.mean_iterations,
    }


def _write_plot_data(report, path: str):
    n = report.config.n
    t = np.arange(1, n + 1) / n
    with open(path, "w") as handle:
        handle.write("t\tf0\tf_hat\n")
        for ti, f0i, fhi in zip(t, report.f0, report.example_f_hat):
            handle.write(f"{float(ti)!r}\t{float(f0i)!r}\t{float(fhi)!r}\n")


def cmd_simulate(args) -> int:
    report = run_monte_carlo(_sim_config(args))
    document = {"command": "simulate", **_report_document(report)}
    _write_json(document, args.out)
    if args.out is not None:
        _write_plot_data(report, args.out + ".plot.tsv")
    print(f"wall time: {report.wall_time_s:.2f} s", file=sys.stderr)
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if spec.startswith("lin:"):
            start, stop, count = spec.split(":")[1:]
            return np.linspace(float(start), float(stop), int(count))
        return np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse grid {spec!r}: {exc}") from exc


def _sweep(key: str, spec: str, ratio_grid: str, point) -> dict:
    """Calibrate at each comma-listed sweep value v, on the grid
    ratio * scale where ``point(v)`` returns (config, scale), and regress
    the optimal thresholds on the scales."""
    try:
        values = [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse sweep list {spec!r}: {exc}") from exc
    ratios = _parse_grid(ratio_grid)
    scales, stars, curves = [], [], []
    for value in values:
        cfg, scale = point(value)
        curve = calibrate_threshold(cfg, ratios * scale)
        scales.append(scale)
        stars.append(curve.argmin_lambda)
        curves.append({key: value, "lambdas": curve.lambdas,
                       "mean_rmise": curve.mean_rmise, "failures": curve.failures,
                       "argmin_lambda": curve.argmin_lambda})
    c, r2 = calibration_regression(scales, stars)
    return {"sweep": key, "points": curves, "slope_c": c, "r_squared": r2}


def cmd_calibrate(args) -> int:
    config = _sim_config(args)
    document: dict = {"command": "calibrate", "config": config}
    if args.sweep_m:
        def point(m):
            cfg = dataclasses.replace(config, family_kind="binomial", m=m, phi=None)
            return cfg, math.sqrt(math.log(cfg.n) / m)
        document.update(_sweep("m", args.sweep_m, args.ratio_grid, point))
    elif args.sweep_n:
        phi = config.family().phi
        def point(n):
            return dataclasses.replace(config, n=n), math.sqrt(phi * math.log(n))
        document.update(_sweep("n", args.sweep_n, args.ratio_grid, point))
    else:
        if args.lambda_grid is None:
            raise ConfigurationError("calibrate needs --lambda-grid, --sweep-m or --sweep-n")
        curve = calibrate_threshold(config, _parse_grid(args.lambda_grid))
        document.update({"lambdas": curve.lambdas, "mean_rmise": curve.mean_rmise,
                         "failures": curve.failures, "argmin_lambda": curve.argmin_lambda})
    _write_json(document, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavegplm",
        description="Penalized-likelihood GPLM estimation with wavelet shrinkage",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit a GPLM to a dataset file")
    fit.add_argument("input", help="dataset file: header 'y,x1,...,xp'")
    _add_family_flags(fit)
    _add_fit_flags(fit)
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    _add_family_flags(sim)
    _add_fit_flags(sim)
    _add_simulation_flags(sim, reps=500)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="sweep threshold levels")
    _add_family_flags(cal)
    _add_fit_flags(cal)
    _add_simulation_flags(cal, reps=100)
    cal.add_argument("--lambda-grid", default=None,
                     help="comma list or lin:start:stop:count")
    cal.add_argument("--sweep-m", default=None,
                     help="comma list of binomial m values; fits slope c and R^2")
    cal.add_argument("--sweep-n", default=None,
                     help="comma list of sample sizes; fits slope c and R^2")
    cal.add_argument("--ratio-grid", default="lin:0.1:1.5:15",
                     help="grid of ratios of sqrt(phi log n) used by sweeps")
    cal.add_argument("--out", default=None)
    cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _VALIDATION_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigurationError, DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except (FitError, NumericError, RankError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except WavegplmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
