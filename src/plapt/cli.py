"""Command-line surface: evaluation, quartile tables, fitting, sampling,
EVI estimation, tail expansion, and simulation experiments.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 I/O error.  Numbers are printed in shortest round-trip decimal form, so
CSV -> JSON -> CSV round trips preserve values bit-for-bit.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .distribution import PlAptParams, Sample, quantile, sample as draw_sample
from . import distribution
from .exceptions import DomainError, NumericalError, PlaptError
from .extremes import WeightSpec, double_hill_components, evi_asymptotic_test, extremal_quantile
from .inference import _information_criteria, fit_mle, fit_mle_profile
from .montecarlo import REFERENCE_PARAMETER_GRID, ExperimentConfig, ExperimentKind, run_experiment

SEED_ENV_VAR = "PLAPT_SEED"

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4

_DEFAULT_US = (0.25, 0.5, 0.75)
# Values per piece of `plapt sample`'s CSV: the text is written as it is
# made, never n strings at once.
_SAMPLE_PIECE = 4096


def _formatter(digits: int | None):
    # the text of a printed value: its repr, or --digits significant digits,
    # checked here, once per command
    if digits is None:
        return lambda value: repr(float(value))
    digits = distribution._integer("--digits", digits, 1)
    return lambda value: f"{value:.{digits}g}"


def read_numeric_csv(path: str) -> np.ndarray:
    """Read a single-column numeric CSV (optional header, LF or CRLF).

    Raises DomainError naming the offending 1-based line for negative
    values, extra columns, text that is not UTF-8, or unparseable data rows.
    """
    values: list[float] = []
    header_allowed = True
    # an undecodable byte is read as a lone surrogate, U+DC80..U+DCFF, and refused with its line
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if "," in text:
                raise DomainError(f"line {lineno}: expected a single numeric column")
            try:
                v = float(text)
            except ValueError:
                if any("\udc80" <= c <= "\udcff" for c in text):
                    raise DomainError(f"line {lineno}: not UTF-8 text") from None
                if header_allowed:
                    header_allowed = False
                    continue
                raise DomainError(f"line {lineno}: not a number: {text!r}") from None
            header_allowed = False
            if not math.isfinite(v):
                raise DomainError(f"line {lineno}: non-finite value {text!r}")
            if v < 0.0:
                raise DomainError(f"line {lineno}: negative value {text!r}")
            values.append(v)
    if not values:
        raise DomainError(f"{path}: no numeric data rows")
    return np.asarray(values, dtype=float)


def _emit(text, output: str | None) -> None:
    """Write ``text``, a string or pieces of one written as they come, to
    stdout or the file ``output``, ending it with a newline."""
    if output is None:
        _write(sys.stdout, text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, text)


def _write(fh, text) -> None:
    last = ""
    for last in (text,) if isinstance(text, str) else text:
        fh.write(last)
    if not last.endswith("\n"):
        fh.write("\n")


def _params_from(args) -> PlAptParams:
    return PlAptParams(alpha=args.alpha, beta=args.beta, theta=args.theta)


def _seed_from(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _weight_from(args) -> WeightSpec:
    if getattr(args, "tau", None) is not None:
        return WeightSpec.power(args.tau, s=args.s)
    return WeightSpec.hill(s=args.s)


def _cmd_eval(args) -> int:
    p = _params_from(args)
    fmt = _formatter(args.digits)
    fn = {
        "pdf": distribution.pdf,
        "cdf": distribution.cdf,
        "hazard": distribution.hazard,
        "quantile": distribution.quantile,
    }[args.command]
    points = args.u if args.command == "quantile" else args.x
    col = "u" if args.command == "quantile" else "x"
    values = fn(p, np.array(points)).tolist()  # elementwise: one call for all the points
    lines = [f"{col},{args.command}"] + [f"{fmt(pt)},{fmt(v)}" for pt, v in zip(points, values)]
    _emit("\n".join(lines), args.output)
    return _EXIT_OK


def _cmd_table(args) -> int:
    pairs = []
    for token in args.pairs:
        try:
            a, b = token.split(":")
            pairs.append((float(a), float(b)))
        except ValueError:
            raise DomainError(f"bad alpha:beta pair {token!r}") from None
    us = np.array(args.u, dtype=float)
    fmt = _formatter(args.digits)
    header = ["theta", "alpha", "beta"] + [f"q{i + 1}" for i in range(len(us))]
    lines = [",".join(header)]
    for theta in args.thetas:
        for alpha, beta in pairs:
            p = PlAptParams(alpha=alpha, beta=beta, theta=theta)
            qs = quantile(p, us).tolist()
            lines.append(",".join(fmt(v) for v in (theta, alpha, beta, *qs)))
    _emit("\n".join(lines), args.output)
    return _EXIT_OK


def _cmd_sample(args) -> int:
    x = draw_sample(_params_from(args), args.n, _seed_from(args)).values

    def pieces():
        yield "x"
        for i in range(0, x.size, _SAMPLE_PIECE):
            yield "\n" + "\n".join(map(repr, x[i : i + _SAMPLE_PIECE].tolist()))

    _emit(pieces(), args.output)
    return _EXIT_OK


def _cmd_fit(args) -> int:
    data = Sample(read_numeric_csv(args.input))
    init = None
    if args.theta0 is not None or args.beta0 is not None:
        if args.theta0 is None or args.beta0 is None:
            raise DomainError("provide both --theta0 and --beta0 or neither")
        init = (args.theta0, args.beta0)
    if args.alpha_grid is not None:
        fit, _ = fit_mle_profile(args.alpha_grid, data, init=init)
        n_free = 3
    else:
        fit = fit_mle(args.alpha, data, init=init)
        n_free = 2
    aic, bic = _information_criteria(fit.loglik, n_free, data.n)
    payload = {
        "n": data.n,
        "alpha": fit.params.alpha,
        "theta": fit.params.theta,
        "beta": fit.params.beta,
        "stderr_theta": fit.stderr_theta,
        "stderr_beta": fit.stderr_beta,
        "loglik": fit.loglik,
        "aic": aic,
        "bic": bic,
        "convergence": {
            "converged": fit.converged,
            "status": fit.status,
            "iterations": fit.iterations,
            "score_norm": fit.score_norm,
        },
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return _EXIT_OK if fit.converged else _EXIT_NUMERICAL


def _cmd_evi(args) -> int:
    data = Sample(read_numeric_csv(args.input))
    w = _weight_from(args)
    test = None if args.target is None else evi_asymptotic_test(data, w, args.k, args.target)
    report = double_hill_components(data, w, args.k) if test is None else test.report
    payload = {
        "n": data.n,
        "weight": {"kind": w.kind, "s": w.s, "tau": w.tau},
        "an_sn_ratio": report.an_sn_ratio,
        **dataclasses.asdict(report),  # k, t_n, a_n, s_n, b_n, m_n, z_stat, ci_low, ci_high
    }
    if test is not None:
        payload["test"] = {
            "target": args.target,
            "z_stat": test.z_stat,
            "p_value": test.p_value,
            "lindeberg_warning": test.lindeberg_warning,
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return _EXIT_OK


def _cmd_expansion(args) -> int:
    p = _params_from(args)
    rows = []
    for u in args.u:
        e = extremal_quantile(p, u)
        rows.append(
            {"u": u, "value": e.value, "c_ab": e.c_ab, "c0": e.c0, "components": e.components}
        )
    _emit(json.dumps(rows, indent=2, sort_keys=True), args.output)
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    flags = (args.alpha, args.beta, args.theta)
    if None in flags and flags != (None, None, None):
        raise DomainError("truth requires --alpha, --beta and --theta together")
    truth = None if args.alpha is None else _params_from(args)
    cfg = ExperimentConfig(
        kind=ExperimentKind(args.kind.replace("-", "_")),
        n=args.n,
        reps=args.reps,
        seed=_seed_from(args),
        truth=truth,
        weight=_weight_from(args),
        k_exponent=args.k_exponent,
        pareto_gamma=args.pareto_gamma,
        alpha_grid=tuple(args.alpha_grid) if args.alpha_grid is not None else None,
    )
    report = run_experiment(cfg)
    _emit(report.json_chunks(), args.output)
    return _EXIT_OK


def _add_param_flags(sub, require: bool = True) -> None:
    sub.add_argument("--alpha", type=float, required=require)
    sub.add_argument("--beta", type=float, required=require)
    sub.add_argument("--theta", type=float, required=require)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapt",
        description="Alpha-power transformed Pseudo-Lindley distribution toolkit",
    )
    parser.add_argument("--version", action="version", version=f"plapt {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("pdf", "cdf", "hazard", "quantile"):
        sub = subs.add_parser(name, help=f"evaluate the {name} at given points")
        _add_param_flags(sub)
        if name == "quantile":
            sub.add_argument("--u", type=float, nargs="+", required=True)
        else:
            sub.add_argument("--x", type=float, nargs="+", required=True)
        sub.add_argument("--digits", type=int, default=None)
        sub.add_argument("--output", default=None)
        sub.set_defaults(func=_cmd_eval)

    table = subs.add_parser("table", help="CSV table of quartiles over a parameter grid")
    # The bare `table` reproduces the reference grid, theta outermost.
    thetas = dict.fromkeys(p.theta for p in REFERENCE_PARAMETER_GRID)
    pairs = dict.fromkeys(f"{p.alpha}:{p.beta}" for p in REFERENCE_PARAMETER_GRID)
    table.add_argument("--thetas", type=float, nargs="+", default=list(thetas))
    table.add_argument(
        "--pairs",
        nargs="+",
        default=list(pairs),
        help="alpha:beta pairs, e.g. 0.5:1.1 2:2.5",
    )
    table.add_argument("--u", type=float, nargs="+", default=list(_DEFAULT_US))
    table.add_argument("--digits", type=int, default=None, help="7 matches the reference tables")
    table.add_argument("--output", default=None)
    table.set_defaults(func=_cmd_table)

    smp = subs.add_parser("sample", help="draw a CSV sample by inverse transform")
    _add_param_flags(smp)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=None, help=f"default from ${SEED_ENV_VAR} or 0")
    smp.add_argument("--output", default=None)
    smp.set_defaults(func=_cmd_sample)

    fit = subs.add_parser("fit", help="maximum-likelihood fit of (theta, beta)")
    fit.add_argument("--input", required=True)
    group = fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--alpha-grid", type=float, nargs="+", default=None)
    fit.add_argument("--theta0", type=float, default=None)
    fit.add_argument("--beta0", type=float, default=None)
    fit.add_argument("--output", default=None)
    fit.set_defaults(func=_cmd_fit)

    evi = subs.add_parser("evi", help="double-Hill extreme-value-index report")
    evi.add_argument("--input", required=True)
    evi.add_argument("--k", type=int, required=True)
    evi.add_argument("--s", type=float, default=WeightSpec.s)
    evi.add_argument("--tau", type=float, default=None, help="power weights j**tau (default Hill)")
    evi.add_argument("--target", type=float, default=None)
    evi.add_argument("--output", default=None)
    evi.set_defaults(func=_cmd_evi)

    expn = subs.add_parser("expansion", help="asymptotic upper-tail quantile with breakdown")
    _add_param_flags(expn)
    expn.add_argument("--u", type=float, nargs="+", required=True)
    expn.add_argument("--output", default=None)
    expn.set_defaults(func=_cmd_expansion)

    exp = subs.add_parser("experiment", help="run a seeded simulation experiment")
    exp.add_argument("--kind", required=True, choices=[k.value.replace("_", "-") for k in ExperimentKind])
    _add_param_flags(exp, require=False)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--reps", type=int, required=True)
    exp.add_argument("--seed", type=int, default=None, help=f"default from ${SEED_ENV_VAR} or 0")
    exp.add_argument("--k-exponent", type=float, default=ExperimentConfig.k_exponent)
    exp.add_argument("--s", type=float, default=WeightSpec.s)
    exp.add_argument("--tau", type=float, default=None)
    exp.add_argument("--pareto-gamma", type=float, default=None)
    exp.add_argument("--alpha-grid", type=float, nargs="+", default=None)
    exp.add_argument("--output", default=None)
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (PlaptError, MemoryError) as exc:  # any other package error, or a count too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
