"""Command-line front end: every computation and verification as a subcommand.

Output contract: one JSON report envelope on stdout per invocation
({command, inputs, results, max_residual?, pass, version, seed?}); anything
human-readable goes to stderr (enable with --pretty).  Exit codes: 0 pass,
1 verification failure, 2 usage error (a float argument must be finite), a
non-finite result (an envelope holding an infinity or a NaN is not JSON, so
none is written, and neither is a CSV) or a request too large to allocate.

Polynomial arguments (--phi/--psi) use the little expression grammar from
:mod:`.expr`: tokens z, zbar, i, numbers, + - * ^ ( ), e.g. "z*zbar - 2" or
"(1+i)*z^2".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, checks, hermite, sde
from .expr import parse_poly
from .operator import (
    GeneratorParams,
    carre_du_champ,
    carre_du_champ_via_generator,
    eigenvalue,
)
from .poly import _blocks
from .semigroup import PropagatorParams, semigroup_spectral
from .spectral import SpectralCoeffs


def _json_text(obj) -> str:
    """obj as compact JSON; ValueError if it holds an infinity or a NaN,
    which JSON cannot represent."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError("the result is not finite; nothing written") from None


def _envelope(cmd, inputs, results, *, report=None, seed=None, passed=True):
    env = {"command": " ".join(cmd.words), "inputs": inputs, "results": results}
    if report is not None:
        env["max_residual"] = report.max_residual
        passed = report.passed
    env["pass"] = passed
    env["version"] = __version__
    if seed is not None:
        env["seed"] = int(seed)
    return env


def _judge(args, name, residual, tol, details) -> checks.CheckReport:
    """A residual command's report, judged at --tol if given, else at tol.  No
    suite a command runs has an ``ok`` condition, so at tol its verdict stands."""
    tol = tol if args.tol is None else args.tol
    return checks.CheckReport.within(name, (residual,), tol, details)


def _cmd_suite(cmd, args) -> dict:
    """Envelope of a suite command's report: the command's own options as
    inputs, in declaration order, then the tolerance and --seed if taken."""
    run = cmd.run(args)
    report = _judge(args, run.name, run.max_residual, run.tol, run.details)
    dests = [flag[2:].replace("-", "_") for flag, _ in cmd.options]
    return _envelope(
        cmd,
        {**{dest: getattr(args, dest) for dest in dests}, "tol": report.tol},
        {**report.details, "suite": report.name},
        report=report,
        seed=getattr(args, "seed", None),
    )


def _complex_obj(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _matrix_obj(mat: np.ndarray) -> list:
    return [[_complex_obj(complex(v)) for v in row] for row in mat]


# -- hermite -------------------------------------------------------------------


def _cmd_hermite_show(cmd, args) -> dict:
    if args.route == "creation":
        poly = hermite.complex_hermite_via_creation(args.m, args.n)
    else:
        poly = hermite.complex_hermite(args.m, args.n)
    return _envelope(
        cmd,
        {"m": args.m, "n": args.n, "route": args.route},
        {"poly": poly.to_json_obj()},
    )


def _cmd_hermite_transform(cmd, args) -> dict:
    tr = hermite.build_basis_transform(args.degree)
    report = _judge(args, "basis-transform", tr.residual(), checks.TRANSFORM_TOL, {})
    return _envelope(
        cmd,
        {"degree": args.degree, "tol": report.tol},
        {"forward": _matrix_obj(tr.forward), "inverse": _matrix_obj(tr.inverse)},
        report=report,
    )


# -- operator ------------------------------------------------------------------


def _cmd_operator_eigen(cmd, args) -> dict:
    lam = eigenvalue(GeneratorParams(args.theta), args.m, args.n)
    return _envelope(
        cmd,
        {"theta": args.theta, "m": args.m, "n": args.n},
        {"lambda": _complex_obj(lam), "abs": abs(lam)},
    )


def _cmd_operator_gamma(cmd, args) -> dict:
    phi = parse_poly(args.phi)
    psi = parse_poly(args.psi if args.psi is not None else args.phi)
    direct = carre_du_champ(phi, psi)
    via_gen = carre_du_champ_via_generator(GeneratorParams(args.theta), phi, psi)
    residual = (direct - via_gen).max_abs_coeff()
    report = _judge(args, "gamma-generator-route", residual, checks.GAMMA_TOL, {})
    return _envelope(
        cmd,
        {"phi": args.phi, "psi": args.psi, "theta": args.theta, "tol": report.tol},
        {"gamma": direct.to_json_obj(), "generator_route_residual": residual},
        report=report,
    )


# -- semigroup -------------------------------------------------------------------


def _cmd_semigroup_apply(cmd, args) -> dict:
    if args.input == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.input, encoding="utf-8") as fh:
            obj = json.load(fh)
    coeffs, file_theta = SpectralCoeffs.from_json_obj(obj)
    theta = args.theta if args.theta is not None else file_theta
    if theta is None:
        raise ValueError("theta not given (neither --theta nor a theta field in the input)")
    p = PropagatorParams(GeneratorParams(theta), args.t)
    out = semigroup_spectral(p, coeffs)
    return _envelope(
        cmd,
        {"theta": theta, "t": args.t, "input": args.input},
        {"coeffs": out.to_json_obj(theta)},
    )


def _cmd_semigroup_verify_normal(cmd, args) -> dict:
    env = _cmd_suite(cmd, args)
    env["results"]["max_residual"] = env["max_residual"]
    env["results"]["grid"] = {"theta": [args.theta], "t": [args.t]}
    return env


# -- sde -------------------------------------------------------------------------


# Most paths converted to Python floats at a time while writing the CSV, so
# memory stays bounded for large ensembles.
_CSV_BLOCK_PATHS = 64


def _write_csv(path: str, ensemble: sde.PathEnsemble) -> None:
    """(path_id, t, re, im) rows, floats as repr, in the layout of csv.writer's
    default dialect (unquoted fields, CRLF line ends)."""
    t_reprs = [repr(float(t)) for t in ensemble.config.t_grid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path_id,t,re,im\r\n")
        for lo, hi in _blocks(ensemble.config.n_paths, _CSV_BLOCK_PATHS):
            block = ensemble.states[lo:hi]
            fh.writelines(
                f"{i},{t},{re!r},{im!r}\r\n"
                for i, row_re, row_im in zip(
                    range(lo, hi), block.real.tolist(), block.imag.tolist()
                )
                for t, re, im in zip(t_reprs, row_re, row_im)
            )


def _cmd_sde_simulate(cmd, args) -> dict:
    params = GeneratorParams(args.theta)
    x0 = complex(args.x0_re, args.x0_im)
    config = sde.SimConfig(
        params=params,
        x0=x0,
        t_grid=(0.0,) + tuple(args.t),
        n_paths=args.paths,
        seed=args.seed,
        scheme=args.scheme,
        dt=args.dt,
    )
    ensemble = sde.sample_exact(config) if args.scheme == "exact" else sde.sample_euler(config)
    moments = []
    for k, t in enumerate(config.t_grid):
        mean, mean_se = sde.estimate_pt(ensemble, lambda w: w, k)
        abs_mean, abs_se = sde.abs_second_moment(ensemble.states[:, k])
        mean_t, var_t = PropagatorParams(params, t).transition_moments(x0)
        moments.append(
            {
                "t": t,
                "mean": _complex_obj(mean),
                "mean_se": mean_se,
                "expected_mean": _complex_obj(mean_t),
                "abs_second_moment": abs_mean,
                "abs_second_moment_se": abs_se,
                "expected_variance": var_t,
                # a product: ** 2 would raise on overflow, not give a non-finite result
                "expected_abs_second_moment": abs(mean_t) * abs(mean_t) + var_t,
            }
        )
    if args.csv is not None:
        _json_text(moments)  # no CSV for a run whose envelope cannot be written
        _write_csv(args.csv, ensemble)
    return _envelope(
        cmd,
        {
            "theta": args.theta,
            "x0": _complex_obj(x0),
            "t_grid": list(config.t_grid),
            "paths": args.paths,
            "scheme": args.scheme,
            "dt": args.dt,
        },
        {"moments": moments, "csv_path": args.csv},
        seed=args.seed,
    )


def _cmd_sde_stationarity(cmd, args) -> dict:
    rep = sde.stationarity_check(GeneratorParams(args.theta), args.paths, args.t_burn, args.seed)
    report = _judge(args, "sde-stationarity", rep.max_ratio, sde.STATIONARITY_TOL, {})
    return _envelope(
        cmd,
        {"theta": args.theta, "paths": args.paths, "t_burn": rep.t_burn, "tol": report.tol},
        {
            key: _complex_obj(value) if isinstance(value, complex) else value
            for key, value in dataclasses.asdict(rep).items()
            if key not in ("n_paths", "t_burn")
        },
        report=report,
        seed=args.seed,
    )


# -- verify-all -------------------------------------------------------------------


def _cmd_verify_all(cmd, args) -> dict:
    reports = checks.run_all(seed=args.seed, n_paths=args.paths)
    return _envelope(
        cmd,
        {"paths": args.paths},
        {"suites": [r.to_json_obj() for r in reports]},
        seed=args.seed,
        passed=all(r.passed for r in reports),
    )


# -- parser ------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type: a float other than an infinity or a NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(low: int, what: str):
    """argparse type: an integer of at least ``low``, else "not a {what}"."""

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"not a {what}: {text!r}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value", as with type=int
    return parse


# A negative degree or a count below 1 would leave a suite nothing to check.
_degree = _int_at_least(0, "non-negative integer")
_count = _int_at_least(1, "positive integer")


class Command(NamedTuple):
    """One command: its words, help, own options ((flag, add_argument keywords)
    in order; --pretty, then --tol and --seed if taken, follow) and handler,
    called as ``handler(cmd, args)``.  A suite command gives ``run``
    (args -> CheckReport), which the default handler reports."""

    words: tuple[str, ...]
    help: str
    options: tuple[tuple[str, dict], ...]
    handler: Callable[..., dict] = _cmd_suite
    tol: bool = False
    seed: bool = False
    run: Callable[[argparse.Namespace], checks.CheckReport] | None = None


GROUPS = {
    "hermite": "eigenbasis polynomials and transforms",
    "operator": "generator, carre du champ, chain rule",
    "semigroup": "P_t in spectral and Mehler form",
    "sde": "Monte Carlo simulation of the SDE",
    "quad": "Gauss-Hermite quadrature utilities",
}

# options that several commands declare alike
_THETA = ("--theta", dict(type=_finite_float, required=True))
_T = ("--t", dict(type=_finite_float, required=True))

COMMANDS = (
    Command(("hermite", "show"), "print one basis polynomial as JSON", (
        # plain int: complex_hermite's range error also names the degree cap
        ("--m", dict(type=int, required=True)), ("--n", dict(type=int, required=True)),
        ("--route", dict(choices=("explicit", "creation"), default="explicit")),
    ), _cmd_hermite_show),
    Command(("hermite", "orthonormality"), "Gram matrix vs identity under quadrature", (
        ("--max-degree", dict(type=_degree, default=10)), ("--order", dict(type=int, default=12)),
    ), tol=True, run=lambda a: checks.check_orthonormality(max_degree=a.max_degree, order=a.order)),
    Command(("hermite", "transform"), "level-l change of basis matrices and residuals", (
        ("--degree", dict(type=int, required=True)),
    ), _cmd_hermite_transform, tol=True),
    Command(("hermite", "roundtrip"), "project_monomials/synthesize round trip residual", (
        ("--max-degree", dict(type=_degree, default=10)),
    ), tol=True, run=lambda a: checks.check_roundtrip(max_degree=a.max_degree)),
    Command(("operator", "eigen"), "eigenvalue lambda[m,n] of the generator", (
        _THETA, ("--m", dict(type=_degree, required=True)),
        ("--n", dict(type=_degree, required=True)),
    ), _cmd_operator_eigen),
    Command(("operator", "gamma"), "carre du champ of two polynomial literals", (
        ("--phi", dict(type=str, required=True)),
        ("--psi", dict(type=str, default=None, help="defaults to --phi")),
        ("--theta", dict(type=_finite_float, default=0.0, help="angle for the generator route")),
    ), _cmd_operator_gamma, tol=True),
    Command(("operator", "chain-rule"), "second-order chain rule residual suite", (
        _THETA, ("--degree", dict(type=_degree, default=3, help="inner polynomial degree")),
        ("--cases", dict(type=_count, default=100)),
    ), tol=True, seed=True, run=lambda a: checks.check_chain_rule(
        n_cases=a.cases, max_degree_inner=a.degree, thetas=(a.theta,), seed=a.seed)),
    Command(("operator", "normality"), "L L* = L* L on random polynomials", (
        _THETA, ("--degree", dict(type=_degree, default=6)),
    ), tol=True, seed=True, run=lambda a: checks.check_operator_normality(
        max_degree=a.degree, thetas=(a.theta,), seed=a.seed)),
    Command(("semigroup", "apply"), "apply the spectral multiplier to coefficients", (
        ("--theta", dict(type=_finite_float, default=None, help="overrides the input file's theta")),
        _T, ("--input", dict(type=str, required=True, help="coefficients JSON ('-' for stdin)")),
    ), _cmd_semigroup_apply),
    Command(("semigroup", "verify-normal"), "commutation and fused-form residuals", (
        _THETA, _T, ("--degree", dict(type=_degree, default=5)),
        ("--points", dict(type=_count, default=5)),
    ), _cmd_semigroup_verify_normal, tol=True, seed=True,
        run=lambda a: checks.check_semigroup_normality(
            max_degree=a.degree, thetas=(a.theta,), ts=(a.t,), n_points=a.points, seed=a.seed)),
    Command(("semigroup", "invariance"), "gamma-invariance residual suite", (
        _THETA, _T, ("--degree", dict(type=_degree, default=8)),
    ), tol=True, seed=True, run=lambda a: checks.check_invariance(
        max_degree=a.degree, thetas=(a.theta,), ts=(a.t,), seed=a.seed)),
    Command(("sde", "simulate"), "sample paths; JSON moments, optional CSV", (
        _THETA,
        ("--x0-re", dict(type=_finite_float, default=0.0)),
        ("--x0-im", dict(type=_finite_float, default=0.0)),
        ("--t", dict(type=_finite_float, nargs="+", required=True, help="recording times (> 0)")),
        ("--paths", dict(type=int, required=True)),
        ("--scheme", dict(choices=sde.SCHEMES, default="exact")),
        ("--dt", dict(type=_finite_float, default=None, help="euler step (required for euler)")),
        ("--csv", dict(type=str, default=None, help="write (path_id,t,re,im) rows here")),
    ), _cmd_sde_simulate, seed=True),
    Command(("sde", "stationarity"), "long-run law vs the invariant Gaussian", (
        _THETA, ("--paths", dict(type=int, required=True)),
        ("--t-burn", dict(type=_finite_float, default=None, help="default: 6 ln10 / cos(theta)")),
    ), _cmd_sde_stationarity, tol=True, seed=True),
    Command(("quad", "selftest"), "moment and orthonormality exactness checks", (
        ("--order", dict(type=int, default=12)),
    ), tol=True, run=lambda a: checks.check_quadrature(order=a.order)),
    Command(("verify-all",), "run every verification suite and aggregate", (
        ("--paths", dict(type=int, default=200000, help="Monte Carlo path budget")),
    ), _cmd_verify_all, seed=True),
)


def build_parser(words=None) -> argparse.ArgumentParser | None:
    """The parser of the whole tree, or with ``words``, the first two words of a
    command line, of the one branch they name (None if they name no command).

    argparse formats a command's usage, help and errors from its own branch, so
    a parse through the branch alone reads and prints what the whole tree does.
    """
    parser = argparse.ArgumentParser(
        prog="complexou",
        description="Complex Ornstein-Uhlenbeck operator toolkit: eigenbasis, "
        "semigroup, SDE sampling, and identity verification.",
        epilog='Polynomial literals use tokens z, zbar, i, numbers, + - * ^ ( ): '
        'e.g. "z*zbar - 2" or "(1+i)*z^2".',
    )
    top = parser.add_subparsers(dest="group", required=True, metavar="COMMAND")
    groups = {}
    for cmd in COMMANDS:
        if words is not None and tuple(words[: len(cmd.words)]) != cmd.words:
            continue
        group = cmd.words[0]
        if len(cmd.words) == 2 and group not in groups:
            groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="command", required=True, metavar="SUBCOMMAND"
            )
        p = groups.get(group, top).add_parser(cmd.words[-1], help=cmd.help)
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--pretty", action="store_true", help="render a summary table on stderr")
        if cmd.tol:
            p.add_argument("--tol", type=_finite_float, default=None, help="override the pass tolerance")
        if cmd.seed:
            p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED, help="RNG seed")
        p.set_defaults(handler=partial(cmd.handler, cmd))
    return parser if top.choices else None


def _pretty(env: dict, stream) -> None:
    print(f"command      : {env['command']}", file=stream)
    if "seed" in env:
        print(f"seed         : {env['seed']}", file=stream)
    if "max_residual" in env:
        tol = env["inputs"].get("tol")
        suffix = f"  (tol {tol:g})" if isinstance(tol, (int, float)) else ""
        print(f"max_residual : {env['max_residual']:.6e}{suffix}", file=stream)
    print(f"pass         : {env['pass']}", file=stream)
    results = env.get("results", {})
    suites = results.get("suites")
    if suites:
        width = max(len(s["name"]) for s in suites)
        for s in suites:
            resid, tol = f"{s['max_residual']:.3e}", f"{s['tol']:.1e}"
            status = "PASS" if s["pass"] else "FAIL"
            print(f"  {s['name']:<{width}}  {resid:>10}  tol {tol:>8}  {status}", file=stream)
        return
    for key, value in results.items():
        if isinstance(value, (int, float, str, bool)):
            print(f"  {key} = {value}", file=stream)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Building only the named command's branch costs a fraction of the whole
    # tree; anything else (help, a missing or unknown command) gets the tree.
    parser = build_parser(argv[:2]) or build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow shows as a non-finite result below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            env = args.handler(args)
        text = _json_text(env)
    # an ExprError and a json.JSONDecodeError are ValueErrors
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if getattr(args, "pretty", False):
        _pretty(env, sys.stderr)
    return 0 if env["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
