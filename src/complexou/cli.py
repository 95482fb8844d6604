"""Command-line front end: every computation and verification as a subcommand.

Output contract: one JSON report envelope on stdout per invocation
({command, inputs, results, max_residual?, pass, version, seed?}); anything
human-readable goes to stderr (enable with --pretty).  Exit codes: 0 pass,
1 verification failure, 2 usage error (a float argument must be finite) or a
non-finite result (an envelope holding an infinity or a NaN is not JSON, so
none is written, and neither is a CSV).

Polynomial arguments (--phi/--psi) use the little expression grammar from
:mod:`.expr`: tokens z, zbar, i, numbers, + - * ^ ( ), e.g. "z*zbar - 2" or
"(1+i)*z^2".
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, checks, hermite, sde
from .expr import ExprError, parse_poly
from .operator import (
    GeneratorParams,
    carre_du_champ,
    carre_du_champ_via_generator,
    eigenvalue,
)
from .semigroup import PropagatorParams, semigroup_spectral
from .spectral import SpectralCoeffs


def _json_text(obj) -> str:
    """obj as compact JSON; ValueError if it holds an infinity or a NaN,
    which JSON cannot represent."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError("the result is not finite; nothing written") from None


def _envelope(command, inputs, results, *, max_residual=None, tol=None, seed=None, passed=None):
    env = {"command": command, "inputs": inputs, "results": results}
    if max_residual is not None:
        env["max_residual"] = float(max_residual)
        if passed is None:
            passed = max_residual <= tol
    env["pass"] = True if passed is None else bool(passed)
    env["version"] = __version__
    if seed is not None:
        env["seed"] = int(seed)
    return env


def _from_report(command, inputs, report: checks.CheckReport, tol, seed=None):
    """Envelope from a CheckReport, honoring a --tol override."""
    effective = report.tol if tol is None else tol
    results = dict(report.details)
    results["suite"] = report.name
    return _envelope(
        command,
        {**inputs, "tol": effective},
        results,
        max_residual=report.max_residual,
        tol=effective,
        seed=seed,
        passed=None if report.max_residual is not None else report.passed,
    )


def _complex_obj(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _matrix_obj(mat: np.ndarray) -> list:
    return [[_complex_obj(complex(v)) for v in row] for row in mat]


# -- hermite -------------------------------------------------------------------


def _cmd_hermite_show(args) -> dict:
    if args.route == "creation":
        poly = hermite.complex_hermite_via_creation(args.m, args.n)
    else:
        poly = hermite.complex_hermite(args.m, args.n)
    return _envelope(
        "hermite show",
        {"m": args.m, "n": args.n, "route": args.route},
        {"poly": poly.to_json_obj()},
    )


def _cmd_hermite_orthonormality(args) -> dict:
    report = checks.check_orthonormality(max_degree=args.max_degree, order=args.order)
    return _from_report(
        "hermite orthonormality",
        {"max_degree": args.max_degree, "order": args.order},
        report,
        args.tol,
    )


def _cmd_hermite_transform(args) -> dict:
    tr = hermite.build_basis_transform(args.degree)
    tol = 1e-10 if args.tol is None else args.tol
    return _envelope(
        "hermite transform",
        {"degree": args.degree, "tol": tol},
        {"forward": _matrix_obj(tr.forward), "inverse": _matrix_obj(tr.inverse)},
        max_residual=tr.residual(),
        tol=tol,
    )


def _cmd_hermite_roundtrip(args) -> dict:
    report = checks.check_roundtrip(max_degree=args.max_degree)
    return _from_report(
        "hermite roundtrip", {"max_degree": args.max_degree}, report, args.tol
    )


# -- operator ------------------------------------------------------------------


def _cmd_operator_eigen(args) -> dict:
    lam = eigenvalue(GeneratorParams(args.theta), args.m, args.n)
    return _envelope(
        "operator eigen",
        {"theta": args.theta, "m": args.m, "n": args.n},
        {"lambda": _complex_obj(lam), "abs": abs(lam)},
    )


def _cmd_operator_gamma(args) -> dict:
    phi = parse_poly(args.phi)
    psi = parse_poly(args.psi if args.psi is not None else args.phi)
    direct = carre_du_champ(phi, psi)
    via_gen = carre_du_champ_via_generator(GeneratorParams(args.theta), phi, psi)
    residual = (direct - via_gen).max_abs_coeff()
    tol = 1e-10 if args.tol is None else args.tol
    return _envelope(
        "operator gamma",
        {"phi": args.phi, "psi": args.psi, "theta": args.theta, "tol": tol},
        {"gamma": direct.to_json_obj(), "generator_route_residual": residual},
        max_residual=residual,
        tol=tol,
    )


def _cmd_operator_chain_rule(args) -> dict:
    report = checks.check_chain_rule(
        n_cases=args.cases,
        max_degree_inner=args.degree,
        thetas=(args.theta,),
        seed=args.seed,
    )
    return _from_report(
        "operator chain-rule",
        {"theta": args.theta, "degree": args.degree, "cases": args.cases},
        report,
        args.tol,
        seed=args.seed,
    )


def _cmd_operator_normality(args) -> dict:
    report = checks.check_operator_normality(
        max_degree=args.degree, thetas=(args.theta,), seed=args.seed
    )
    return _from_report(
        "operator normality",
        {"theta": args.theta, "degree": args.degree},
        report,
        args.tol,
        seed=args.seed,
    )


# -- semigroup -------------------------------------------------------------------


def _read_coeffs(path: str) -> tuple[SpectralCoeffs, float | None]:
    text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    obj = json.loads(text)
    if isinstance(obj, list):
        obj = {"coeffs": obj}
    return SpectralCoeffs.from_json_obj(obj)


def _cmd_semigroup_apply(args) -> dict:
    coeffs, file_theta = _read_coeffs(args.input)
    theta = args.theta if args.theta is not None else file_theta
    if theta is None:
        raise ValueError("theta not given (neither --theta nor a theta field in the input)")
    p = PropagatorParams(GeneratorParams(theta), args.t)
    out = semigroup_spectral(p, coeffs)
    return _envelope(
        "semigroup apply",
        {"theta": theta, "t": args.t, "input": args.input},
        {"coeffs": out.to_json_obj(theta)},
    )


def _cmd_semigroup_verify_normal(args) -> dict:
    report = checks.check_semigroup_normality(
        max_degree=args.degree,
        thetas=(args.theta,),
        ts=(args.t,),
        n_points=args.points,
        seed=args.seed,
    )
    env = _from_report(
        "semigroup verify-normal",
        {"theta": args.theta, "t": args.t, "degree": args.degree, "points": args.points},
        report,
        args.tol,
        seed=args.seed,
    )
    env["results"]["max_residual"] = report.max_residual
    env["results"]["grid"] = {"theta": [args.theta], "t": [args.t]}
    return env


def _cmd_semigroup_invariance(args) -> dict:
    report = checks.check_invariance(
        max_degree=args.degree, thetas=(args.theta,), ts=(args.t,), seed=args.seed
    )
    return _from_report(
        "semigroup invariance",
        {"theta": args.theta, "t": args.t, "degree": args.degree},
        report,
        args.tol,
        seed=args.seed,
    )


# -- sde -------------------------------------------------------------------------


# Paths converted to Python floats at a time while writing the CSV, so memory
# stays bounded for large ensembles.
_CSV_BLOCK_PATHS = 64


def _write_csv(path: str, ensemble: sde.PathEnsemble) -> None:
    """(path_id, t, re, im) rows, floats as repr, in the layout of csv.writer's
    default dialect (unquoted fields, CRLF line ends)."""
    t_reprs = [repr(float(t)) for t in ensemble.config.t_grid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path_id,t,re,im\r\n")
        for start in range(0, ensemble.config.n_paths, _CSV_BLOCK_PATHS):
            block = ensemble.states[start : start + _CSV_BLOCK_PATHS]
            fh.writelines(
                f"{i},{t},{re!r},{im!r}\r\n"
                for i, row_re, row_im in zip(
                    range(start, start + len(block)), block.real.tolist(), block.imag.tolist()
                )
                for t, re, im in zip(t_reprs, row_re, row_im)
            )


def _cmd_sde_simulate(args) -> dict:
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
        z = ensemble.states[:, k]
        mean, mean_se = sde.estimate_pt(ensemble, lambda w: w, k)
        abs_sq = np.abs(z) ** 2
        abs_se = float(abs_sq.std(ddof=1)) / math.sqrt(args.paths) if args.paths > 1 else 0.0
        expected = PropagatorParams(params, t)
        moments.append(
            {
                "t": t,
                "mean": _complex_obj(mean),
                "mean_se": mean_se,
                "expected_mean": _complex_obj(expected.decay * x0),
                "abs_second_moment": float(abs_sq.mean()),
                "abs_second_moment_se": abs_se,
                "expected_variance": 2.0 * expected.noise_std**2,
            }
        )
    if args.csv is not None:
        _json_text(moments)  # no CSV for a run whose envelope cannot be written
        _write_csv(args.csv, ensemble)
    return _envelope(
        "sde simulate",
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


def _cmd_sde_stationarity(args) -> dict:
    params = GeneratorParams(args.theta)
    t_burn = args.t_burn if args.t_burn is not None else 6.0 * math.log(10.0) / params.cos_theta
    rep = sde.stationarity_check(params, args.paths, t_burn, args.seed)
    tol = 1.0 if args.tol is None else args.tol
    return _envelope(
        "sde stationarity",
        {"theta": args.theta, "paths": args.paths, "t_burn": t_burn, "tol": tol},
        {
            "mean": _complex_obj(rep.mean),
            "mean_se": rep.mean_se,
            "second_moment": _complex_obj(rep.second_moment),
            "second_moment_se": rep.second_moment_se,
            "abs_second_moment": rep.abs_second_moment,
            "abs_second_moment_se": rep.abs_second_moment_se,
            "ks_real": rep.ks_real,
            "ks_imag": rep.ks_imag,
            "ks_threshold": rep.ks_threshold,
        },
        max_residual=rep.max_ratio,
        tol=tol,
        seed=args.seed,
        passed=rep.passed if args.tol is None else rep.max_ratio <= args.tol,
    )


# -- quad / verify-all -------------------------------------------------------------


def _cmd_quad_selftest(args) -> dict:
    report = checks.check_quadrature(order=args.order)
    return _from_report("quad selftest", {"order": args.order}, report, args.tol)


def _cmd_verify_all(args) -> dict:
    reports = checks.run_all(seed=args.seed, n_paths=args.paths)
    return _envelope(
        "verify-all",
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


def _add_common(parser, *, tol=False, seed=False):
    parser.add_argument("--pretty", action="store_true", help="render a summary table on stderr")
    if tol:
        parser.add_argument("--tol", type=_finite_float, default=None, help="override the pass tolerance")
    if seed:
        parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command tree."""
    return _build_parser()


def _build_parser(words=None) -> argparse.ArgumentParser | None:
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
    leaves = 0

    def selected(name, depth):
        return words is None or words[depth : depth + 1] == [name]

    def group(name, help):
        if not selected(name, 0):
            return None
        sub = top.add_parser(name, help=help)
        return sub.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def command(sub, name, help):
        nonlocal leaves
        if sub is None or not selected(name, 0 if sub is top else 1):
            return None
        leaves += 1
        return sub.add_parser(name, help=help)

    hsub = group("hermite", "eigenbasis polynomials and transforms")

    if p := command(hsub, "show", "print one basis polynomial as JSON"):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--route", choices=("explicit", "creation"), default="explicit")
        _add_common(p)
        p.set_defaults(handler=_cmd_hermite_show)

    if p := command(hsub, "orthonormality", "Gram matrix vs identity under quadrature"):
        p.add_argument("--max-degree", type=int, default=10)
        p.add_argument("--order", type=int, default=12)
        _add_common(p, tol=True)
        p.set_defaults(handler=_cmd_hermite_orthonormality)

    if p := command(hsub, "transform", "level-l change of basis matrices and residuals"):
        p.add_argument("--degree", type=int, required=True)
        _add_common(p, tol=True)
        p.set_defaults(handler=_cmd_hermite_transform)

    if p := command(hsub, "roundtrip", "project/synthesize round trip residual"):
        p.add_argument("--max-degree", type=int, default=10)
        _add_common(p, tol=True)
        p.set_defaults(handler=_cmd_hermite_roundtrip)

    osub = group("operator", "generator, carre du champ, chain rule")

    if p := command(osub, "eigen", "eigenvalue lambda[m,n] of the generator"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        _add_common(p)
        p.set_defaults(handler=_cmd_operator_eigen)

    if p := command(osub, "gamma", "carre du champ of two polynomial literals"):
        p.add_argument("--phi", type=str, required=True)
        p.add_argument("--psi", type=str, default=None, help="defaults to --phi")
        p.add_argument("--theta", type=_finite_float, default=0.0, help="angle for the generator route")
        _add_common(p, tol=True)
        p.set_defaults(handler=_cmd_operator_gamma)

    if p := command(osub, "chain-rule", "second-order chain rule residual suite"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--degree", type=int, default=3, help="inner polynomial degree")
        p.add_argument("--cases", type=int, default=100)
        _add_common(p, tol=True, seed=True)
        p.set_defaults(handler=_cmd_operator_chain_rule)

    if p := command(osub, "normality", "L L* = L* L on random polynomials"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--degree", type=int, default=6)
        _add_common(p, tol=True, seed=True)
        p.set_defaults(handler=_cmd_operator_normality)

    ssub = group("semigroup", "P_t in spectral and Mehler form")

    if p := command(ssub, "apply", "apply the spectral multiplier to coefficients"):
        p.add_argument("--theta", type=_finite_float, default=None, help="overrides the input file's theta")
        p.add_argument("--t", type=_finite_float, required=True)
        p.add_argument("--input", type=str, required=True, help="coefficients JSON ('-' for stdin)")
        _add_common(p)
        p.set_defaults(handler=_cmd_semigroup_apply)

    if p := command(ssub, "verify-normal", "commutation and fused-form residuals"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--t", type=_finite_float, required=True)
        p.add_argument("--degree", type=int, default=5)
        p.add_argument("--points", type=int, default=5)
        _add_common(p, tol=True, seed=True)
        p.set_defaults(handler=_cmd_semigroup_verify_normal)

    if p := command(ssub, "invariance", "gamma-invariance residual suite"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--t", type=_finite_float, required=True)
        p.add_argument("--degree", type=int, default=8)
        _add_common(p, tol=True, seed=True)
        p.set_defaults(handler=_cmd_semigroup_invariance)

    sdsub = group("sde", "Monte Carlo simulation of the SDE")

    if p := command(sdsub, "simulate", "sample paths; JSON moments, optional CSV"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--x0-re", type=_finite_float, default=0.0)
        p.add_argument("--x0-im", type=_finite_float, default=0.0)
        p.add_argument("--t", type=_finite_float, nargs="+", required=True, help="recording times (> 0)")
        p.add_argument("--paths", type=int, required=True)
        p.add_argument("--scheme", choices=sde.SCHEMES, default="exact")
        p.add_argument("--dt", type=_finite_float, default=None, help="euler step (required for euler)")
        p.add_argument("--csv", type=str, default=None, help="write (path_id,t,re,im) rows here")
        _add_common(p, seed=True)
        p.set_defaults(handler=_cmd_sde_simulate)

    if p := command(sdsub, "stationarity", "long-run law vs the invariant Gaussian"):
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument("--paths", type=int, required=True)
        p.add_argument("--t-burn", type=_finite_float, default=None, help="default: 6 ln10 / cos(theta)")
        _add_common(p, tol=True, seed=True)
        p.set_defaults(handler=_cmd_sde_stationarity)

    qsub = group("quad", "Gauss-Hermite quadrature utilities")
    if p := command(qsub, "selftest", "moment and orthonormality exactness checks"):
        p.add_argument("--order", type=int, default=12)
        _add_common(p, tol=True)
        p.set_defaults(handler=_cmd_quad_selftest)

    if p := command(top, "verify-all", "run every verification suite and aggregate"):
        p.add_argument("--paths", type=int, default=200000, help="Monte Carlo path budget")
        _add_common(p, seed=True)
        p.set_defaults(handler=_cmd_verify_all, command=None)

    return parser if leaves else None



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
            resid = f"{s['max_residual']:.3e}" if "max_residual" in s else "-"
            tol = f"{s['tol']:.1e}" if "tol" in s else "-"
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
    parser = _build_parser(argv[:2]) or build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow shows as a non-finite result below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            env = args.handler(args)
        text = _json_text(env)
    except (ExprError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if getattr(args, "pretty", False):
        _pretty(env, sys.stderr)
    return 0 if env["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
