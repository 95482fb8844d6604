#!/usr/bin/env python3
"""Cross-check the traced run's call counters against cProfile.

    python3 perfbench/profile_counts.py --workload verify-all

Builds the workload, runs one warm-up pass, then one pass under cProfile (no
tracer installed) and one pass under the tracer.  Prints both call counts for
every counted function and exits with 1 if any differ.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

import run


def counted_functions() -> dict[str, list]:
    """Counter name -> the library functions whose calls it counts."""
    from complexou import cli, expr, operator, poly, quadrature, semigroup

    zz = poly.PolyZZbar
    return {
        "poly.mul.calls": [zz.__mul__],
        "poly.add.calls": [zz.__add__],
        "poly.deriv.calls": [zz.wirtinger_dz, zz.wirtinger_dzbar, zz.conjugate],
        "poly.eval.calls": [zz.eval],
        "poly.wwbar.eval.calls": [poly.PolyWWbar.eval],
        "poly.compose.calls": [poly.compose],
        "quadrature.rule.calls": [quadrature.gauss_hermite_rule],
        "quadrature.tensor_points.calls": [quadrature.QuadratureRule.tensor_points],
        "operator.generator.calls": [
            operator.apply_generator_wirtinger, operator.apply_generator_spectral],
        "semigroup.mehler.calls": [semigroup.semigroup_mehler],
        "expr.parse.calls": [expr.parse_poly],
        "cli.main.calls": [cli.main],
    }


def compare_counts(workload: str, seed: int, toy: bool) -> dict[str, tuple[int, int]]:
    """Counter name -> (cProfile count, traced count) for one pass."""
    from layers import install
    from tracer import Tracer

    with run.scratch_dir() as work_dir:
        wl = run.build(workload, seed, toy, work_dir)
        functions = counted_functions()
        cache = run.HermiteCache()
        run.run_pass(wl, cache)

        profiler = cProfile.Profile()
        profiler.enable()
        run.run_pass(wl, cache)
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        calls = {key: value[1] for key, value in stats.items()}

        tracer = Tracer()
        install(tracer)
        try:
            run.run_pass(wl, cache, tracer)
        finally:
            tracer.uninstall()

    out = {}
    for counter, fns in functions.items():
        profiled = sum(
            calls.get((f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name), 0)
            for f in fns
        )
        out[counter] = (profiled, int(tracer.counts.get(counter, 0)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, default="verify-all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    ok = True
    for counter, (profiled, traced) in compare_counts(args.workload, args.seed, False).items():
        ok &= profiled == traced
        flag = "ok" if profiled == traced else "MISMATCH"
        print(f"{counter:<32} cProfile {profiled:>8}  traced {traced:>8}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
