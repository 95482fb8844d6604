"""Which library callables the traced run wraps, and the per-layer metrics.

The layers are the library's modules: poly, hermite, spectral, quadrature,
operator, semigroup, sde, expr, cli and checks.  Every span is opened around
a call into a public function or method; counters are computed from the
call's inputs (the library is never edited to report them).
"""

from __future__ import annotations

import numpy as np

from tracer import HEADROOM_FLOOR, Tracer

# check_* function -> the suite name its CheckReport carries.
SUITES = {
    "check_quadrature": "quadrature-selftest",
    "check_orthonormality": "orthonormality",
    "check_eigenrelation": "eigenrelation",
    "check_transform": "basis-transform",
    "check_construction": "construction-cross-check",
    "check_roundtrip": "expansion-roundtrip",
    "check_operator_normality": "generator-normality",
    "check_gamma": "carre-du-champ",
    "check_chain_rule": "diffusion-chain-rule",
    "check_spectral_vs_mehler": "spectral-vs-mehler",
    "check_semigroup_normality": "semigroup-normality",
    "check_adjoint": "adjoint-identity",
    "check_invariance": "gamma-invariance",
    "check_ergodicity": "ergodic-envelope",
    "check_rotation_invariance": "gaussian-rotation-invariance",
    "check_sde_moments": "sde-moments",
    "check_stationarity": "sde-stationarity",
    "check_sde_vs_mehler": "sde-vs-mehler",
}
MC_SUITES = ("sde-moments", "sde-stationarity", "sde-vs-mehler")
DET_SUITES = tuple(s for s in SUITES.values() if s not in MC_SUITES)

# Span names whose summed self time is reported as "<span>.self_s".
SELF_TIMED = (
    "poly.mul", "poly.add", "poly.deriv", "poly.eval", "poly.wwbar.eval",
    "poly.wwbar.algebra", "poly.compose",
    "hermite.explicit", "hermite.creation", "hermite.project", "hermite.synthesize",
    "hermite.transform",
    "spectral.map", "spectral.json",
    "quadrature.rule", "quadrature.tensor_points", "quadrature.integrate",
    "operator.generator", "operator.gamma", "operator.chain_rule",
    "semigroup.mehler", "semigroup.nested", "semigroup.rotation", "semigroup.spectral",
    "sde.exact", "sde.euler", "sde.halving", "sde.estimate", "sde.stationarity",
    "expr.parse", "cli.main",
)
COUNTERS = (
    "poly.mul.calls", "poly.mul.term_pairs", "poly.add.calls", "poly.deriv.calls",
    "poly.eval.calls", "poly.eval.coeff_points", "poly.wwbar.eval.calls",
    "poly.wwbar.eval.term_points", "poly.compose.calls",
    "hermite.explicit.calls",
    "quadrature.rule.calls", "quadrature.tensor_points.calls",
    "operator.generator.calls",
    "semigroup.mehler.calls", "semigroup.mehler.node_evals", "semigroup.nested.node_evals",
    "sde.exact.path_steps", "sde.euler.path_steps", "sde.halving.path_steps",
    "sde.estimate.points",
    "expr.parse.calls", "cli.main.calls", "cli.csv_rows",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "count" for name in COUNTERS}
    units.update({f"{span}.self_s": "s" for span in SELF_TIMED})
    units["hermite.explicit.hit_ratio"] = "ratio"
    units["quadrature.rule.distinct_orders"] = "count"
    for suite in SUITES.values():
        units[f"checks.{suite}.s"] = "s"
    for suite in DET_SUITES:
        units[f"checks.{suite}.log10_headroom"] = "log10"
    units["trace.overhead_s"] = "s"
    return units


# -- work counts, computed from each call's inputs -----------------------------


def _mul_work(self, other):
    pairs = len(self.terms) * (len(other.terms) if hasattr(other, "terms") else 1)
    return {"poly.mul.term_pairs": pairs}


def _eval_work(self, w):
    return {"poly.eval.coeff_points": len(self.terms) * np.size(w)}


def _wwbar_eval_work(self, ws):
    size = np.broadcast(*[np.asarray(w) for w in ws]).size
    return {"poly.wwbar.eval.term_points": len(self.terms) * size}


def _mehler_work(p, phi, x, rule):
    return {"semigroup.mehler.node_evals": np.size(x) * rule.order**2}


def _nested_work(p, phi, x, rule):
    # two nested averages (P P* and P* P), each K^2 x K^2 nodes per point;
    # the fused single average is a child semigroup_mehler span
    return {"semigroup.nested.node_evals": 2 * np.size(x) * rule.order**4}


def _exact_work(config):
    return {"sde.exact.path_steps": config.n_paths * (len(config.t_grid) - 1)}


def _euler_work(config, noise_factor=1.0):
    return {"sde.euler.path_steps": config.n_paths * sum(config.steps_per_gap())}


def _halving_work(params, x0, t, dt_fine, n_paths, seed):
    return {"sde.halving.path_steps": n_paths * round(t / dt_fine)}


def _estimate_work(ensemble, phi, t_index):
    return {"sde.estimate.points": ensemble.config.n_paths}


def _rule_work(order):
    return {f"quadrature.rule.order.{order}": 1}


def csv_rows(argv) -> int:
    """Rows ``sde simulate --csv`` writes for this argv: paths x grid points."""
    if "--csv" not in argv:
        return 0
    paths = int(argv[argv.index("--paths") + 1])
    start = argv.index("--t") + 1
    stop = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    return paths * (1 + stop - start)


def _cli_work(argv=None):
    return {"cli.csv_rows": csv_rows(argv or [])}


# -- installation -------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in this module."""
    from complexou import checks, cli, expr, hermite, operator, poly, quadrature
    from complexou import sde, semigroup, spectral

    zz, ww = poly.PolyZZbar, poly.PolyWWbar
    tracer.patch_method(zz, "__mul__", "poly.mul", calls="poly.mul.calls", work=_mul_work)
    tracer.patch_method(zz, "__add__", "poly.add", calls="poly.add.calls")
    tracer.patch_method(zz, "__neg__", "poly.add")
    for attr in ("wirtinger_dz", "wirtinger_dzbar", "conjugate"):
        tracer.patch_method(zz, attr, "poly.deriv", calls="poly.deriv.calls")
    tracer.patch_method(zz, "eval", "poly.eval", calls="poly.eval.calls", work=_eval_work)
    tracer.patch_method(
        ww, "eval", "poly.wwbar.eval", calls="poly.wwbar.eval.calls", work=_wwbar_eval_work
    )
    for attr in ("__mul__", "__add__", "__sub__", "__neg__", "__pow__", "dslot", "dslotbar"):
        tracer.patch_method(ww, attr, "poly.wwbar.algebra")
    tracer.patch_function(poly.compose, "poly.compose", calls="poly.compose.calls")

    tracer.patch_function(
        hermite.complex_hermite, "hermite.explicit", calls="hermite.explicit.calls"
    )
    tracer.patch_function(hermite.complex_hermite_via_creation, "hermite.creation")
    tracer.patch_function(hermite.project_monomials, "hermite.project")
    tracer.patch_function(hermite.synthesize, "hermite.synthesize")
    tracer.patch_function(hermite.build_basis_transform, "hermite.transform")

    sc = spectral.SpectralCoeffs
    for attr in ("map_terms", "__add__", "__sub__", "__mul__"):
        tracer.patch_method(sc, attr, "spectral.map")
    for attr in ("to_json_obj", "from_json_obj"):
        tracer.patch_method(sc, attr, "spectral.json")

    tracer.patch_function(
        quadrature.gauss_hermite_rule, "quadrature.rule",
        calls="quadrature.rule.calls", work=_rule_work,
    )
    tracer.patch_method(
        quadrature.QuadratureRule, "tensor_points", "quadrature.tensor_points",
        calls="quadrature.tensor_points.calls",
    )
    for fn in (quadrature.integrate_gamma, quadrature.inner_product, quadrature.project):
        tracer.patch_function(fn, "quadrature.integrate")

    for fn in (operator.apply_generator_wirtinger, operator.apply_generator_spectral):
        tracer.patch_function(fn, "operator.generator", calls="operator.generator.calls")
    for fn in (operator.carre_du_champ, operator.carre_du_champ_via_generator):
        tracer.patch_function(fn, "operator.gamma")
    tracer.patch_function(operator.chain_rule_sides, "operator.chain_rule")

    tracer.patch_function(
        semigroup.semigroup_mehler, "semigroup.mehler",
        calls="semigroup.mehler.calls", work=_mehler_work,
    )
    tracer.patch_function(semigroup.normality_commutator, "semigroup.nested", work=_nested_work)
    tracer.patch_function(semigroup.gaussian_rotation_residual, "semigroup.rotation")
    tracer.patch_function(semigroup.semigroup_spectral, "semigroup.spectral")

    tracer.patch_function(sde.sample_exact, "sde.exact", work=_exact_work)
    tracer.patch_function(sde.sample_euler, "sde.euler", work=_euler_work)
    tracer.patch_function(sde.euler_halving_probe, "sde.halving", work=_halving_work)
    tracer.patch_function(sde.estimate_pt, "sde.estimate", work=_estimate_work)
    tracer.patch_function(sde.stationarity_check, "sde.stationarity")

    tracer.patch_function(expr.parse_poly, "expr.parse", calls="expr.parse.calls")
    tracer.patch_function(cli.main, "cli.main", calls="cli.main.calls", work=_cli_work)

    for fn_name, suite in SUITES.items():
        tracer.patch_function(
            getattr(checks, fn_name),
            f"checks.{suite}",
            on_result=lambda rep, suite=suite: tracer.note_headroom(
                suite, rep.max_residual, rep.tol
            ),
        )


def layer_metrics(
    tracer: Tracer, n_passes: int, cache_hits: int, cache_misses: int, overhead_s: float
) -> dict[str, float]:
    """Per-pass per-layer values from the spans and counters of n_passes passes."""
    self_s, total_s = tracer.self_and_total()
    values = {name: tracer.counts.get(name, 0.0) / n_passes for name in COUNTERS}
    for span in SELF_TIMED:
        values[f"{span}.self_s"] = self_s.get(span, 0.0) / n_passes
    lookups = cache_hits + cache_misses
    values["hermite.explicit.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    values["quadrature.rule.distinct_orders"] = float(
        sum(1 for key in tracer.counts if key.startswith("quadrature.rule.order."))
    )
    for suite in SUITES.values():
        values[f"checks.{suite}.s"] = total_s.get(f"checks.{suite}", 0.0) / n_passes
    for suite in DET_SUITES:
        values[f"checks.{suite}.log10_headroom"] = tracer.headroom.get(suite, HEADROOM_FLOOR)
    values["trace.overhead_s"] = overhead_s
    units = metric_units()
    return {name: values[name] for name in units}
