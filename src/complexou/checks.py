"""Deterministic verification suites for every identity the package claims.

Each suite draws its own seeded random inputs, measures a residual against an
explicit tolerance, and returns a :class:`CheckReport`; nothing here raises on
a failed identity, so callers (CLI, tests) decide how to surface failures.

Residual conventions, per suite docstring: "scaled" means the residual is
divided by the documented scale (e.g. 1 + max coefficient of the target), so
the tolerance is always a plain number and pass = max_residual <= tol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hermite, sde
from .operator import (
    GeneratorParams,
    apply_generator_spectral,
    apply_generator_wirtinger,
    carre_du_champ,
    carre_du_champ_via_generator,
    chain_rule_sides,
    eigenvalue,
)
from .poly import PolyZZbar, PolyWWbar
from .quadrature import default_rule, gauss_hermite_rule, integrate_gamma
from .semigroup import (
    PropagatorParams,
    adjoint_semigroup,
    ergodic_envelope,
    ergodic_limit_residual,
    gaussian_rotation_residual,
    invariance_residual,
    normality_commutator,
    semigroup_mehler,
    semigroup_pairing,
    semigroup_spectral,
)
from .spectral import SpectralCoeffs

# Angle grids.  THETA_SIX is the six-angle sweep used for the eigenrelation;
# THETA_WIDE adds the near-degenerate +-0.49*pi angles exercised by the
# semigroup checks; THETA_SAFE keeps 1/cos(theta) <= 2 so coefficientwise
# tolerances are not eaten by the 1/(2 cos theta) amplification in the
# generator route of Gamma.
THETA_SIX = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, 0.49 * math.pi)
THETA_WIDE = (0.0, math.pi / 4, -math.pi / 4, 0.49 * math.pi, -0.49 * math.pi)
THETA_SAFE = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, math.pi / 3, -math.pi / 3)
T_GRID = (0.1, 1.0, 3.0)

DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification suite (JSON-able details only)."""

    name: str
    passed: bool
    max_residual: float | None = None
    tol: float | None = None
    details: dict = field(default_factory=dict)

    @classmethod
    def within(cls, name: str, worst: float, tol: float, details: dict) -> "CheckReport":
        """The report of a suite that passes when its worst residual is <= tol."""
        return cls(name, worst <= tol, worst, tol, details)

    def to_json_obj(self) -> dict:
        obj = {"name": self.name, "pass": self.passed}
        if self.max_residual is not None:
            obj["max_residual"] = self.max_residual
        if self.tol is not None:
            obj["tol"] = self.tol
        if self.details:
            obj["details"] = self.details
        return obj


# -- random input generators --------------------------------------------------


def _random_normals(rng: np.random.Generator, max_degree: int) -> dict:
    """A standard complex normal for every (i, j) with i + j <= max_degree."""
    return {
        (i, j): complex(rng.standard_normal(), rng.standard_normal())
        for i in range(max_degree + 1)
        for j in range(max_degree + 1 - i)
    }


def random_poly(rng: np.random.Generator, max_degree: int) -> PolyZZbar:
    """Dense random polynomial: standard complex normal coefficient on every
    monomial of total degree <= max_degree."""
    return PolyZZbar(_random_normals(rng, max_degree))


def random_coeffs(rng: np.random.Generator, max_degree: int) -> SpectralCoeffs:
    """Random basis expansion with O(1) coefficients on every (m, n), m+n <= D."""
    return SpectralCoeffs(_random_normals(rng, max_degree))


def random_outer(rng: np.random.Generator, n_slots: int, max_degree: int) -> PolyWWbar:
    """Random outer function of total degree <= max_degree in n complex slots."""
    terms = {}
    for key in itertools.product(range(max_degree + 1), repeat=2 * n_slots):
        if sum(key) <= max_degree:
            terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return PolyWWbar(n_slots, terms)


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _basis_indices(max_degree: int) -> list[tuple[int, int]]:
    return [
        (m, n)
        for total in range(max_degree + 1)
        for m in range(total + 1)
        for n in [total - m]
    ]


# -- hermite / quadrature suites ----------------------------------------------


def check_orthonormality(max_degree: int = 10, order: int = 12) -> CheckReport:
    """Gram matrix of {J[m,n] : m+n <= max_degree} vs the identity."""
    rule = gauss_hermite_rule(order)
    pts, wts = rule.tensor_points()
    vals = np.array([hermite.complex_hermite(m, n).eval(pts) for m, n in _basis_indices(max_degree)])
    gram = (vals * wts) @ vals.conj().T
    resid = float(np.max(np.abs(gram - np.eye(len(gram)))))
    return CheckReport.within(
        "orthonormality", resid, 1e-9,
        {"max_degree": max_degree, "order": order, "basis_size": len(gram)},
    )


def check_eigenrelation(
    max_degree: int = 10, thetas: tuple[float, ...] = THETA_SIX
) -> CheckReport:
    """Coefficientwise residual of L J[m,n] = lambda[m,n] J[m,n], scaled by
    max(1, max coefficient of lambda*J)."""
    worst = 0.0
    for theta in thetas:
        params = GeneratorParams(theta)
        for m, n in _basis_indices(max_degree):
            j = hermite.complex_hermite(m, n)
            lam = eigenvalue(params, m, n)
            target = j * lam
            resid = (apply_generator_wirtinger(params, j) - target).max_abs_coeff()
            worst = max(worst, resid / max(1.0, target.max_abs_coeff()))
    return CheckReport.within(
        "eigenrelation", worst, 1e-9, {"max_degree": max_degree, "thetas": list(thetas)}
    )


def check_transform(max_degree: int = 16) -> CheckReport:
    """forward @ inverse = I and unitarity of both, for every level <= max_degree."""
    worst = 0.0
    for level in range(max_degree + 1):
        worst = max(worst, hermite.build_basis_transform(level).residual())
    return CheckReport.within("basis-transform", worst, 1e-10, {"max_degree": max_degree})


def check_construction(max_total: int = 12) -> CheckReport:
    """Creation-operator route vs the explicit formula, relative per polynomial."""
    worst = 0.0
    for m, n in _basis_indices(max_total):
        explicit = hermite.complex_hermite(m, n)
        built = hermite.complex_hermite_via_creation(m, n)
        resid = (explicit - built).max_abs_coeff() / max(1.0, explicit.max_abs_coeff())
        worst = max(worst, resid)
    return CheckReport.within(
        "construction-cross-check", worst, 1e-10, {"max_total_degree": max_total}
    )


def check_quadrature(order: int = 12) -> CheckReport:
    """Exactness selftest of the Gauss-Hermite tensor rule against gamma.

    Sum of weights, second and 18th moments (17!! for the latter), the mean of
    an orthogonal basis element, and a small Gram block.
    """
    rule = gauss_hermite_rule(order)
    resids = {
        "weight_sum": abs(float(np.sum(rule.tensor_points()[1])) - 1.0),
        "mean_one": abs(integrate_gamma(rule, PolyZZbar.constant(1.0)) - 1.0),
        "second_moment": abs(integrate_gamma(rule, PolyZZbar({(1, 1): 1.0})) - 2.0),
        "mean_j11": abs(integrate_gamma(rule, hermite.complex_hermite(1, 1))),
    }
    # 1-d 18th moment E[x^18] = 17!!; exact for order >= 10.
    m18 = float(np.sum(rule.weights * rule.nodes**18))
    double_fact_17 = 34459425.0
    resids["moment_x18"] = abs(m18 - double_fact_17) / double_fact_17
    # planar 18th moment E|z|^18 = 2^9 * 9!  (|z|^2 / 2 is a unit exponential).
    m18c = integrate_gamma(rule, PolyZZbar({(9, 9): 1.0}))
    resids["moment_z18"] = abs(m18c - 2.0**9 * math.factorial(9)) / (2.0**9 * math.factorial(9))
    small = check_orthonormality(max_degree=4, order=order)
    resids["gram_deg4"] = small.max_residual
    worst = max(resids.values())
    return CheckReport.within("quadrature-selftest", worst, 1e-10, {"order": order, **resids})


def check_roundtrip(max_degree: int = 10) -> CheckReport:
    """synthesize(project(phi)) recovers phi coefficientwise (exact expansion)."""
    worst = 0.0
    for a, b in _basis_indices(max_degree):
        p = PolyZZbar({(a, b): 1.0 + 0.5j})
        back = hermite.synthesize(hermite.project_monomials(p))
        worst = max(worst, (back - p).max_abs_coeff() / max(1.0, p.max_abs_coeff()))
    # expansion coefficients reach ~1e6 at degree 10 and cancel back down to
    # the input, so ~1e-10 of float noise is intrinsic to the round trip
    return CheckReport.within("expansion-roundtrip", worst, 1e-9, {"max_degree": max_degree})


# -- operator suites ----------------------------------------------------------


def check_gamma(
    n_pairs: int = 200,
    max_degree: int = 6,
    thetas: tuple[float, ...] = THETA_SAFE,
    n_points: int = 1000,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Derivative form vs generator form of Gamma, plus diagonal nonnegativity.

    Coefficientwise agreement over random pairs with theta cycling through the
    grid; then Gamma(phi, phi) evaluated at random points must stay >= -1e-12.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_pairs):
        params = GeneratorParams(thetas[k % len(thetas)])
        phi = random_poly(rng, max_degree)
        psi = random_poly(rng, max_degree)
        direct = carre_du_champ(phi, psi)
        via_gen = carre_du_champ_via_generator(params, phi, psi)
        worst = max(worst, (direct - via_gen).max_abs_coeff())

    min_real = math.inf
    max_imag = 0.0
    per_poly = max(1, n_points // 10)
    drawn = 0
    while drawn < n_points:
        phi = random_poly(rng, max_degree)
        gamma_poly = carre_du_champ(phi, phi)
        pts = random_points(rng, min(per_poly, n_points - drawn))
        vals = gamma_poly.eval(pts)
        min_real = min(min_real, float(np.min(vals.real)))
        max_imag = max(max_imag, float(np.max(np.abs(vals.imag))))
        drawn += pts.size
    positive = min_real >= -1e-12
    return CheckReport(
        name="carre-du-champ",
        passed=(worst <= 1e-10) and positive,
        max_residual=worst,
        tol=1e-10,
        details={
            "n_pairs": n_pairs,
            "max_degree": max_degree,
            "min_diagonal_value": min_real,
            "max_diagonal_imag": max_imag,
            "n_points": n_points,
        },
    )


def check_chain_rule(
    n_cases: int = 100,
    max_degree_outer: int = 3,
    max_degree_inner: int = 3,
    thetas: tuple[float, ...] = THETA_WIDE,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Second-order chain rule residual, scaled by 1 + max coefficient of the
    left side, over random (F, phi_vec) with one or two slots."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_cases):
        params = GeneratorParams(thetas[k % len(thetas)])
        n_slots = 1 + (k % 2)
        outer = random_outer(rng, n_slots, max_degree_outer)
        phis = [random_poly(rng, max_degree_inner) for _ in range(n_slots)]
        lhs, rhs = chain_rule_sides(params, outer, phis)
        worst = max(worst, (lhs - rhs).max_abs_coeff() / (1.0 + lhs.max_abs_coeff()))
    return CheckReport.within(
        "diffusion-chain-rule", worst, 1e-9, {"n_cases": n_cases, "thetas": list(thetas)}
    )


def check_operator_normality(
    max_degree: int = 6, thetas: tuple[float, ...] = THETA_WIDE, seed: int = DEFAULT_SEED
) -> CheckReport:
    """L L* = L* L coefficientwise on random polynomials (generator level)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for theta in thetas:
        params = GeneratorParams(theta)
        adj = GeneratorParams(-theta)
        for _ in range(5):
            phi = random_poly(rng, max_degree)
            a = apply_generator_wirtinger(params, apply_generator_wirtinger(adj, phi))
            b = apply_generator_wirtinger(adj, apply_generator_wirtinger(params, phi))
            worst = max(worst, (a - b).max_abs_coeff() / (1.0 + a.max_abs_coeff()))
    return CheckReport.within(
        "generator-normality", worst, 1e-10, {"max_degree": max_degree, "thetas": list(thetas)}
    )


# -- semigroup suites ----------------------------------------------------------


def check_spectral_vs_mehler(
    max_degree: int = 8,
    n_points: int = 50,
    thetas: tuple[float, ...] = THETA_WIDE,
    ts: tuple[float, ...] = T_GRID,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Pointwise agreement of the two semigroup routes on random polynomials.

    Residual |spectral - mehler| / (1 + |spectral|) at random points.
    """
    rng = np.random.default_rng(seed)
    rule = default_rule(max_degree)
    worst = 0.0
    for theta in thetas:
        for t in ts:
            p = PropagatorParams(GeneratorParams(theta), t)
            phi = random_poly(rng, max_degree)
            pts = random_points(rng, n_points)
            via_spectral = hermite.synthesize(
                semigroup_spectral(p, hermite.project_monomials(phi))
            ).eval(pts)
            via_mehler = semigroup_mehler(p, phi, pts, rule)
            resid = np.abs(via_spectral - via_mehler) / (1.0 + np.abs(via_spectral))
            worst = max(worst, float(np.max(resid)))
    return CheckReport.within(
        "spectral-vs-mehler", worst, 1e-8,
        {"max_degree": max_degree, "n_points": n_points, "thetas": list(thetas), "ts": list(ts)},
    )


def check_semigroup_normality(
    max_degree: int = 5,
    thetas: tuple[float, ...] = THETA_WIDE,
    ts: tuple[float, ...] = T_GRID,
    n_points: int = 5,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Commutation P_t P_t* = P_t* P_t and its fused single-integral form.

    Residuals max(|lhs-rhs|, |lhs-fused|) / (1 + |lhs|) over every monomial of
    total degree <= max_degree, the (theta, t) grid, and random points.
    """
    rng = np.random.default_rng(seed)
    pts = random_points(rng, n_points)
    rule = default_rule(max_degree)
    worst = 0.0
    for theta in thetas:
        for t in ts:
            p = PropagatorParams(GeneratorParams(theta), t)
            for a, b in _basis_indices(max_degree):
                phi = PolyZZbar({(a, b): 1.0})
                lhs, rhs, fused = normality_commutator(p, phi, pts, rule)
                scale = 1.0 + np.abs(lhs)
                resid = np.maximum(np.abs(lhs - rhs), np.abs(lhs - fused)) / scale
                worst = max(worst, float(np.max(resid)))
    return CheckReport.within(
        "semigroup-normality", worst, 1e-8,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts), "n_points": n_points},
    )


def check_adjoint(
    max_degree: int = 6,
    thetas: tuple[float, ...] = (math.pi / 6, math.pi / 4, 0.49 * math.pi),
    ts: tuple[float, ...] = (0.1, 1.0),
    n_pairs: int = 10,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """|<P_t^theta phi, psi> - <phi, P_t^{-theta} psi>| on random basis expansions."""
    rng = np.random.default_rng(seed)
    rule = default_rule(2 * max_degree)
    worst = 0.0
    for theta in thetas:
        for t in ts:
            p = PropagatorParams(GeneratorParams(theta), t)
            for _ in range(n_pairs):
                phi = hermite.synthesize(random_coeffs(rng, max_degree))
                psi = hermite.synthesize(random_coeffs(rng, max_degree))
                left = semigroup_pairing(p, phi, psi, rule)
                right = semigroup_pairing(adjoint_semigroup(p), psi, phi, rule).conjugate()
                worst = max(worst, abs(left - right))
    return CheckReport.within(
        "adjoint-identity", worst, 1e-9,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts)},
    )


def check_invariance(
    max_degree: int = 8,
    thetas: tuple[float, ...] = (0.0, math.pi / 6, -math.pi / 4, 0.49 * math.pi),
    ts: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_polys: int = 5,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Invariance of gamma: double quadrature of P_t phi vs the gamma-mean of phi."""
    rng = np.random.default_rng(seed)
    rule = default_rule(max_degree)
    worst = 0.0
    for theta in thetas:
        for t in ts:
            p = PropagatorParams(GeneratorParams(theta), t)
            for _ in range(n_polys):
                worst = max(worst, invariance_residual(p, random_poly(rng, max_degree), rule))
    return CheckReport.within(
        "gamma-invariance", worst, 1e-9,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts)},
    )


def check_ergodicity(
    max_degree: int = 8,
    thetas: tuple[float, ...] = (0.0, math.pi / 4, 0.49 * math.pi),
    ts: tuple[float, ...] = (2.0, 5.0, 10.0),
    n_points: int = 3,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Ergodic decay: |P_t phi(x) - mean| within the C e^{-d t cos theta} envelope.

    max_residual is the worst ratio residual / envelope, where the envelope
    carries a relative 1e-9 and absolute 1e-10 float allowance; tol = 1.
    """
    rng = np.random.default_rng(seed)
    rule = default_rule(max_degree)
    worst = 0.0
    for theta in thetas:
        params = GeneratorParams(theta)
        coeffs = random_coeffs(rng, max_degree)
        phi = hermite.synthesize(coeffs)
        for x in random_points(rng, n_points):
            env = ergodic_envelope(coeffs, complex(x))
            for t in ts:
                resid = ergodic_limit_residual(params, phi, complex(x), t, rule)
                allowance = env.bound(params, t) * (1.0 + 1e-9) + 1e-10
                worst = max(worst, resid / allowance)
    return CheckReport.within(
        "ergodic-envelope", worst, 1.0,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts)},
    )


def check_rotation_invariance(
    max_degree: int = 6,
    thetas: tuple[float, ...] = (math.pi / 6, math.pi / 4, 0.49 * math.pi),
    ts: tuple[float, ...] = (0.1, 1.0),
    n_polys: int = 5,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Unitary mixing invariance of gamma x gamma used by the adjoint proof."""
    rng = np.random.default_rng(seed)
    rule = default_rule(max_degree)
    worst = 0.0
    for theta in thetas:
        for t in ts:
            p = PropagatorParams(GeneratorParams(theta), t)
            for _ in range(n_polys):
                f = random_outer(rng, 2, max_degree)
                worst = max(worst, gaussian_rotation_residual(p, f, rule))
    return CheckReport.within(
        "gaussian-rotation-invariance", worst, 1e-9,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts)},
    )


# -- sde suites -----------------------------------------------------------------


def check_sde_moments(
    n_paths: int = 200000,
    ts: tuple[float, ...] = (0.5, 2.0),
    thetas: tuple[float, ...] = (0.0, math.pi / 4, -math.pi / 6),
    x0: complex = 1.0 + 0.5j,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Exact-sampler mean and variance vs the transition law, within 4 SE.

    Mean target e^{-e^{i theta} t} x0 with SE sqrt(2(1-e^{-2t cos theta})/n);
    variance target 2(1-e^{-2t cos theta}) with its empirical SE.  Also
    replays one configuration to confirm bit-identical states.
    max_residual is the worst deviation in SE units; tol = 4.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {n_paths}")
    worst = 0.0
    repro = True
    for i, theta in enumerate(thetas):
        params = GeneratorParams(theta)
        config = sde.SimConfig(
            params=params,
            x0=x0,
            t_grid=(0.0,) + tuple(ts),
            n_paths=n_paths,
            seed=seed + i,
        )
        ens = sde.sample_exact(config)
        if i == 0:
            replay = sde.sample_exact(config)
            repro = ens.states.tobytes() == replay.states.tobytes()
        for k, t in enumerate(ts, start=1):
            z = ens.states[:, k]
            p = PropagatorParams(params, t)
            mean_se = math.sqrt(2.0 * (1.0 - abs(p.decay) ** 2) / n_paths)
            mean_dev = abs(complex(z.mean()) - p.decay * x0) / mean_se

            dev_sq = np.abs(z - z.mean()) ** 2
            var_hat = float(dev_sq.sum()) / (n_paths - 1)
            var_se = float(dev_sq.std(ddof=1)) / math.sqrt(n_paths)
            var_dev = abs(var_hat - 2.0 * p.noise_std**2) / var_se
            worst = max(worst, mean_dev, var_dev)
    return CheckReport(
        name="sde-moments",
        passed=(worst <= 4.0) and repro,
        max_residual=worst,
        tol=4.0,
        details={
            "n_paths": n_paths,
            "ts": list(ts),
            "thetas": list(thetas),
            "bit_reproducible": repro,
        },
    )


def check_stationarity(
    theta: float = math.pi / 4, n_paths: int = 200000, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Long-run law vs gamma: moments within 4 SE and KS below 1.63/sqrt(n).

    max_residual is the worst of (deviation / 4 SE) and (KS / threshold);
    tol = 1.
    """
    params = GeneratorParams(theta)
    t_burn = 6.0 * math.log(10.0) / params.cos_theta
    rep = sde.stationarity_check(params, n_paths, t_burn, seed)
    return CheckReport(
        name="sde-stationarity",
        passed=rep.passed,
        max_residual=rep.max_ratio,
        tol=1.0,
        details={
            "theta": theta,
            "n_paths": n_paths,
            "t_burn": rep.t_burn,
            "abs_second_moment": rep.abs_second_moment,
            "ks_real": rep.ks_real,
            "ks_imag": rep.ks_imag,
            "ks_threshold": rep.ks_threshold,
        },
    )


def check_sde_vs_mehler(
    n_paths: int = 100000,
    max_degree: int = 4,
    thetas: tuple[float, ...] = (0.0, math.pi / 4),
    ts: tuple[float, ...] = (0.5, 2.0),
    x0: complex = 0.8 - 0.3j,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Monte Carlo P_t phi(x0) vs Mehler quadrature within 4 SE for random phi."""
    rng = np.random.default_rng(seed)
    rule = default_rule(max_degree)
    worst = 0.0
    for i, theta in enumerate(thetas):
        params = GeneratorParams(theta)
        config = sde.SimConfig(
            params=params, x0=x0, t_grid=(0.0,) + tuple(ts), n_paths=n_paths, seed=seed + i
        )
        ens = sde.sample_exact(config)
        phi = random_poly(rng, max_degree)
        for k, t in enumerate(ts, start=1):
            mc, se = sde.estimate_pt(ens, phi, k)
            exact = semigroup_mehler(PropagatorParams(params, t), phi, x0, rule)
            worst = max(worst, abs(mc - exact) / se)
    return CheckReport.within(
        "sde-vs-mehler", worst, 4.0,
        {"n_paths": n_paths, "max_degree": max_degree, "thetas": list(thetas)},
    )


def run_all(seed: int = DEFAULT_SEED, n_paths: int = 200000) -> list[CheckReport]:
    """Run every suite with its documented defaults (the umbrella command)."""
    return [
        check_quadrature(),
        check_orthonormality(),
        check_eigenrelation(),
        check_transform(),
        check_construction(),
        check_roundtrip(),
        check_operator_normality(seed=seed),
        check_gamma(seed=seed),
        check_chain_rule(seed=seed),
        check_spectral_vs_mehler(seed=seed),
        check_semigroup_normality(seed=seed),
        check_adjoint(seed=seed),
        check_invariance(seed=seed),
        check_ergodicity(seed=seed),
        check_rotation_invariance(seed=seed),
        check_sde_moments(n_paths=n_paths, seed=seed),
        check_stationarity(n_paths=n_paths, seed=seed),
        check_sde_vs_mehler(n_paths=min(n_paths, 100000), seed=seed),
    ]
