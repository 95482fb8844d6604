"""Verification suites for every identity the package claims: fifteen
deterministic ones and three Monte Carlo ones (residuals in standard errors).

Each suite draws its own seeded random inputs, measures a residual against an
explicit tolerance, and returns a :class:`CheckReport`; nothing here raises on
a failed identity, so callers (CLI, tests) decide how to surface failures.

Residual conventions, per suite docstring: "scaled" means the residual is
divided by the documented scale (e.g. 1 + max coefficient of the target), so
the tolerance is a plain number.  :meth:`CheckReport.within` takes the worst
residual (NaN if any is NaN) and passes it when <= tol and any extra condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from . import hermite, sde
from .operator import (
    GeneratorParams,
    adjoint_params,
    apply_generator_wirtinger,
    carre_du_champ,
    carre_du_champ_via_generator,
    chain_rule_sides,
    combine_generator_terms,
    eigenvalue,
    generator_terms,
)
from .poly import PolyZZbar, PolyWWbar, _worst
from .quadrature import _gram_residual, default_rule, gauss_hermite_rule, integrate_gamma
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
from .spectral import MAX_TOTAL_DEGREE, SpectralCoeffs

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

# Tolerances that the matching CLI commands (hermite transform, operator gamma)
# also take as their default --tol; sde stationarity's is sde.STATIONARITY_TOL.
TRANSFORM_TOL = 1e-10
GAMMA_TOL = 1e-10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification suite (JSON-able details only)."""

    name: str
    passed: bool
    max_residual: float
    tol: float
    details: dict = field(default_factory=dict)

    @classmethod
    def within(
        cls, name: str, residuals, tol: float, details: dict, ok: bool = True
    ) -> "CheckReport":
        """The report of a suite whose max_residual is ``poly._worst(residuals)``
        (NaN if any is NaN, which fails) and that passes when it is <= tol and
        ``ok`` holds.  A generator is drained here: its draws come last.  A
        suite with no residual checked nothing, and a tol that is not >= 0
        (negative or NaN) judges nothing; both raise ValueError."""
        if not tol >= 0:
            raise ValueError(f"tol must be >= 0, got {tol!r}")
        residuals = list(residuals)
        if not residuals:
            raise ValueError(f"suite {name} has no residual: it checked nothing")
        worst = _worst(residuals)
        return cls(name, worst <= tol and ok, worst, tol, details)

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name, "pass": self.passed,
            "max_residual": self.max_residual, "tol": self.tol,
        }
        if self.details:
            obj["details"] = self.details
        return obj


# -- random input generators --------------------------------------------------


@lru_cache(maxsize=None)
def _bounded_keys(length: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent tuple of the given length with sum <= max_degree, in
    lexicographic order (the order ``itertools.product`` yields them in)."""
    if not length:
        return ((),)
    return tuple(
        (e,) + rest
        for e in range(max_degree + 1)
        for rest in _bounded_keys(length - 1, max_degree - e)
    )


def _random_normals(rng: np.random.Generator, length: int, max_degree: int) -> dict:
    """A standard complex normal for every key of :func:`_bounded_keys`, drawn
    as one block of (re, im) pairs in key order."""
    keys = _bounded_keys(length, max_degree)
    return dict(zip(keys, rng.standard_normal(2 * len(keys)).view(complex).tolist()))


def random_poly(rng: np.random.Generator, max_degree: int) -> PolyZZbar:
    """Dense random polynomial: standard complex normal coefficient on every
    monomial of total degree <= max_degree."""
    return PolyZZbar(_random_normals(rng, 2, max_degree))


def random_coeffs(rng: np.random.Generator, max_degree: int) -> SpectralCoeffs:
    """Random basis expansion with O(1) coefficients on every (m, n), m+n <= D."""
    return SpectralCoeffs(_random_normals(rng, 2, max_degree))


def random_outer(rng: np.random.Generator, n_slots: int, max_degree: int) -> PolyWWbar:
    """Random outer function of total degree <= max_degree in n complex slots."""
    # the keys are valid by construction and the values Python complex
    return PolyWWbar._unchecked(n_slots, _random_normals(rng, 2 * n_slots, max_degree))


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# -- hermite / quadrature suites ----------------------------------------------


def check_orthonormality(max_degree: int = 10, order: int = 12) -> CheckReport:
    """Gram matrix of {J[m,n] : m+n <= max_degree} vs the identity."""
    resid, size = _gram_residual(max_degree, gauss_hermite_rule(order))
    return CheckReport.within(
        "orthonormality", (resid,), 1e-9,
        {"max_degree": max_degree, "order": order, "basis_size": size},
    )


def check_eigenrelation(
    max_degree: int = 10, thetas: tuple[float, ...] = THETA_SIX
) -> CheckReport:
    """Coefficientwise residual of L J[m,n] = lambda[m,n] J[m,n], scaled by
    max(1, max coefficient of lambda*J)."""
    all_params = [GeneratorParams(theta) for theta in thetas]
    resids = []
    for m, n in hermite.basis_indices(max_degree):
        j = hermite.complex_hermite(m, n)
        terms = generator_terms(j)  # theta-free, shared by every angle
        for params in all_params:
            target = j * eigenvalue(params, m, n)
            resid = (combine_generator_terms(params, terms) - target).max_abs_coeff()
            resids.append(resid / max(1.0, target.max_abs_coeff()))
    return CheckReport.within(
        "eigenrelation", resids, 1e-9, {"max_degree": max_degree, "thetas": list(thetas)}
    )


def check_transform(max_degree: int = 16) -> CheckReport:
    """forward @ inverse = I and unitarity of both, for every level <= max_degree."""
    resids = (hermite.build_basis_transform(level).residual() for level in range(max_degree + 1))
    return CheckReport.within("basis-transform", resids, TRANSFORM_TOL, {"max_degree": max_degree})


def check_construction(max_total: int = 12) -> CheckReport:
    """Creation-operator route vs the explicit formula, relative per polynomial."""
    resids = []
    for m, n, built in hermite.creation_ladder(max_total):
        explicit = hermite.complex_hermite(m, n)
        resids.append((explicit - built).max_abs_coeff() / max(1.0, explicit.max_abs_coeff()))
    return CheckReport.within(
        "construction-cross-check", resids, 1e-10, {"max_total_degree": max_total}
    )


def check_quadrature(order: int = 12) -> CheckReport:
    """Exactness selftest of the Gauss-Hermite tensor rule against gamma.

    Sum of the 1-d weights, the integral of 1 (the sum of the tensor
    weights), second and 18th moments (17!! for the latter), the mean of an
    orthogonal basis element, and a small Gram block.
    """
    rule = gauss_hermite_rule(order)
    resids = {
        "weight_sum": abs(float(np.sum(rule.weights)) - 1.0),
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
    resids["gram_deg4"] = _gram_residual(4, rule)[0]
    return CheckReport.within(
        "quadrature-selftest", resids.values(), 1e-10, {"order": order, **resids}
    )


def check_roundtrip(max_degree: int = 10) -> CheckReport:
    """synthesize(project_monomials(phi)) recovers phi coefficientwise (the
    exact monomial expansion, no quadrature)."""
    hermite._check_degrees(0, max_degree, MAX_TOTAL_DEGREE)  # before any projection
    resids = []
    for a, b in hermite.basis_indices(max_degree):
        p = PolyZZbar({(a, b): 1.0 + 0.5j})
        back = hermite.synthesize(hermite.project_monomials(p))
        resids.append((back - p).max_abs_coeff() / max(1.0, p.max_abs_coeff()))
    # both coefficient tables are correctly rounded; the expansion
    # coefficients reach ~1e6 and cancel back down to the input, which leaves
    # 3.6e-12 at degree 10 and 5.8e-11 at degree 12
    return CheckReport.within("expansion-roundtrip", resids, 1e-9, {"max_degree": max_degree})


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
    rng = np.random.default_rng(sde._check_seed(seed))
    resids = []  # a list, not a generator: the diagonal draws below follow these
    for k in range(n_pairs):
        params = GeneratorParams(thetas[k % len(thetas)])
        phi, psi = random_poly(rng, max_degree), random_poly(rng, max_degree)
        direct = carre_du_champ(phi, psi)
        via_gen = carre_du_champ_via_generator(params, phi, psi)
        resids.append((direct - via_gen).max_abs_coeff())

    mins, imags = [], []
    per_poly = max(1, n_points // 10)
    for drawn in range(0, n_points, per_poly):
        phi = random_poly(rng, max_degree)
        vals = carre_du_champ(phi, phi).eval(random_points(rng, min(per_poly, n_points - drawn)))
        mins.append(float(np.min(vals.real)))
        imags.append(float(np.max(np.abs(vals.imag))))
    min_real = float(np.min(mins, initial=math.inf))  # no 0.0 floor: it may be positive
    return CheckReport.within(
        "carre-du-champ", resids, GAMMA_TOL,
        {"n_pairs": n_pairs, "max_degree": max_degree, "min_diagonal_value": min_real,
         "max_diagonal_imag": _worst(imags), "n_points": n_points},
        ok=min_real >= -1e-12,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    resids = []
    for k in range(n_cases):
        params = GeneratorParams(thetas[k % len(thetas)])
        n_slots = 1 + (k % 2)
        outer = random_outer(rng, n_slots, max_degree_outer)
        phis = [random_poly(rng, max_degree_inner) for _ in range(n_slots)]
        lhs, rhs = chain_rule_sides(params, outer, phis)
        resids.append((lhs - rhs).max_abs_coeff() / (1.0 + lhs.max_abs_coeff()))
    return CheckReport.within(
        "diffusion-chain-rule", resids, 1e-9, {"n_cases": n_cases, "thetas": list(thetas)}
    )


def check_operator_normality(
    max_degree: int = 6, thetas: tuple[float, ...] = THETA_WIDE, seed: int = DEFAULT_SEED
) -> CheckReport:
    """L L* = L* L coefficientwise on random polynomials (generator level)."""
    rng = np.random.default_rng(sde._check_seed(seed))
    resids = []
    for params in map(GeneratorParams, thetas):
        adj = adjoint_params(params)
        for _ in range(5):
            terms = generator_terms(random_poly(rng, max_degree))  # of phi, for L and L*
            a = apply_generator_wirtinger(params, combine_generator_terms(adj, terms))
            b = apply_generator_wirtinger(adj, combine_generator_terms(params, terms))
            resids.append((a - b).max_abs_coeff() / (1.0 + a.max_abs_coeff()))
    return CheckReport.within(
        "generator-normality", resids, 1e-10, {"max_degree": max_degree, "thetas": list(thetas)}
    )


# -- semigroup suites ----------------------------------------------------------


def _propagators(thetas: tuple[float, ...], ts: tuple[float, ...]):
    """P_t at every (theta, t) of the grid, theta-major."""
    return (PropagatorParams(GeneratorParams(theta), t) for theta in thetas for t in ts)


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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(max_degree)
    resids = []
    for p in _propagators(thetas, ts):
        phi = random_poly(rng, max_degree)
        pts = random_points(rng, n_points)
        via_spectral = hermite.synthesize(
            semigroup_spectral(p, hermite.project_monomials(phi))
        ).eval(pts)
        via_mehler = semigroup_mehler(p, phi, pts, rule)
        resid = np.abs(via_spectral - via_mehler) / (1.0 + np.abs(via_spectral))
        resids.append(float(np.max(resid)))
    return CheckReport.within(
        "spectral-vs-mehler", resids, 1e-8,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    pts = random_points(rng, n_points)
    rule = default_rule(max_degree)
    resids = []
    for p in _propagators(thetas, ts):
        for a, b in hermite.basis_indices(max_degree):
            lhs, rhs, fused = normality_commutator(p, PolyZZbar({(a, b): 1.0}), pts, rule)
            resid = np.maximum(np.abs(lhs - rhs), np.abs(lhs - fused)) / (1.0 + np.abs(lhs))
            resids.append(float(np.max(resid)))
    return CheckReport.within(
        "semigroup-normality", resids, 1e-8,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(2 * max_degree)
    resids = []
    for p in _propagators(thetas, ts):
        for _ in range(n_pairs):
            phi = hermite.synthesize(random_coeffs(rng, max_degree))
            psi = hermite.synthesize(random_coeffs(rng, max_degree))
            left = semigroup_pairing(p, phi, psi, rule)
            right = semigroup_pairing(adjoint_semigroup(p), psi, phi, rule).conjugate()
            resids.append(abs(left - right))
    return CheckReport.within(
        "adjoint-identity", resids, 1e-9,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(max_degree)
    resids = (
        invariance_residual(p, random_poly(rng, max_degree), rule)
        for p in _propagators(thetas, ts)
        for _ in range(n_polys)
    )
    return CheckReport.within(
        "gamma-invariance", resids, 1e-9,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(max_degree)
    resids = []
    for params in map(GeneratorParams, thetas):
        coeffs = random_coeffs(rng, max_degree)
        phi = hermite.synthesize(coeffs)
        for x in random_points(rng, n_points):
            env = ergodic_envelope(coeffs, complex(x))
            for t in ts:
                resid = ergodic_limit_residual(params, phi, complex(x), t, rule)
                allowance = env.bound(params, t) * (1.0 + 1e-9) + 1e-10
                resids.append(resid / allowance)
    return CheckReport.within(
        "ergodic-envelope", resids, 1.0,
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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(max_degree)
    resids = (
        gaussian_rotation_residual(p, random_outer(rng, 2, max_degree), rule)
        for p in _propagators(thetas, ts)
        for _ in range(n_polys)
    )
    return CheckReport.within(
        "gaussian-rotation-invariance", resids, 1e-9,
        {"max_degree": max_degree, "thetas": list(thetas), "ts": list(ts)},
    )


# -- sde suites -----------------------------------------------------------------


def _exact_runs(
    thetas: tuple[float, ...], ts: tuple[float, ...], x0: complex, n_paths: int, seed: int
) -> list[sde.SimConfig]:
    """One exact-sampler run per angle, started at x0 and recorded at 0 and ts.
    Angle i is seeded seed + i, wrapped past 2^64 - 1 (a seed out of range raises)."""
    seed = sde._check_seed(seed)
    grid = (0.0,) + tuple(ts)
    return [
        sde.SimConfig(GeneratorParams(theta), x0, grid, n_paths, (seed + i) % sde._SEEDS)
        for i, theta in enumerate(thetas)
    ]


def _moment_deviations(z: np.ndarray, p: PropagatorParams, x0: complex) -> tuple[float, float]:
    """Deviations of the sample mean and variance of z from the transition
    law of p started at x0, each in standard errors."""
    n = z.size
    mean, var = p.transition_moments(x0)
    mean_se = math.sqrt(var / n)
    mean_dev = abs(complex(z.mean()) - mean) / mean_se

    dev_sq = sde._abs_dev_sq(z, z.mean())
    var_hat = float(dev_sq.sum()) / (n - 1)
    var_se = sde._mean_and_se(dev_sq, out=dev_sq)[1]  # dev_sq's last use
    return mean_dev, abs(var_hat - var) / var_se


def _check_moment_paths(n_paths: int) -> None:
    """ValueError unless n_paths >= 3, which :func:`check_sde_moments` needs:
    the two deviations |z - mean|^2 of 2 samples are equal, so their standard
    error is 0."""
    if n_paths < 3:
        raise ValueError(f"n_paths must be >= 3 for the variance's standard error, got {n_paths}")


def check_sde_moments(
    n_paths: int = 200000,
    ts: tuple[float, ...] = (0.5, 2.0),
    thetas: tuple[float, ...] = (0.0, math.pi / 4, -math.pi / 6),
    x0: complex = 1.0 + 0.5j,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Exact-sampler mean and variance vs the transition law, within 4 SE.

    Mean target e^{-e^{i theta} t} x0 with SE sqrt(var/n), where the variance
    target var = 2(1-e^{-2t cos theta}) is judged by its empirical SE.  Each
    angle's paths are streamed (``sde._rows``), so the suite holds one
    recorded time, not one ensemble: each row's moments are taken as it is
    stepped.  Also replays the first configuration to confirm bit-identical
    states: the SHA-256 digest of every byte of its rows, in time order, is
    compared with that of the replay's rows.
    max_residual is the worst deviation in SE units; tol = 4.  Needs 3 paths
    (:func:`_check_moment_paths`).
    """
    _check_moment_paths(n_paths)
    # imported here, not with the module: hashlib loads OpenSSL, about 8 ms of
    # CPU that every command would pay at import and only this suite uses
    import hashlib

    resids = []
    repro = True
    digest = hashlib.sha256()  # of the first configuration's rows
    for i, config in enumerate(_exact_runs(thetas, ts, x0, n_paths, seed)):
        for k, z in enumerate(sde._rows(config)):
            if i == 0:
                digest.update(z)
            if k:
                p = PropagatorParams(config.params, ts[k - 1])
                resids.extend(_moment_deviations(z, p, x0))
        del z  # this run's row, before the next run steps its own
        if i == 0:
            replay = hashlib.sha256()
            for z in sde._rows(config):
                replay.update(z)
            repro = replay.digest() == digest.digest()
            del z
    return CheckReport.within(
        "sde-moments", resids, sde.BAND_SE,
        {"n_paths": n_paths, "ts": list(ts), "thetas": list(thetas), "bit_reproducible": repro},
        ok=repro,
    )


def check_stationarity(
    theta: float = math.pi / 4, n_paths: int = 200000, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Long-run law vs gamma: moments within 4 SE and KS below 1.63/sqrt(n).

    max_residual is the worst of (deviation / 4 SE) and (KS / threshold);
    tol = 1.
    """
    rep = sde.stationarity_check(GeneratorParams(theta), n_paths, None, seed)
    return CheckReport.within(
        "sde-stationarity", (rep.max_ratio,), sde.STATIONARITY_TOL,
        {
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
    rng = np.random.default_rng(sde._check_seed(seed))
    rule = default_rule(max_degree)
    resids = []
    for config in _exact_runs(thetas, ts, x0, n_paths, seed):
        phi = random_poly(rng, max_degree)
        # each recorded time is scored as it is stepped; row 0 is x0
        for t, z in zip(ts, islice(sde._rows(config), 1, None)):
            mc, se = sde._estimate(phi, z)
            exact = semigroup_mehler(PropagatorParams(config.params, t), phi, x0, rule)
            resids.append(abs(mc - exact) / se)
        del z  # this run's row, before the next run steps its own
    return CheckReport.within(
        "sde-vs-mehler", resids, sde.BAND_SE,
        {"n_paths": n_paths, "max_degree": max_degree, "thetas": list(thetas)},
    )


def run_all(seed: int = DEFAULT_SEED, n_paths: int = 200000) -> list[CheckReport]:
    """Run every suite with its documented defaults (the umbrella command);
    n_paths must be at least 3, as :func:`check_sde_moments` needs, and seed
    a 64-bit unsigned integer, both checked before any suite runs."""
    _check_moment_paths(n_paths)
    sde._check_seed(seed)
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
