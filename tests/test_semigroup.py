"""The propagator in spectral and Mehler form: semigroup law, contraction,
adjoint pairing, normality commutation, invariance, ergodic decay, and the
unitary mixing identity behind the adjoint proof.
"""

import cmath
import math

import numpy as np
import pytest

from complexou import (
    ErgodicEnvelope,
    GeneratorParams,
    PolyWWbar,
    PolyZZbar,
    PropagatorParams,
    SpectralCoeffs,
    adjoint_semigroup,
    complex_hermite,
    default_rule,
    ergodic_envelope,
    ergodic_limit_residual,
    gauss_hermite_rule,
    gaussian_rotation_residual,
    integrate_gamma,
    invariance_residual,
    normality_commutator,
    project_monomials,
    semigroup_mehler,
    semigroup_pairing,
    semigroup_spectral,
    synthesize,
)
from complexou import checks, quadrature, semigroup
from complexou.poly import _BLOCK
from memtrace import traced_peak


def random_poly(rng, max_degree):
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            terms[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return PolyZZbar(terms)


def random_coeffs(rng, max_degree):
    terms = {}
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            terms[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
    return SpectralCoeffs(terms)


class TestPropagatorParams:
    def test_factors_cached_at_construction(self):
        p = PropagatorParams(GeneratorParams(math.pi / 4), 1.0)
        assert p.decay == pytest.approx(cmath.exp(-cmath.exp(1j * math.pi / 4)))
        assert p.noise_std == pytest.approx(math.sqrt(1.0 - math.exp(-math.sqrt(2.0))))
        assert abs(p.decay) ** 2 + p.noise_std**2 == pytest.approx(1.0)

    def test_time_zero_is_identity_data(self):
        p = PropagatorParams(GeneratorParams(0.3), 0.0)
        assert p.decay == 1.0 + 0.0j
        assert p.noise_std == 0.0

    @pytest.mark.parametrize("field", ["decay", "noise_std"])
    def test_derived_factors_cannot_be_passed(self, field):
        with pytest.raises(TypeError):
            PropagatorParams(GeneratorParams(0.3), 1.0, **{field: 0.5})

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PropagatorParams(GeneratorParams(0.0), -0.1)

    def test_adjoint_flips_angle_and_keeps_time(self):
        p = PropagatorParams(GeneratorParams(math.pi / 3), 0.7)
        q = adjoint_semigroup(p)
        assert q.params.theta == -math.pi / 3
        assert q.t == 0.7
        assert adjoint_semigroup(q) == p
        sym = PropagatorParams(GeneratorParams(0.0), 0.7)
        assert adjoint_semigroup(sym) == sym


class TestSpectralForm:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(101)
        f = random_coeffs(rng, 6)
        assert semigroup_spectral(PropagatorParams(GeneratorParams(0.8), 0.0), f) == f

    def test_constants_are_invariant(self):
        f = SpectralCoeffs({(0, 0): 1.0})
        for t in (0.0, 0.5, 3.0):
            assert semigroup_spectral(PropagatorParams(GeneratorParams(0.4), t), f) == f

    def test_half_life_of_first_mode(self):
        p = PropagatorParams(GeneratorParams(0.0), math.log(2.0))
        out = semigroup_spectral(p, SpectralCoeffs({(1, 0): 1.0}))
        assert out.coeff(1, 0) == pytest.approx(0.5)

    def test_semigroup_law(self):
        rng = np.random.default_rng(103)
        params = GeneratorParams(math.pi / 6)
        f = random_coeffs(rng, 7)
        for t1, t2 in ((0.2, 0.9), (1.0, 1.0), (0.0, 2.5)):
            composed = semigroup_spectral(
                PropagatorParams(params, t1), semigroup_spectral(PropagatorParams(params, t2), f)
            )
            direct = semigroup_spectral(PropagatorParams(params, t1 + t2), f)
            assert (composed - direct).max_abs_coeff() <= 1e-12 * (1.0 + direct.max_abs_coeff())

    def test_contraction(self):
        rng = np.random.default_rng(107)
        f = random_coeffs(rng, 6)
        base = f.norm_sq()
        for theta in (0.0, math.pi / 4, -0.49 * math.pi):
            for t in (0.1, 1.0, 3.0):
                out = semigroup_spectral(PropagatorParams(GeneratorParams(theta), t), f)
                assert out.norm_sq() <= base * (1.0 + 1e-12)


class TestMehlerForm:
    def test_constant_maps_to_one(self):
        rule = gauss_hermite_rule(6)
        one = PolyZZbar.constant(1.0)
        for theta, t, x in ((0.0, 0.5, 0.3 + 1j), (math.pi / 4, 2.0, -1.2j), (-1.0, 0.1, 2.0)):
            p = PropagatorParams(GeneratorParams(theta), t)
            assert semigroup_mehler(p, one, x, rule) == pytest.approx(1.0)

    def test_linear_mode_decays_by_drift_factor(self):
        rule = gauss_hermite_rule(8)
        z = PolyZZbar.z()
        for theta, t, x in ((0.3, 0.7, 1.1 - 0.4j), (-math.pi / 4, 1.5, 2.0 + 1j)):
            p = PropagatorParams(GeneratorParams(theta), t)
            got = semigroup_mehler(p, z, x, rule)
            assert got == pytest.approx(p.decay * x, abs=1e-12)

    def test_eigenfunction_zero_stays_zero(self):
        # J_{1,1}(1+i) = (|1+i|^2 - 2)/2 = 0, and P_t scales eigenfunctions
        p = PropagatorParams(GeneratorParams(math.pi / 4), 1.0)
        got = semigroup_mehler(p, complex_hermite(1, 1), 1 + 1j, gauss_hermite_rule(8))
        assert abs(got) <= 1e-12

    def test_time_zero_evaluates_in_place(self):
        rng = np.random.default_rng(109)
        phi = random_poly(rng, 5)
        p = PropagatorParams(GeneratorParams(0.6), 0.0)
        x = 0.4 - 0.9j
        got = semigroup_mehler(p, phi, x, gauss_hermite_rule(8))
        assert got == pytest.approx(phi.eval(x), abs=1e-12 * (1.0 + abs(phi.eval(x))))

    def test_agrees_with_spectral_route(self):
        rng = np.random.default_rng(113)
        rule = default_rule(8)
        for theta in (0.0, math.pi / 4, -0.49 * math.pi):
            for t in (0.1, 1.0):
                p = PropagatorParams(GeneratorParams(theta), t)
                phi = random_poly(rng, 8)
                pushed = synthesize(semigroup_spectral(p, project_monomials(phi)))
                xs = 0.8 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
                mehler = semigroup_mehler(p, phi, xs, rule)
                spectral = pushed.eval(xs)
                worst = float(np.max(np.abs(mehler - spectral) / (1.0 + np.abs(spectral))))
                assert worst <= 1e-8


class TestNormalityCommutator:
    def test_constant_is_fixed_by_all_three(self):
        p = PropagatorParams(GeneratorParams(math.pi / 3), 0.4)
        lhs, rhs, fused = normality_commutator(p, PolyZZbar.constant(1.0), 0.5j, gauss_hermite_rule(6))
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)
        assert fused == pytest.approx(1.0)

    def test_second_moment_value_at_origin(self):
        # P_t P_t* acting on z zbar at x = 0 gives 2(1 - e^{-4 t cos(theta)})
        t = 0.5
        p = PropagatorParams(GeneratorParams(math.pi / 4), t)
        phi = PolyZZbar({(1, 1): 1.0})
        lhs, rhs, fused = normality_commutator(p, phi, 0.0, gauss_hermite_rule(8))
        target = 2.0 * (1.0 - math.exp(-4.0 * t * math.cos(math.pi / 4)))
        assert target == pytest.approx(1.5137665311315716)
        for val in (lhs, rhs, fused):
            assert abs(val - target) <= 1e-10

    def test_symmetric_case_composes_to_doubled_time(self):
        rng = np.random.default_rng(127)
        phi = random_poly(rng, 4)
        t = 0.6
        p = PropagatorParams(GeneratorParams(0.0), t)
        x = 0.9 - 0.2j
        lhs, _, _ = normality_commutator(p, phi, x, gauss_hermite_rule(10))
        doubled = semigroup_mehler(
            PropagatorParams(GeneratorParams(0.0), 2.0 * t), phi, x, gauss_hermite_rule(10)
        )
        assert abs(lhs - doubled) <= 1e-12 * (1.0 + abs(doubled))

    def test_commutation_grid_on_monomials(self):
        rule = gauss_hermite_rule(8)
        x = 0.7 - 0.4j
        for theta in (math.pi / 4, -math.pi / 4, math.pi / 3, -math.pi / 3):
            for t in (0.1, 1.0, 3.0):
                p = PropagatorParams(GeneratorParams(theta), t)
                for a in range(6):
                    for b in range(6 - a):
                        phi = PolyZZbar({(a, b): 1.0})
                        lhs, rhs, fused = normality_commutator(p, phi, x, rule)
                        scale = 1.0 + abs(lhs)
                        assert abs(lhs - rhs) <= 1e-8 * scale
                        assert abs(lhs - fused) <= 1e-8 * scale


def broadcast_nested_mehler(outer, inner, phi, x, rule):
    """(P^outer P^inner phi)(x) as one broadcast sweep over K^2 x K^2 nodes:
    the inner decay acts on the outer-shifted point."""
    pts, wts = rule.tensor_points()
    xv = np.asarray(x, dtype=complex)
    mid = outer.decay * xv[..., None] + outer.noise_std * pts
    args = inner.decay * mid[..., None] + inner.noise_std * pts
    vals = (phi.eval(args) @ wts) @ wts
    return complex(vals) if xv.ndim == 0 else vals


class TestNestedSweepBits:
    """P P* and P* P as nested semigroup_mehler calls run the broadcast
    two-level sweep's operations in its order, so they equal it bit for bit."""

    @pytest.mark.parametrize("theta", [0.0, 0.7, -0.7, 1.2])
    @pytest.mark.parametrize(
        "x", [0.3 - 1.1j, np.array([0.0, 0.9 + 0.4j, -1.5 + 2.0j])], ids=["scalar", "array"]
    )
    def test_matches_broadcast_sweep(self, theta, x):
        rng = np.random.default_rng(149)
        phi = random_poly(rng, 5)
        rule = default_rule(5)
        p = PropagatorParams(GeneratorParams(theta), 0.8)
        adj = adjoint_semigroup(p)
        lhs, rhs, _ = normality_commutator(p, phi, x, rule)
        for got, want in (
            (lhs, broadcast_nested_mehler(p, adj, phi, x, rule)),
            (rhs, broadcast_nested_mehler(adj, p, phi, x, rule)),
        ):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def one_sweep_mehler(p, phi, x, rule):
    """The Mehler average of every x in one broadcast quadrature sweep."""
    pts, wts = rule.tensor_points()
    xv = np.asarray(x, dtype=complex)
    args = p.decay * xv[..., None] + p.noise_std * pts
    vals = phi.eval(args) @ wts
    return complex(vals) if xv.ndim == 0 else vals


# order 7: 49 nodes, blocks of up to 334 points, with the rule's 49 nodes
# and the (5, 49) inner call of normality_commutator; orders 70 and 91:
# _BLOCK // K^2 is 3 and 1, so blocks of up to 4 points
MEHLER_SHAPES = [(), (1,), (2,), (3,), (5,), (9,), (4, 3), (49,)]
MEHLER_CASES = [(7, s) for s in MEHLER_SHAPES + [(5, 49), (700,)]]
MEHLER_CASES += [(order, s) for order in (70, 91) for s in MEHLER_SHAPES]


class TestMehlerBlocks:
    """semigroup_mehler sweeps x (a scalar as 1 point) in blocks of its
    ravelled points, each at most poly._BLOCK argument values or 4 rows, with
    the bits of one sweep and no 1-row block."""

    @pytest.mark.parametrize(
        "order, shape", MEHLER_CASES,
        ids=[f"{o}-{'x'.join(map(str, s)) or 'scalar'}" for o, s in MEHLER_CASES],
    )
    def test_matches_one_sweep(self, monkeypatch, order, shape):
        rng = np.random.default_rng(151)
        phi = random_poly(rng, 5)
        rule = gauss_hermite_rule(order)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = complex(x) if shape == () else x
        rows = []

        def eval_at(f, points):
            rows.append(points.shape[0])
            return quadrature._eval_at(f, points)

        monkeypatch.setattr(semigroup, "_eval_at", eval_at)
        for theta in (0.0, 0.7, -1.2):
            p = PropagatorParams(GeneratorParams(theta), 0.8)
            got, want = semigroup_mehler(p, phi, x, rule), one_sweep_mehler(p, phi, x, rule)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        most = max(4, _BLOCK // order**2)
        assert all(r <= most for r in rows)
        if np.size(x) > 1:
            assert min(rows) >= 2  # a 1-row block runs as a dot product
        assert sum(rows) == 3 * np.size(x)  # a scalar is a 1-point sweep

    def test_adjoint_holds_one_block(self):
        # order-22 rule: blocks of 33 points x 484 nodes; one sweep over the
        # 484 outer nodes held 484 x 484 argument and value grids (7.7 MiB)
        kwargs = {"max_degree": 10, "thetas": (math.pi / 4,), "ts": (1.0,), "n_pairs": 2}
        checks.check_adjoint(**kwargs)  # warm
        peak = traced_peak(lambda: checks.check_adjoint(**kwargs))
        assert peak <= 5 * 16 * _BLOCK  # a block's few grids of at most _BLOCK values


class TestAdjointPairing:
    def test_pairing_transfers_to_flipped_angle(self):
        rng = np.random.default_rng(131)
        rule = default_rule(6)
        for theta in (math.pi / 6, -math.pi / 3):
            p = PropagatorParams(GeneratorParams(theta), 0.8)
            phi = random_poly(rng, 6)
            psi = random_poly(rng, 6)
            lhs = semigroup_pairing(p, phi, psi, rule)
            rhs = semigroup_pairing(adjoint_semigroup(p), psi, phi, rule).conjugate()
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestInvariance:
    def test_mean_zero_eigenfunction(self):
        rule = default_rule(6)
        p = PropagatorParams(GeneratorParams(0.9), 1.3)
        assert invariance_residual(p, complex_hermite(2, 2), rule) <= 1e-12

    def test_second_moment_is_preserved(self):
        rule = default_rule(4)
        p = PropagatorParams(GeneratorParams(math.pi / 6), 1.0)
        phi = PolyZZbar({(1, 1): 1.0})
        assert integrate_gamma(rule, phi) == pytest.approx(2.0)
        assert invariance_residual(p, phi, rule) <= 1e-12

    def test_constant(self):
        rule = gauss_hermite_rule(4)
        p = PropagatorParams(GeneratorParams(-0.7), 2.0)
        assert invariance_residual(p, PolyZZbar.constant(1.0), rule) <= 1e-13

    def test_random_polynomials(self):
        rng = np.random.default_rng(137)
        rule = default_rule(8)
        for theta in (0.0, math.pi / 4, -0.49 * math.pi):
            p = PropagatorParams(GeneratorParams(theta), 0.5)
            phi = random_poly(rng, 8)
            mean = abs(integrate_gamma(rule, phi))
            assert invariance_residual(p, phi, rule) <= 1e-9 * (1.0 + mean)


class TestErgodicity:
    def test_constant_has_zero_residual(self):
        rule = gauss_hermite_rule(4)
        got = ergodic_limit_residual(GeneratorParams(0.5), PolyZZbar.constant(2.5), 1j, 4.0, rule)
        assert got <= 1e-13

    def test_pure_eigenfunction_decay_rate(self):
        # |P_t J_{1,0}(1) - 0| = e^{-t} |J_{1,0}(1)| = e^{-t}/sqrt(2) at theta=0
        rule = gauss_hermite_rule(6)
        params = GeneratorParams(0.0)
        j10 = complex_hermite(1, 0)
        for t in (0.5, 1.5, 4.0):
            resid = ergodic_limit_residual(params, j10, 1.0, t, rule)
            assert resid == pytest.approx(math.exp(-t) / math.sqrt(2.0), abs=1e-12)
            env = ergodic_envelope(project_monomials(j10), 1.0)
            assert resid <= env.bound(params, t) + 1e-12

    def test_quadratic_far_point(self):
        rule = gauss_hermite_rule(8)
        got = ergodic_limit_residual(
            GeneratorParams(math.pi / 4), PolyZZbar({(1, 1): 1.0}), 2.0, 10.0, rule
        )
        assert got <= 1e-5

    def test_envelope_dominates_residual(self):
        rng = np.random.default_rng(139)
        rule = default_rule(6)
        params = GeneratorParams(math.pi / 6)
        phi = random_poly(rng, 5)
        x = 1.2 - 0.7j
        env = ergodic_envelope(project_monomials(phi), x)
        assert env.degree == 1
        for t in (0.5, 2.0, 6.0):
            resid = ergodic_limit_residual(params, phi, x, t, rule)
            assert resid <= env.bound(params, t) * (1.0 + 1e-9) + 1e-9

    def test_envelope_of_constant_is_zero(self):
        env = ergodic_envelope(SpectralCoeffs({(0, 0): 3.0}), 1.0)
        assert env.amplitude == 0.0
        assert env.bound(GeneratorParams(0.2), 1.0) == 0.0

    def test_nonpositive_horizon_rejected(self):
        rule = gauss_hermite_rule(4)
        with pytest.raises(ValueError):
            ergodic_limit_residual(GeneratorParams(0.0), PolyZZbar.z(), 0.0, 0.0, rule)


class TestGaussianRotation:
    def test_unitary_mixing_preserves_expectations(self):
        rng = np.random.default_rng(149)
        rule = default_rule(6)
        for theta, t in ((math.pi / 4, 0.5), (-math.pi / 3, 1.2), (0.3, 0.05)):
            p = PropagatorParams(GeneratorParams(theta), t)
            terms = {}
            for _ in range(8):
                key = tuple(int(rng.integers(0, 2)) for _ in range(4))
                terms[key] = complex(rng.standard_normal(), rng.standard_normal())
            f = PolyWWbar(2, terms)
            assert gaussian_rotation_residual(p, f, rule) <= 1e-9

    def test_requires_two_slots(self):
        p = PropagatorParams(GeneratorParams(0.0), 1.0)
        with pytest.raises(ValueError):
            gaussian_rotation_residual(p, PolyWWbar(1, {(1, 0): 1.0}), gauss_hermite_rule(4))
