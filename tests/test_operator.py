"""The generator in differential and spectral form, its adjoint and normality,
the squared graph seminorm, the carre du champ, and the diffusion chain rule.
"""

import cmath
import math

import numpy as np
import pytest

from complexou import (
    GeneratorParams,
    PolyWWbar,
    PolyZZbar,
    SpectralCoeffs,
    adjoint_params,
    apply_generator_spectral,
    apply_generator_wirtinger,
    carre_du_champ,
    carre_du_champ_via_generator,
    chain_rule_sides,
    complex_hermite,
    domain_seminorm_sq,
    eigenvalue,
    gauss_hermite_rule,
    inner_product,
    project_monomials,
    synthesize,
)
from complexou import checks
from complexou.operator import THETA_BOUND, combine_generator_terms, generator_terms
from complexou.spectral import MAX_TOTAL_DEGREE

THETAS = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, 0.49 * math.pi, -0.49 * math.pi)


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


class TestParams:
    def test_angle_bound_is_strict(self):
        assert THETA_BOUND == 0.4999 * math.pi
        GeneratorParams(THETA_BOUND)
        GeneratorParams(-THETA_BOUND)
        for theta in (math.nextafter(THETA_BOUND, math.inf), 0.499999 * math.pi, math.pi / 2, 1.6):
            with pytest.raises(ValueError):
                GeneratorParams(theta)
            with pytest.raises(ValueError):
                GeneratorParams(-theta)

    def test_drift_and_cosine(self):
        p = GeneratorParams(math.pi / 4)
        assert p.drift == pytest.approx(cmath.exp(1j * math.pi / 4))
        assert p.cos_theta == pytest.approx(math.cos(math.pi / 4))

    def test_adjoint_flips_angle(self):
        p = GeneratorParams(math.pi / 4)
        assert adjoint_params(p).theta == -math.pi / 4
        assert adjoint_params(GeneratorParams(0.0)).theta == 0.0
        assert adjoint_params(adjoint_params(p)) == p


class TestEigenvalue:
    def test_examples(self):
        assert eigenvalue(GeneratorParams(0.0), 2, 1) == pytest.approx(-3.0)
        for theta in THETAS:
            assert eigenvalue(GeneratorParams(theta), 0, 0) == 0.0
        lam = eigenvalue(GeneratorParams(math.pi / 4), 1, 0)
        assert lam == pytest.approx(-(math.sqrt(2) / 2) * (1 + 1j))
        assert lam == pytest.approx(-cmath.exp(1j * math.pi / 4))

    def test_conjugate_pairing(self):
        params = GeneratorParams(0.7)
        for m, n in ((2, 5), (3, 3), (0, 4)):
            assert eigenvalue(params, n, m) == eigenvalue(params, m, n).conjugate()


class TestGeneratorWirtingerForm:
    def test_annihilates_constants(self):
        for theta in THETAS:
            out = apply_generator_wirtinger(GeneratorParams(theta), PolyZZbar.constant(3.0))
            assert out == PolyZZbar.zero()

    def test_symmetric_case_on_zzbar(self):
        out = apply_generator_wirtinger(GeneratorParams(0.0), PolyZZbar({(1, 1): 1.0}))
        assert out == PolyZZbar({(0, 0): 4.0, (1, 1): -2.0})

    def test_j11_is_eigenfunction(self):
        j11 = complex_hermite(1, 1)
        for theta in THETAS:
            params = GeneratorParams(theta)
            out = apply_generator_wirtinger(params, j11)
            target = j11 * (-2.0 * params.cos_theta)
            assert (out - target).max_abs_coeff() <= 1e-14

    def test_eigenrelation_sweep(self):
        for theta in THETAS:
            params = GeneratorParams(theta)
            for total in range(11):
                for m in range(total + 1):
                    j = complex_hermite(m, total - m)
                    target = j * eigenvalue(params, m, total - m)
                    resid = (apply_generator_wirtinger(params, j) - target).max_abs_coeff()
                    assert resid <= 1e-9 * max(1.0, target.max_abs_coeff())

    def test_eigenrelation_at_max_total_degree(self):
        rep = checks.check_eigenrelation(MAX_TOTAL_DEGREE, thetas=(math.pi / 4,))
        assert rep.passed, rep.max_residual

    @staticmethod
    def fresh_monomial_generator(params, phi):
        """The generator with new z and zbar monomials built on each call and
        each difference taken as the sum with the negation."""
        c = 4.0 * params.cos_theta
        drift = params.drift
        dz = phi.wirtinger_dz()
        dzbar = phi.wirtinger_dzbar()
        return (
            dz.wirtinger_dzbar() * c
            + -(PolyZZbar.z() * dz * drift)
            + -(PolyZZbar.zbar() * dzbar * drift.conjugate())
        )

    def test_bits_match_fresh_monomials_and_added_negations(self):
        rng = np.random.default_rng(23)
        phis = [random_poly(rng, d) for d in range(9)]
        phis += [complex_hermite(m, n) for m in range(8) for n in range(8 - m)]
        # zero parts of both signs in the coefficients
        phis.append(PolyZZbar({(2, 1): complex(-0.0, 1.5), (1, 1): complex(2.0, -0.0), (0, 3): -1.0}))
        for theta in THETAS:
            params = GeneratorParams(theta)
            for phi in phis:
                got = apply_generator_wirtinger(params, phi)._c
                want = self.fresh_monomial_generator(params, phi)._c
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                for part in ("real", "imag"):
                    assert np.array_equal(
                        np.signbit(getattr(got, part)), np.signbit(getattr(want, part))
                    )

    def test_shared_terms_match_the_generator_bit_for_bit(self):
        # the theta-free terms of phi, formed once and combined at every angle
        rng = np.random.default_rng(29)
        phis = [random_poly(rng, d) for d in range(9)]
        phis += [complex_hermite(m, n) for m in range(8) for n in range(8 - m)]
        for phi in phis:
            terms = generator_terms(phi)
            for theta in THETAS + (THETA_BOUND, -THETA_BOUND):
                params = GeneratorParams(theta)
                got = combine_generator_terms(params, terms)._c
                for want in (apply_generator_wirtinger(params, phi)._c,
                             self.fresh_monomial_generator(params, phi)._c):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_nonsymmetric_for_nonzero_angle(self):
        # <L phi, phi> != <phi, L phi> once the eigenvalues go complex
        rule = gauss_hermite_rule(6)
        params = GeneratorParams(math.pi / 4)
        phi = complex_hermite(1, 0)
        lhs = inner_product(rule, apply_generator_wirtinger(params, phi), phi)
        rhs = inner_product(rule, phi, apply_generator_wirtinger(params, phi))
        assert abs(lhs - rhs) >= 2.0 * math.sin(math.pi / 4) - 1e-9


class TestGeneratorSpectralForm:
    def test_examples(self):
        assert apply_generator_spectral(
            GeneratorParams(0.3), SpectralCoeffs({(0, 0): 1.0})
        ) == SpectralCoeffs({})
        out = apply_generator_spectral(GeneratorParams(0.0), SpectralCoeffs({(2, 1): 1.0}))
        assert out.coeff(2, 1) == pytest.approx(-3.0)
        out = apply_generator_spectral(
            GeneratorParams(math.pi / 6), SpectralCoeffs({(1, 0): 1.0, (0, 1): 1.0})
        )
        assert out.coeff(1, 0) == pytest.approx(-cmath.exp(1j * math.pi / 6))
        assert out.coeff(0, 1) == pytest.approx(-cmath.exp(-1j * math.pi / 6))

    def test_agrees_with_wirtinger_route(self):
        rng = np.random.default_rng(59)
        for theta in (0.0, math.pi / 4, -0.49 * math.pi):
            params = GeneratorParams(theta)
            f = random_coeffs(rng, 8)
            via_poly = project_monomials(apply_generator_wirtinger(params, synthesize(f)))
            target = apply_generator_spectral(params, f)
            worst = max(
                abs(via_poly.coeff(m, n) - target.coeff(m, n))
                for m in range(9)
                for n in range(9 - m)
            )
            assert worst <= 1e-8

    def test_normality_is_exact_on_coefficients(self):
        # lambda * conj(lambda) is commutative bit for bit and lands exactly
        # on the real axis, so the composed multiplier cannot see the order
        rng = np.random.default_rng(61)
        params = GeneratorParams(0.8)
        adj = adjoint_params(params)
        c2 = math.cos(2 * 0.8)
        for m in range(7):
            for n in range(7 - m):
                lam = eigenvalue(params, m, n)
                mu = eigenvalue(adj, m, n)
                assert lam * mu == mu * lam
                assert (lam * mu).imag == 0.0
                assert (lam * mu).real == pytest.approx(m * m + n * n + 2 * m * n * c2)
        f = random_coeffs(rng, 6)
        forward = f.map_terms(lambda m, n, c: (eigenvalue(adj, m, n) * eigenvalue(params, m, n)) * c)
        backward = f.map_terms(lambda m, n, c: (eigenvalue(params, m, n) * eigenvalue(adj, m, n)) * c)
        assert forward == backward

    def test_sequential_composition_agrees_to_rounding(self):
        # applying the two diagonal multipliers one after the other reorders
        # the float products, so equality here is to a few ulps, not bitwise
        rng = np.random.default_rng(61)
        params = GeneratorParams(0.8)
        adj = adjoint_params(params)
        f = random_coeffs(rng, 6)
        forward = apply_generator_spectral(adj, apply_generator_spectral(params, f))
        backward = apply_generator_spectral(params, apply_generator_spectral(adj, f))
        assert (forward - backward).max_abs_coeff() <= 1e-13 * (1.0 + forward.max_abs_coeff())


class TestDomainSeminorm:
    def test_examples(self):
        assert domain_seminorm_sq(GeneratorParams(0.9), SpectralCoeffs({(0, 0): 5.0})) == 0.0
        assert domain_seminorm_sq(
            GeneratorParams(0.0), SpectralCoeffs({(1, 1): 1.0})
        ) == pytest.approx(4.0)

    def test_equals_norm_of_generator_image(self):
        rng = np.random.default_rng(67)
        for theta in (0.0, 0.5, -1.2):
            params = GeneratorParams(theta)
            f = random_coeffs(rng, 7)
            lhs = domain_seminorm_sq(params, f)
            rhs = apply_generator_spectral(params, f).norm_sq()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_angle_independent_equivalence_bounds(self):
        # cos^2(theta) (m+n)^2 <= m^2+n^2+2mn cos(2 theta) <= (m+n)^2
        for theta in THETAS:
            c2 = math.cos(2.0 * theta)
            cos_sq = math.cos(theta) ** 2
            for m in range(11):
                for n in range(11):
                    mid = m * m + n * n + 2.0 * m * n * c2
                    hi = float((m + n) ** 2)
                    assert mid <= hi + 1e-9
                    assert mid >= cos_sq * hi - 1e-9

    def test_seminorm_is_squared_eigenvalue_weight(self):
        params = GeneratorParams(0.6)
        for m, n in ((1, 0), (2, 3), (4, 4)):
            got = domain_seminorm_sq(params, SpectralCoeffs({(m, n): 1.0}))
            assert got == pytest.approx(abs(eigenvalue(params, m, n)) ** 2)


class TestCarreDuChamp:
    def test_examples(self):
        z = PolyZZbar.z()
        assert carre_du_champ(z, z) == PolyZZbar.constant(2.0)
        j10 = complex_hermite(1, 0)
        assert (carre_du_champ(j10, j10) - PolyZZbar.constant(1.0)).max_abs_coeff() <= 1e-15
        assert carre_du_champ(z, PolyZZbar.zbar()) == PolyZZbar.zero()

    def test_two_routes_agree(self):
        rng = np.random.default_rng(71)
        for k in range(30):
            theta = (0.0, math.pi / 6, -math.pi / 4, math.pi / 3)[k % 4]
            phi = random_poly(rng, 6)
            psi = random_poly(rng, 6)
            direct = carre_du_champ(phi, psi)
            via_gen = carre_du_champ_via_generator(GeneratorParams(theta), phi, psi)
            assert (direct - via_gen).max_abs_coeff() <= 1e-10

    def test_two_routes_agree_at_the_angle_bound(self):
        # the generator route divides by cos(theta), so this is Gamma's worst
        # admissible angle: about 6e-11 against the suite's tol of 1e-10
        rep = checks.check_gamma(thetas=(THETA_BOUND, -THETA_BOUND))
        assert rep.passed, rep.max_residual

    def test_diagonal_is_nonnegative(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            phi = random_poly(rng, 6)
            gamma = carre_du_champ(phi, phi)
            pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
            vals = gamma.eval(pts)
            assert float(np.min(vals.real)) >= -1e-12
            assert float(np.max(np.abs(vals.imag))) <= 1e-12 * max(1.0, float(np.max(vals.real)))

    def test_sesquilinearity(self):
        rng = np.random.default_rng(79)
        a = 0.7 - 1.3j
        phi1, phi2, psi1, psi2 = (random_poly(rng, 4) for _ in range(4))
        lhs = carre_du_champ(phi1 * a + phi2, psi1)
        rhs = carre_du_champ(phi1, psi1) * a + carre_du_champ(phi2, psi1)
        assert (lhs - rhs).max_abs_coeff() <= 1e-12
        lhs = carre_du_champ(phi1, psi1 * a + psi2)
        rhs = carre_du_champ(phi1, psi1) * a.conjugate() + carre_du_champ(phi1, psi2)
        assert (lhs - rhs).max_abs_coeff() <= 1e-12

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(83)
        phi = random_poly(rng, 5)
        psi = random_poly(rng, 5)
        assert (carre_du_champ(phi, psi) - carre_du_champ(psi, phi).conjugate()).max_abs_coeff() <= 1e-12


class TestDiffusionChainRule:
    def test_identity_outer_degenerates(self):
        rng = np.random.default_rng(89)
        phi = random_poly(rng, 4)
        identity = PolyWWbar(1, {(1, 0): 1.0})
        lhs, rhs = chain_rule_sides(GeneratorParams(math.pi / 6), identity, [phi])
        assert (lhs - rhs).max_abs_coeff() == 0.0

    def test_modulus_squared_outer(self):
        outer = PolyWWbar(1, {(1, 1): 1.0})
        lhs, rhs = chain_rule_sides(GeneratorParams(0.0), outer, [PolyZZbar.z()])
        assert lhs == PolyZZbar({(0, 0): 4.0, (1, 1): -2.0})
        assert (lhs - rhs).max_abs_coeff() <= 1e-14

    def test_square_outer_on_basis_element(self):
        outer = PolyWWbar(1, {(2, 0): 1.0})
        lhs, rhs = chain_rule_sides(GeneratorParams(math.pi / 4), outer, [complex_hermite(1, 0)])
        assert (lhs - rhs).max_abs_coeff() <= 1e-9

    def test_random_cases_two_slots(self):
        rng = np.random.default_rng(97)
        for k in range(12):
            params = GeneratorParams((0.0, math.pi / 4, -0.49 * math.pi)[k % 3])
            n_slots = 1 + (k % 2)
            terms = {}
            for _ in range(6):
                key = tuple(int(rng.integers(0, 3)) for _ in range(2 * n_slots))
                terms[key] = complex(rng.standard_normal(), rng.standard_normal())
            outer = PolyWWbar(n_slots, terms)
            phis = [random_poly(rng, 3) for _ in range(n_slots)]
            lhs, rhs = chain_rule_sides(params, outer, phis)
            assert (lhs - rhs).max_abs_coeff() <= 1e-9 * (1.0 + lhs.max_abs_coeff())

    def test_slot_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            w0 = PolyWWbar(2, {(1, 0, 0, 0): 1.0})
            chain_rule_sides(GeneratorParams(0.0), w0, [PolyZZbar.z()])
