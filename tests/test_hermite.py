"""Real and complex Hermite polynomials: closed form vs creation-operator
route, orthonormality conventions, basis transforms, the monomial
expansion round trip, and every normalization coefficient against its exact
value.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexou import (
    PolyZZbar,
    SpectralCoeffs,
    build_basis_transform,
    complex_hermite,
    complex_hermite_via_creation,
    creation_ladder,
    creation_z,
    creation_zbar,
    gauss_hermite_rule,
    hermite_product_poly,
    monomial_to_hermite,
    project_monomials,
    synthesize,
)
from complexou import checks, hermite
from complexou.cli import _json_text
from complexou.hermite import MAX_CREATION_DEGREE, MAX_TRANSFORM_DEGREE
from complexou.spectral import MAX_TOTAL_DEGREE

SQRT2 = math.sqrt(2.0)


def basis_indices(max_total):
    return [(m, total - m) for total in range(max_total + 1) for m in range(total + 1)]


class TestRealHermite:
    """The one three-term recurrence, hermite._hermite_rows, on values."""

    X = np.linspace(-4.0, 4.0, 17)

    def test_small_degrees(self):
        h0, h1, h2 = hermite._hermite_rows(self.X, 3)
        np.testing.assert_allclose(h0, 1.0, rtol=0, atol=0)
        np.testing.assert_allclose(h1, self.X, rtol=0, atol=0)
        np.testing.assert_allclose(h2, (self.X**2 - 1) / SQRT2, rtol=1e-15, atol=1e-15)

    def test_leading_coefficient(self):
        # H_n(x) = x^n / sqrt(n!) (1 + O(n^2 / x^2)), so at x = 1e8 the ratio
        # H_n(x) / x^n is the leading coefficient to rounding
        x = np.array([1e8])
        for n, row in enumerate(hermite._hermite_rows(x, 13)):
            lead = row[0] / x[0] ** n
            assert lead == pytest.approx(1.0 / math.sqrt(math.factorial(n)), rel=1e-13)

    def test_against_reference_basis(self):
        # numpy's probabilist Hermite basis He_n; ours is He_n / sqrt(n!)
        for n, row in enumerate(hermite._hermite_rows(self.X, 11)):
            ref = np.polynomial.hermite_e.hermeval(self.X, [0.0] * n + [1.0])
            np.testing.assert_allclose(row, ref / math.sqrt(math.factorial(n)),
                                       rtol=1e-13, atol=1e-13)

    def test_orthonormal_under_gaussian_weight(self):
        rule = gauss_hermite_rule(12)
        vals = np.array(hermite._hermite_rows(rule.nodes, 9))
        gram = (vals * rule.weights) @ vals.T
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_degree_out_of_range(self):
        # the product route takes each index up to the limit on its own
        top = MAX_TOTAL_DEGREE
        for kx, ky in ((-1, 0), (0, -1), (top + 1, 0), (0, top + 1)):
            with pytest.raises(ValueError):
                hermite_product_poly(kx, ky)
        assert hermite_product_poly(top, top).terms


class TestComplexHermiteClosedForm:
    def test_examples(self):
        assert complex_hermite(0, 0) == PolyZZbar.constant(1.0)
        assert (complex_hermite(1, 0) - PolyZZbar({(1, 0): 1 / SQRT2})).max_abs_coeff() <= 1e-15
        j11 = complex_hermite(1, 1)
        assert (j11 - PolyZZbar({(1, 1): 0.5, (0, 0): -1.0})).max_abs_coeff() <= 1e-15

    def test_exact_bidegree(self):
        for m, n in basis_indices(8):
            top = complex_hermite(m, n).coeff(m, n)
            assert abs(top) > 0.0
            assert complex_hermite(m, n).degree == m + n

    def test_conjugation_swaps_indices(self):
        for m, n in basis_indices(8):
            assert complex_hermite(m, n).conjugate() == complex_hermite(n, m)

    def test_unit_norm_under_quadrature(self):
        rule = gauss_hermite_rule(12)
        pts, wts = rule.tensor_points()
        for m, n in ((0, 0), (3, 1), (2, 2), (5, 0)):
            vals = complex_hermite(m, n).eval(pts)
            norm_sq = np.sum(wts * np.abs(vals) ** 2)
            assert norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            complex_hermite(40, 25)
        with pytest.raises(ValueError):
            complex_hermite(-1, 0)


class TestCreationRoute:
    def test_single_applications(self):
        one = PolyZZbar.constant(1.0)
        assert creation_z(one) == PolyZZbar({(1, 0): 0.5})
        assert creation_zbar(one) == PolyZZbar({(0, 1): 0.5})

    def test_examples(self):
        assert (
            complex_hermite_via_creation(1, 0) - PolyZZbar({(1, 0): 1 / SQRT2})
        ).max_abs_coeff() <= 1e-15
        assert (
            complex_hermite_via_creation(0, 1) - PolyZZbar({(0, 1): 1 / SQRT2})
        ).max_abs_coeff() <= 1e-15
        assert (
            complex_hermite_via_creation(2, 0) - PolyZZbar({(2, 0): 1 / (2 * SQRT2)})
        ).max_abs_coeff() <= 1e-15

    def test_agrees_with_closed_form(self):
        for m, n in basis_indices(12):
            explicit = complex_hermite(m, n)
            built = complex_hermite_via_creation(m, n)
            resid = (explicit - built).max_abs_coeff()
            assert resid <= 1e-10 * max(1.0, explicit.max_abs_coeff())

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            complex_hermite_via_creation(20, 13)

    def test_construction_at_the_degree_limit(self):
        rep = checks.check_construction(MAX_CREATION_DEGREE)
        assert rep.passed, rep.max_residual

    def test_ladder_equals_direct_route_array_for_array(self):
        # same operations in the same order, so the same bytes, signed zeros too
        seen = []
        for m, n, built in creation_ladder(16):
            direct = complex_hermite_via_creation(m, n)
            assert built._c.shape == direct._c.shape, (m, n)
            assert built._c.tobytes() == direct._c.tobytes(), (m, n)
            seen.append((m, n))
        assert sorted(seen) == sorted(basis_indices(16))

    def test_ladder_limits(self):
        assert [(m, n) for m, n, _ in creation_ladder(0)] == [(0, 0)]
        with pytest.raises(ValueError):
            next(creation_ladder(33))


class TestBasisTransform:
    def test_level_zero_is_identity(self):
        tr = build_basis_transform(0)
        np.testing.assert_allclose(tr.forward, [[1.0]])
        np.testing.assert_allclose(tr.inverse, [[1.0]])

    def test_level_one_row(self):
        # J[1,0] = (x + i*y)/sqrt(2); column k multiplies H_k(x)H_{1-k}(y),
        # so k=0 holds the y coefficient and k=1 the x coefficient
        tr = build_basis_transform(1)
        np.testing.assert_allclose(tr.forward[1], [1j / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_level_two_product_is_identity(self):
        tr = build_basis_transform(2)
        np.testing.assert_allclose(tr.forward @ tr.inverse, np.eye(3), atol=1e-12)

    def test_mutual_inverse_and_unitarity(self):
        for level in range(17):
            tr = build_basis_transform(level)
            eye = np.eye(level + 1)
            assert np.max(np.abs(tr.forward @ tr.inverse - eye)) <= 1e-10
            assert np.max(np.abs(tr.forward @ tr.forward.conj().T - eye)) <= 1e-10
            assert np.max(np.abs(tr.inverse @ tr.inverse.conj().T - eye)) <= 1e-10

    def test_reproduces_basis_polynomials(self):
        # forward rows applied to H_k(x)H_{l-k}(y), expanded in (z, zbar),
        # must rebuild J[m, l-m]; inverse rows go the other way.
        for level in range(17):
            products = [hermite_product_poly(k, level - k) for k in range(level + 1)]
            tr = build_basis_transform(level)
            for m in range(level + 1):
                rebuilt = PolyZZbar.zero()
                for k in range(level + 1):
                    rebuilt = rebuilt + products[k] * complex(tr.forward[m, k])
                assert (rebuilt - complex_hermite(m, level - m)).max_abs_coeff() <= 1e-9
            for k in range(level + 1):
                rebuilt = PolyZZbar.zero()
                for m in range(level + 1):
                    rebuilt = rebuilt + complex_hermite(m, level - m) * complex(
                        tr.inverse[k, m]
                    )
                assert (rebuilt - products[k]).max_abs_coeff() <= 1e-9

    def test_residual_at_the_degree_limit(self):
        assert build_basis_transform(MAX_TRANSFORM_DEGREE).residual() <= 1e-10

    def test_residual_keeps_a_nan(self):
        # a NaN in the inverse reaches forward @ inverse and the inverse's
        # unitarity defect; the forward's defect stays finite
        tr = build_basis_transform(3)
        inverse = tr.inverse.copy()
        inverse[2, 1] = math.nan
        bad = dataclasses.replace(tr, inverse=inverse)
        assert np.isfinite(bad.forward @ bad.forward.conj().T).all()
        assert math.isnan(bad.residual())

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            build_basis_transform(65)


class TestMonomialExpansion:
    def test_examples(self):
        z = monomial_to_hermite(1, 0)
        assert set(z.terms) == {(1, 0)}
        assert z.coeff(1, 0) == pytest.approx(SQRT2)

        zzbar = monomial_to_hermite(1, 1)
        assert zzbar.coeff(1, 1) == pytest.approx(2.0)
        assert zzbar.coeff(0, 0) == pytest.approx(2.0)

        assert monomial_to_hermite(0, 0) == SpectralCoeffs({(0, 0): 1.0})

    def test_support_is_diagonal_shift(self):
        exp = monomial_to_hermite(5, 3)
        assert set(exp.terms) == {(5 - k, 3 - k) for k in range(4)}

    def test_roundtrip_on_monomials(self):
        # expansion coefficients are large at degree 10 (~1e6) and cancel on
        # the way back; with correctly rounded tables the worst residual is
        # about 4e-12
        for a, b in basis_indices(10):
            back = synthesize(monomial_to_hermite(a, b))
            assert (back - PolyZZbar.monomial(a, b)).max_abs_coeff() <= 1e-9

    def test_project_is_linear_inverse_of_synthesize(self):
        rng = np.random.default_rng(37)
        coeffs = SpectralCoeffs(
            {
                (m, n): complex(rng.standard_normal(), rng.standard_normal())
                for m, n in basis_indices(8)
            }
        )
        back = project_monomials(synthesize(coeffs))
        worst = max(
            abs(back.coeff(m, n) - coeffs.coeff(m, n)) for m, n in basis_indices(8)
        )
        assert worst <= 1e-9

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            monomial_to_hermite(33, 32)


def correctly_rounded_root(c: float, exact: Fraction) -> bool:
    """|c| is sqrt(exact) rounded to nearest: sqrt(exact) lies within half a
    gap of |c| on each side.  The gap below a power of two is half the gap
    above it, so the lower bound takes the gap of |c|'s lower neighbour."""
    mag = abs(c)
    lo = Fraction(mag) - Fraction(math.ulp(math.nextafter(mag, 0.0))) / 2
    hi = Fraction(mag) + Fraction(math.ulp(mag)) / 2
    return lo**2 <= exact <= hi**2


class TestCorrectlyRoundedCoefficients:
    """Each coefficient is the square root of an exact rational, rounded once."""

    def test_explicit_basis_coefficients(self):
        for m, n in basis_indices(MAX_TOTAL_DEGREE):
            c = complex_hermite(m, n)._c
            den = math.factorial(m) * math.factorial(n) * 2 ** (m + n)
            for r in range(min(m, n) + 1):
                x = c[m - r, n - r]
                num = (math.comb(m, r) * math.comb(n, r) * math.factorial(r) * 2**r) ** 2
                assert x.imag == 0.0 and math.copysign(1.0, x.real) == (-1) ** r, (m, n, r)
                assert correctly_rounded_root(x.real, Fraction(num, den)), (m, n, r)

    def test_monomial_expansion_coefficients(self):
        for m, n in basis_indices(MAX_TOTAL_DEGREE):
            c = monomial_to_hermite(m, n)._c
            for k in range(min(m, n) + 1):
                x = c[m - k, n - k]
                lead = math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                exact = lead**2 * math.factorial(m - k) * math.factorial(n - k) * 2 ** (m + n)
                assert x.imag == 0.0 and x.real > 0.0, (m, n, k)
                assert correctly_rounded_root(x.real, Fraction(exact)), (m, n, k)

    def test_creation_scale(self):
        for m, n in basis_indices(MAX_CREATION_DEGREE):
            exact = Fraction(2 ** (m + n), math.factorial(m) * math.factorial(n))
            assert correctly_rounded_root(hermite._creation_scale(m, n), exact), (m, n)

    # Both identities below read the two tables and failed while the tables
    # were rounded several times (round trip 2.0e-9 at degree 12 against tol
    # 1e-9, spectral vs Mehler 3.5e-8 to 7.2e-8 at degree 14 for these seeds
    # against tol 1e-8).
    def test_roundtrip_at_degree_12(self):
        rep = checks.check_roundtrip(max_degree=12)
        assert rep.passed, rep.max_residual

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spectral_vs_mehler_at_degree_14(self, seed):
        rep = checks.check_spectral_vs_mehler(max_degree=14, n_points=20, seed=seed)
        assert rep.passed, rep.max_residual


def test_spectral_coeffs_json_roundtrip():
    coeffs = SpectralCoeffs({(1, 0): 1.0 + 2.0j, (0, 2): -0.5})
    text = _json_text(coeffs.to_json_obj(theta=0.25))
    back, theta = SpectralCoeffs.from_json_obj(json.loads(text))
    assert back == coeffs
    assert theta == 0.25
    back, theta = SpectralCoeffs.from_json_obj(json.loads(_json_text(coeffs.to_json_obj())))
    assert back == coeffs and theta is None


def test_spectral_coeffs_sorted_by_total_degree():
    coeffs = SpectralCoeffs({(2, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0})
    assert [key for key, _ in coeffs.items_sorted()] == [(0, 1), (1, 0), (2, 0)]


def same_bits(x, y):
    """Equal shapes and entries, sign bits of zero parts included."""
    return (
        np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))
    )


float_coeffs = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
degree_10_keys = st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda k: sum(k) <= 10)


class TestOneArraySums:
    """synthesize and project_monomials sum in one array; they must equal the
    term-by-term ``+`` loop over the same scaled basis polynomials."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(degree_10_keys, float_coeffs, max_size=30))
    def test_synthesize_matches_termwise_sum(self, terms):
        coeffs = SpectralCoeffs(terms)
        reference = PolyZZbar.zero()
        for (m, n), c in coeffs.items_sorted():
            reference = reference + complex_hermite(m, n) * c
        assert same_bits(synthesize(coeffs)._c, reference._c)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(degree_10_keys, float_coeffs, max_size=30))
    def test_project_monomials_matches_termwise_sum(self, terms):
        p = PolyZZbar(terms)
        reference = SpectralCoeffs()
        for (a, b), c in p.items_sorted():
            reference = reference + monomial_to_hermite(a, b) * c
        assert same_bits(project_monomials(p)._c, reference._c)

    def test_empty_sums(self):
        assert synthesize(SpectralCoeffs()) == PolyZZbar.zero()
        assert project_monomials(PolyZZbar.zero()) == SpectralCoeffs()


def per_frequency_basis_values(max_total, pts):
    """The Laguerre rows one frequency a at a time, each recurrence in k run
    to its end before the next a starts: the oracle for the rows that
    hermite.basis_values steps for every a at once."""
    z = np.asarray(pts, dtype=complex)
    x = 0.5 * (z.real**2 + z.imag**2)
    out = np.empty(((max_total + 1) * (max_total + 2) // 2,) + z.shape, dtype=complex)
    radial = np.ones_like(z)
    for a in range(max_total + 1):
        if a:
            radial = radial * z / math.sqrt(2 * a)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in range((max_total - a) // 2 + 1):
            if k:
                prev, cur = cur, (
                    (x - (2 * k - 1 + a)) * cur - math.sqrt((k - 1) * (k - 1 + a)) * prev
                ) / math.sqrt(k * (k + a))
            first = (a + 2 * k) * (a + 2 * k + 1) // 2  # row of (0, a + 2k)
            np.multiply(radial, cur, out=out[first + a + k])  # J[a+k, k]
            if a:
                np.conjugate(out[first + a + k], out=out[first + k])  # J[k, a+k]
    return out


class TestBasisGrid:
    @pytest.mark.parametrize("max_total", [0, 1, 7])
    def test_indices_in_items_sorted_order(self, max_total):
        dense = SpectralCoeffs(
            {
                (m, n): 1.0 + m - 2j * n
                for m in range(max_total + 1)
                for n in range(max_total + 1 - m)
            }
        )
        assert hermite.basis_indices(max_total) == [mn for mn, _ in dense.items_sorted()]

    def test_rows_agree_with_explicit_basis_values(self):
        # the Laguerre rows against the explicit form, where it evaluates
        # accurately: m + n <= 10 on |z| <= 5, the circle |z| = 5 included
        rng = np.random.default_rng(157)
        radius = np.concatenate([5.0 * np.sqrt(rng.random(200)), np.full(40, 5.0), [0.0]])
        pts = radius * np.exp(2j * np.pi * rng.random(radius.size))
        rows = hermite.basis_values(10, pts)
        indices = hermite.basis_indices(10)
        assert rows.shape == (len(indices), pts.size)
        for row, (m, n) in zip(rows, indices):
            assert np.max(np.abs(row - complex_hermite(m, n).eval(pts))) <= 1e-11

    def test_rows_of_swapped_indices_are_conjugates(self):
        rng = np.random.default_rng(158)
        pts = 3.0 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        rows = dict(zip(hermite.basis_indices(9), hermite.basis_values(9, pts)))
        for (m, n), row in rows.items():
            if m != n:
                assert rows[(n, m)].tobytes() == np.conjugate(row).tobytes()

    def test_rows_keep_the_point_shape(self):
        pts = np.array([[0.5 - 1j, 2.0], [0j, -1.5j]])
        rows = hermite.basis_values(3, pts)
        assert rows.shape == (10, 2, 2)
        assert rows.reshape(10, 4).tobytes() == hermite.basis_values(3, pts.ravel()).tobytes()

    @pytest.mark.parametrize("max_total", [0, 1, 2, 10, 33, MAX_TOTAL_DEGREE])
    @pytest.mark.parametrize("shape", [(1,), (3, 5)], ids=["one-point", "2-d"])
    def test_rows_match_the_per_frequency_recurrence(self, max_total, shape):
        rng = np.random.default_rng(160)
        pts = 4.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got = hermite.basis_values(max_total, pts)
        want = per_frequency_basis_values(max_total, pts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_gram_at_max_total_degree(self):
        # the advertised basis limit, on the default rule for it
        rep = checks.check_orthonormality(MAX_TOTAL_DEGREE, order=MAX_TOTAL_DEGREE + 2)
        assert rep.passed, rep.max_residual

    @pytest.mark.parametrize("max_total", [-1, MAX_TOTAL_DEGREE + 1])
    def test_degree_out_of_range(self, max_total):
        with pytest.raises(ValueError):
            hermite.basis_values(max_total, np.zeros(3, dtype=complex))
