"""Gauss-Hermite quadrature against the planar Gaussian: exactness oracles,
inner products, projection onto the orthonormal basis (summed over point
blocks, one block's basis grid at a time), and Parseval.
"""

import math

import numpy as np
import pytest

from complexou import (
    PolyZZbar,
    complex_hermite,
    default_rule,
    gauss_hermite_rule,
    inner_product,
    integrate_gamma,
    project,
    synthesize,
)
from complexou import hermite
from complexou.quadrature import MAX_ORDER
from complexou.spectral import SpectralCoeffs
from memtrace import MB, traced_peak


def random_poly(rng, max_degree):
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            terms[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return PolyZZbar(terms)


def gaussian_moment(k):
    """E[x^k] for x ~ N(0,1): (k-1)!! for even k, 0 for odd k."""
    if k % 2:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k else 1.0


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_hermite_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_order_two(self):
        rule = gauss_hermite_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    def test_weights_sum_to_one(self):
        for order in (3, 8, 12, 32):
            rule = gauss_hermite_rule(order)
            assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-13

    def test_nodes_symmetric(self):
        rule = gauss_hermite_rule(9)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=0.0)

    def test_against_reference_rule(self):
        # numpy's probabilist Gauss-Hermite rule carries unnormalized weights
        # (they sum to sqrt(2*pi))
        ref_nodes, ref_weights = np.polynomial.hermite_e.hermegauss(12)
        rule = gauss_hermite_rule(12)
        np.testing.assert_allclose(rule.nodes, ref_nodes, atol=5e-13)
        np.testing.assert_allclose(
            rule.weights, ref_weights / math.sqrt(2.0 * math.pi), rtol=1e-12
        )

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(129)


class TestExactness:
    def test_univariate_moments_up_to_design_degree(self):
        rule = gauss_hermite_rule(6)
        for k in range(12):  # exact through degree 2*6-1
            got = float(np.sum(rule.weights * rule.nodes**k))
            want = gaussian_moment(k)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_eighteenth_moment_oracle(self):
        rule = gauss_hermite_rule(10)
        got = float(np.sum(rule.weights * rule.nodes**18))
        assert abs(got - 34459425.0) / 34459425.0 <= 1e-10  # 17!!

    def test_planar_moments(self):
        rule = gauss_hermite_rule(12)
        assert integrate_gamma(rule, PolyZZbar.constant(1.0)) == pytest.approx(1.0)
        assert integrate_gamma(rule, PolyZZbar({(1, 1): 1.0})) == pytest.approx(2.0)
        assert abs(integrate_gamma(rule, complex_hermite(1, 1))) <= 1e-13
        # E|z|^18 = 2^9 * 9!  (|z|^2/2 is a unit exponential)
        got = integrate_gamma(rule, PolyZZbar({(9, 9): 1.0}))
        want = 2.0**9 * math.factorial(9)
        assert abs(got - want) / want <= 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(41)
        rule = gauss_hermite_rule(10)
        f = random_poly(rng, 6)
        base = integrate_gamma(rule, f)
        for alpha in (0.3, math.pi / 3, -1.1):
            phase = complex(math.cos(alpha), math.sin(alpha))
            rotated = integrate_gamma(rule, lambda w: f.eval(phase * w))
            assert abs(rotated - base) <= 1e-10


class TestInnerProduct:
    def test_examples(self):
        rule = gauss_hermite_rule(8)
        assert inner_product(rule, complex_hermite(1, 0), complex_hermite(1, 0)) == pytest.approx(1.0)
        assert abs(inner_product(rule, complex_hermite(2, 1), complex_hermite(1, 2))) <= 1e-12
        z = PolyZZbar.z()
        assert inner_product(rule, z, z) == pytest.approx(2.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(43)
        rule = gauss_hermite_rule(12)
        f = random_poly(rng, 5)
        g = random_poly(rng, 5)
        lhs = inner_product(rule, f, g)
        rhs = inner_product(rule, g, f)
        assert abs(lhs - rhs.conjugate()) <= 1e-12 * (1.0 + abs(lhs))


class TestProjection:
    def test_basis_element_projects_to_unit_vector(self):
        coeffs = project(default_rule(6), complex_hermite(3, 2), 6)
        for (m, n), c in coeffs.terms.items():
            want = 1.0 if (m, n) == (3, 2) else 0.0
            assert abs(c - want) <= 1e-10

    def test_monomial_projection_matches_exact_expansion(self):
        coeffs = project(default_rule(2), PolyZZbar({(1, 1): 1.0}), 2)
        assert coeffs.coeff(1, 1) == pytest.approx(2.0)
        assert coeffs.coeff(0, 0) == pytest.approx(2.0)
        assert abs(coeffs.coeff(2, 0)) <= 1e-12

    def test_constant_projection(self):
        coeffs = project(default_rule(2), PolyZZbar.constant(1.0), 2)
        assert coeffs.coeff(0, 0) == pytest.approx(1.0)
        assert sum(abs(c) for (m, n), c in coeffs.terms.items() if (m, n) != (0, 0)) <= 1e-12

    def test_project_inverts_synthesize(self):
        rng = np.random.default_rng(47)
        coeffs = SpectralCoeffs(
            {
                (m, total - m): complex(rng.standard_normal(), rng.standard_normal())
                for total in range(11)
                for m in range(total + 1)
            }
        )
        back = project(default_rule(10), synthesize(coeffs), 10)
        worst = max(abs(back.coeff(m, n) - c) for (m, n), c in coeffs.terms.items())
        assert worst <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(53)
        rule = default_rule(8)
        f = random_poly(rng, 8)
        norm_quad = inner_product(rule, f, f).real
        norm_coeffs = project(rule, f, 8).norm_sq()
        assert abs(norm_quad - norm_coeffs) <= 1e-9 * norm_quad

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            project(default_rule(4), PolyZZbar.z(), -1)


def loop_project(rule, f, max_total_degree):
    """project as one weighted sum per (m, n), each reading its own basis row."""
    pts, wts = rule.tensor_points()
    fw = f.eval(pts) * wts
    rows = hermite.basis_values(max_total_degree, pts)
    terms = {}
    k = 0
    for total in range(max_total_degree + 1):
        for m in range(total + 1):
            terms[(m, total - m)] = complex(np.sum(fw * np.conjugate(rows[k])))
            k += 1
    return SpectralCoeffs(terms)


# every rule here is one point block of project's, 1 to 900 points
@pytest.mark.parametrize(
    "degree, max_total, order", [(0, 0, 1), (3, 3, 5), (6, 7, 8), (8, 8, 7), (4, 4, 30)]
)
def test_project_matches_per_index_loop_bit_for_bit(degree, max_total, order):
    f = random_poly(np.random.default_rng(151 + degree), degree)
    rule = gauss_hermite_rule(order)
    got, want = project(rule, f, max_total), loop_project(rule, f, max_total)
    assert got._c.shape == want._c.shape
    assert got._c.tobytes() == want._c.tobytes()


# 2, 7 and 15 point blocks of 1800, 69 to 70 and 106 to 107 points
@pytest.mark.parametrize("degree, max_total, order", [(2, 2, 60), (6, 20, 22), (16, 16, 40)])
def test_project_in_point_blocks_within_rounding_of_one_sum(degree, max_total, order):
    # each coefficient is a complex inner product of N terms f w conj(J), so
    # it is within gamma_{N+3} sum_p |f w| |J| of the exact sum whatever the
    # order of its additions (Higham, 2nd ed., 2002, sections 3.1 and 3.6)
    f = random_poly(np.random.default_rng(151 + degree), degree)
    rule = gauss_hermite_rule(order)
    pts, wts = rule.tensor_points()
    fw = f.eval(pts) * wts
    gamma = (pts.size + 3) * 2.0**-53 / (1.0 - (pts.size + 3) * 2.0**-53)
    bound = 2.0 * gamma * (np.abs(hermite.basis_values(max_total, pts)) @ np.abs(fw))
    got, want = project(rule, f, max_total), loop_project(rule, f, max_total)
    diffs = [abs(got.coeff(m, n) - want.coeff(m, n)) for m, n in hermite.basis_indices(max_total)]
    assert np.all(np.array(diffs) <= bound)


def test_project_holds_one_point_block():
    # 561 basis rows on 34^2 points in 64-point blocks; the whole basis grid
    # is 10.4 MB
    rule, f = default_rule(32), PolyZZbar({(3, 1): 1.0})
    project(rule, f, 32)  # warm
    peak = traced_peak(lambda: project(rule, f, 32))
    assert peak <= 2 * 16 * 561 * 64 + MB // 2


def test_one_dimensional_gram_at_max_order():
    # H_0 .. H_{K-1} by their own recurrence; the products reach degree 2K - 2,
    # within the rule's exactness, so the Gram matrix must be the identity
    rule = gauss_hermite_rule(MAX_ORDER)
    x = rule.nodes
    rows = [np.ones_like(x), x]
    for k in range(1, MAX_ORDER - 1):
        rows.append((x * rows[k] - math.sqrt(k) * rows[k - 1]) / math.sqrt(k + 1))
    h = np.array(rows)
    gram = (h * rule.weights) @ h.T
    assert np.max(np.abs(gram - np.eye(MAX_ORDER))) <= 1e-12


def test_integrate_accepts_plain_callables():
    rule = gauss_hermite_rule(8)
    got = integrate_gamma(rule, lambda w: np.abs(w) ** 2)
    assert got == pytest.approx(2.0)
