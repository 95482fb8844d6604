"""Polynomial algebra over the formal pair (z, zbar): ring axioms, Wirtinger
calculus, conjugation, evaluation, composition, and JSON serialization.

Exact-identity tests draw Gaussian-integer coefficients so every sum and
product is representable without rounding; float-coefficient inputs are used
only where the contract is a tolerance.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexou import PolyWWbar, PolyZZbar, complex_hermite, compose
from complexou.poly import MonomialTable

Z = PolyZZbar.z()
ZBAR = PolyZZbar.zbar()


def int_poly(rng, max_degree, span=4):
    """Random sparse polynomial with small Gaussian-integer coefficients."""
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            terms[(a, b)] = complex(
                int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1))
            )
    return PolyZZbar(terms)


def float_poly(rng, max_degree):
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            terms[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return PolyZZbar(terms)


class TestCanonicalForm:
    def test_zero_coefficients_are_dropped(self):
        p = PolyZZbar({(1, 0): 1.0, (0, 1): 0.0})
        assert (0, 1) not in p.terms
        assert p == Z

    def test_subtraction_cancels_to_empty_map(self):
        diff = Z - Z
        assert not diff.terms
        assert diff == PolyZZbar.zero()

    def test_degree_of_zero_is_minus_one(self):
        assert PolyZZbar.zero().degree == -1
        assert (Z - Z).degree == -1

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            PolyZZbar({(-1, 0): 1.0})

    def test_sum_keeps_signed_zeros_of_unmatched_terms(self):
        # -(0.5 + 0j) is -0.5 - 0j.  A term only the left operand has is kept
        # as is; one only the right operand has is added to 0j, as term-by-term
        # accumulation does.
        minus_half = -PolyZZbar.constant(0.5)
        assert np.signbit((minus_half + Z).coeff(0, 0).imag)
        assert not np.signbit((Z + minus_half).coeff(0, 0).imag)
        assert not np.signbit((-(Z * ZBAR)).conjugate().coeff(1, 1).imag)
        assert '"im":-0.0' in (minus_half + Z).to_json()

    def test_truthiness(self):
        assert not PolyZZbar.zero()
        assert Z


class TestRingAxioms:
    def test_add_examples(self):
        assert Z + ZBAR == PolyZZbar({(1, 0): 1.0, (0, 1): 1.0})
        p = PolyZZbar({(2, 1): 3.0 - 1.0j})
        assert p + PolyZZbar.zero() == p

    def test_mul_examples(self):
        assert Z * ZBAR == PolyZZbar({(1, 1): 1.0})
        assert (Z + 1) * (Z - 1) == PolyZZbar({(2, 0): 1.0, (0, 0): -1.0})

    def test_basis_product(self):
        # J[1,0] * J[0,1] = (z/sqrt(2)) * (zbar/sqrt(2)) = z*zbar/2
        prod = complex_hermite(1, 0) * complex_hermite(0, 1)
        assert (prod - PolyZZbar({(1, 1): 0.5})).max_abs_coeff() <= 1e-15

    def test_associativity_and_distributivity_exact(self):
        rng = np.random.default_rng(711)
        for _ in range(20):
            p = int_poly(rng, 4)
            q = int_poly(rng, 4)
            r = int_poly(rng, 4)
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    def test_degree_of_product_adds(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int_poly(rng, 3) + PolyZZbar.monomial(3, 0, 1.0)
            q = int_poly(rng, 2) + PolyZZbar.monomial(0, 2, 1.0)
            assert (p * q).degree == p.degree + q.degree

    def test_pow_matches_repeated_product(self):
        rng = np.random.default_rng(5)
        p = int_poly(rng, 2)
        assert p**0 == PolyZZbar.constant(1.0)
        assert p**1 == p
        assert p**3 == p * p * p

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Z ** (-1)

    def test_scalar_operations(self):
        p = PolyZZbar({(1, 1): 4.0})
        assert p / 2 == PolyZZbar({(1, 1): 2.0})
        assert 2 * p == p * 2 == PolyZZbar({(1, 1): 8.0})
        assert 1 + Z == Z + 1
        assert (1 - Z) == -(Z - 1)


class TestWirtingerCalculus:
    def test_dz_examples(self):
        assert PolyZZbar({(2, 1): 1.0}).wirtinger_dz() == PolyZZbar({(1, 1): 2.0})
        assert PolyZZbar({(0, 3): 1.0}).wirtinger_dz() == PolyZZbar.zero()
        # d/dz of (z*zbar - 2)/2 is zbar/2
        assert complex_hermite(1, 1).wirtinger_dz() == PolyZZbar({(0, 1): 0.5})

    def test_dzbar_examples(self):
        assert (Z * ZBAR).wirtinger_dzbar() == Z
        assert PolyZZbar({(2, 0): 1.0}).wirtinger_dzbar() == PolyZZbar.zero()
        assert complex_hermite(1, 1).wirtinger_dzbar() == PolyZZbar({(1, 0): 0.5})

    def test_derivatives_commute_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int_poly(rng, 8)
            assert (
                p.wirtinger_dz().wirtinger_dzbar() == p.wirtinger_dzbar().wirtinger_dz()
            )

    def test_leibniz_rule_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = int_poly(rng, 4)
            q = int_poly(rng, 4)
            lhs = (p * q).wirtinger_dz()
            assert lhs == p.wirtinger_dz() * q + p * q.wirtinger_dz()
            lhs = (p * q).wirtinger_dzbar()
            assert lhs == p.wirtinger_dzbar() * q + p * q.wirtinger_dzbar()


class TestConjugation:
    def test_examples(self):
        assert Z.conjugate() == ZBAR
        assert (1j * Z * ZBAR).conjugate() == -1j * Z * ZBAR

    def test_involution_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = float_poly(rng, 6)
            assert p.conjugate().conjugate() == p

    def test_eval_commutes_with_conjugation(self):
        rng = np.random.default_rng(19)
        p = float_poly(rng, 6)
        pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        lhs = p.conjugate().eval(pts)
        rhs = np.conjugate(p.eval(pts))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))


class TestEvaluation:
    def test_examples(self):
        assert (Z * ZBAR).eval(1 + 1j) == pytest.approx(2.0)
        assert complex_hermite(0, 0).eval(3.7 - 0.2j) == pytest.approx(1.0)
        assert complex_hermite(1, 1).eval(2.0 + 0j) == pytest.approx(1.0)

    def test_zero_polynomial_evaluates_to_zero(self):
        assert PolyZZbar.zero().eval(2 + 3j) == 0j
        out = PolyZZbar.zero().eval(np.ones(4, dtype=complex))
        assert out.shape == (4,) and not out.any()

    def test_scalar_result_is_python_complex(self):
        assert isinstance(Z.eval(1 + 2j), complex)

    def test_array_evaluation_matches_pointwise(self):
        rng = np.random.default_rng(23)
        p = float_poly(rng, 5)
        pts = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        vec = p.eval(pts)
        for k, w in enumerate(pts):
            assert vec[k] == pytest.approx(p.eval(complex(w)), rel=1e-12, abs=1e-12)


class TestOuterPolynomials:
    def test_slot_constructors(self):
        w0 = PolyWWbar.slot(0, 2)
        w1bar = PolyWWbar.slotbar(1, 2)
        assert (w0 * w1bar).terms == {(1, 0, 0, 1): 1 + 0j}

    def test_slot_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolyWWbar.slot(0, 1) + PolyWWbar.slot(0, 2)

    def test_formal_derivatives(self):
        f = PolyWWbar(1, {(2, 1): 1.0})
        assert f.dslot(0).terms == {(1, 1): 2 + 0j}
        assert f.dslotbar(0).terms == {(2, 0): 1 + 0j}

    def test_eval_conjugates_bar_slots(self):
        f = PolyWWbar.slot(0) * PolyWWbar.slotbar(0)  # |w|^2
        assert f.eval([1 + 2j]) == pytest.approx(5.0)


class TestComposition:
    def test_examples(self):
        w = PolyWWbar.slot(0)
        wbar = PolyWWbar.slotbar(0)
        assert compose(w * w, Z) == PolyZZbar({(2, 0): 1.0})
        assert compose(w * wbar, Z) == Z * ZBAR
        half = compose(w * wbar, complex_hermite(1, 0))
        assert (half - PolyZZbar({(1, 1): 0.5})).max_abs_coeff() <= 1e-15

    def test_polyzzbar_accepted_as_single_slot_outer(self):
        assert compose(Z * ZBAR, PolyZZbar({(2, 0): 1.0})) == PolyZZbar({(2, 2): 1.0})

    def test_eval_of_composition_matches_nested_eval(self):
        rng = np.random.default_rng(29)
        outer = PolyWWbar(
            2,
            {
                key: complex(rng.standard_normal(), rng.standard_normal())
                for key in [(1, 0, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1), (0, 0, 2, 1)]
            },
        )
        phi1 = float_poly(rng, 3)
        phi2 = float_poly(rng, 2)
        composed = compose(outer, [phi1, phi2])
        for w in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            direct = outer.eval([phi1.eval(complex(w)), phi2.eval(complex(w))])
            via = composed.eval(complex(w))
            assert abs(via - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_slot_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(PolyWWbar.slot(0, 2), Z)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(31)
        p = float_poly(rng, 6)
        assert PolyZZbar.from_json(p.to_json()) == p

    def test_json_is_sorted_and_byte_stable(self):
        p = PolyZZbar({(2, 0): 1.0, (0, 0): -2.0, (1, 1): 0.5j})
        obj = p.to_json_obj()
        assert [(t["a"], t["b"]) for t in obj] == [(0, 0), (1, 1), (2, 0)]
        assert p.to_json() == PolyZZbar(dict(reversed(p.items_sorted()))).to_json()
        assert json.loads(p.to_json()) == obj

    def test_json_fields(self):
        text = PolyZZbar({(1, 1): 0.5 - 0.25j}).to_json()
        assert json.loads(text) == [{"a": 1, "b": 1, "re": 0.5, "im": -0.25}]


def test_immutability():
    with pytest.raises(TypeError):
        Z.terms[(5, 5)] = 1.0  # type: ignore[index]


def test_repr_mentions_terms():
    assert "z^1" in repr(Z)
    assert repr(PolyZZbar.zero()) == "PolyZZbar(0)"


def test_prune_drops_small_terms_only():
    p = PolyZZbar({(1, 0): 1.0, (0, 1): 1e-14})
    assert p.prune(1e-12) == Z
    assert (1, 1) not in p.prune(0.0).terms


# -- property tests of the dense coefficient kernel ----------------------------

# Deterministic example generation and no example database, so every run of
# the suite checks the same cases and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

gaussian_ints = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))


def gaussian_polys(max_exponent=5, max_terms=10):
    """Sparse polynomials with Gaussian-integer coefficients: every sum and
    product of a few of them is exact in double precision."""
    keys = st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent))
    return st.dictionaries(keys, gaussian_ints, max_size=max_terms).map(PolyZZbar)


def naive_product(p, q):
    """The product as the double loop over both term maps (the oracle)."""
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0j) + c1 * c2
    return PolyZZbar(out)


def assert_canonical(p):
    """Trimmed, read-only storage that agrees with the term map."""
    c = p._c
    assert not c.flags.writeable
    if not p.terms:
        assert c.shape == (0, 0)
        return
    assert c.shape == (max(a for a, _ in p.terms) + 1, max(b for _, b in p.terms) + 1)
    assert all(c[a, b] == v for (a, b), v in p.terms.items())
    assert np.count_nonzero(c) == len(p.terms)


class TestKernelProperties:
    @PROPERTY
    @given(gaussian_polys(), gaussian_polys())
    def test_product_matches_double_loop(self, p, q):
        prod = p * q
        assert prod == naive_product(p, q)
        assert_canonical(prod)

    @PROPERTY
    @given(gaussian_polys(3), gaussian_polys(3), gaussian_polys(3))
    def test_ring_axioms(self, p, q, r):
        zero, one = PolyZZbar.zero(), PolyZZbar.constant(1)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p and p * zero == zero
        assert p + (-p) == zero
        for result in (p + q, p * q, -p, p * 2j):
            assert_canonical(result)

    @PROPERTY
    @given(gaussian_polys(), gaussian_polys())
    def test_leibniz_rule_both_derivatives(self, p, q):
        for d in (PolyZZbar.wirtinger_dz, PolyZZbar.wirtinger_dzbar):
            assert d(p * q) == d(p) * q + p * d(q)
            assert_canonical(d(p))

    @PROPERTY
    @given(
        gaussian_polys(),
        st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_conjugate_is_involution_and_conjugates_values(self, p, w):
        assert p.conjugate().conjugate() == p
        assert_canonical(p.conjugate())
        # Gaussian-integer coefficients and point: both sides are exact
        assert p.conjugate().eval(w) == p.eval(w).conjugate()

    @PROPERTY
    @given(
        gaussian_polys(),
        gaussian_polys(),
        st.integers(0, 3),
        st.builds(complex, st.integers(1, 5), st.integers(-5, 5)),
    )
    def test_exact_cancellation_trims(self, p, q, b, lead):
        diff = p - p
        assert diff == PolyZZbar.zero()
        assert diff.degree == -1 and not diff
        assert_canonical(diff)
        # q has a term above p's degree; subtracting it again must trim back
        q = q + PolyZZbar.monomial(p.degree + 1, b, lead)
        back = (p + q) - q
        assert back == p
        assert back.degree == p.degree
        assert_canonical(back)

    @PROPERTY
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300),
            max_size=12,
        ).map(PolyZZbar)
    )
    def test_json_roundtrip(self, p):
        text = p.to_json()
        assert PolyZZbar.from_json(text) == p
        assert [(t["a"], t["b"]) for t in json.loads(text)] == sorted(p.terms)

    @PROPERTY
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda k: sum(k) <= 12),
            st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
            max_size=40,
        ),
        st.integers(0, 12),
        st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
    )
    def test_degree_12_eval_matches_naive_sum(self, terms, a_top, w):
        p = PolyZZbar(terms) + PolyZZbar.monomial(a_top, 12 - a_top, 1.0 - 0.5j)
        assert p.degree == 12
        naive = sum(c * w**a * w.conjugate() ** b for (a, b), c in p.terms.items())
        scale = sum(abs(c) * abs(w) ** (a + b) for (a, b), c in p.terms.items())
        assert abs(p.eval(w) - naive) <= 1e-12 * scale

    @PROPERTY
    @given(st.data(), st.integers(1, 2))
    def test_shared_table_matches_separate_compositions(self, data, n_slots):
        keys = st.tuples(*[st.integers(0, 3)] * (2 * n_slots))
        outers = data.draw(
            st.lists(
                st.dictionaries(keys, gaussian_ints, max_size=6).map(
                    lambda terms: PolyWWbar(n_slots, terms)
                ),
                min_size=1,
                max_size=4,
            )
        )
        phis = data.draw(st.lists(gaussian_polys(2, 4), min_size=n_slots, max_size=n_slots))
        table = MonomialTable(phis)
        for outer in outers:
            shared = table.compose(outer)
            assert shared == compose(outer, phis)
            assert_canonical(shared)

    @PROPERTY
    @given(st.data(), st.integers(1, 2))
    def test_composition_keeps_signed_zeros_of_term_by_term_sum(self, data, n_slots):
        keys = st.tuples(*[st.integers(0, 3)] * (2 * n_slots))
        outer = data.draw(
            st.dictionaries(keys, gaussian_ints, max_size=6).map(
                lambda terms: PolyWWbar(n_slots, terms)
            )
        )
        phis = data.draw(st.lists(gaussian_polys(2, 4), min_size=n_slots, max_size=n_slots))
        table = MonomialTable(phis)
        reference = PolyZZbar.zero()
        for key, c in outer.terms.items():
            reference = reference + table._monomial(key) * c
        got = table.compose(outer)
        assert got == reference
        for part in ("real", "imag"):
            assert np.array_equal(
                np.signbit(getattr(got._c, part)), np.signbit(getattr(reference._c, part))
            )


def gaussian_outers(n_slots, max_exponent=3, max_terms=5):
    keys = st.tuples(*[st.integers(0, max_exponent)] * (2 * n_slots))
    return st.dictionaries(keys, gaussian_ints, max_size=max_terms).map(
        lambda terms: PolyWWbar(n_slots, terms)
    )


class TestOuterProperties:
    @PROPERTY
    @given(st.data(), st.integers(1, 2), st.integers(0, 5))
    def test_power_matches_repeated_product(self, data, n_slots, k):
        f = data.draw(gaussian_outers(n_slots, 2, 3))
        repeated = PolyWWbar.constant(1.0, n_slots)
        for _ in range(k):
            repeated = repeated * f
        assert f**k == repeated

    @PROPERTY
    @given(st.data(), st.integers(1, 3))
    def test_slot_derivatives_match_termwise_oracle(self, data, n_slots):
        f = data.draw(gaussian_outers(n_slots))
        i = data.draw(st.integers(0, n_slots - 1))
        for pos, got in ((2 * i, f.dslot(i)), (2 * i + 1, f.dslotbar(i))):
            want = {}
            for key, c in f.terms.items():
                if key[pos]:
                    lowered = key[:pos] + (key[pos] - 1,) + key[pos + 1 :]
                    want[lowered] = want.get(lowered, 0j) + key[pos] * c
            assert dict(got.terms) == {k: c for k, c in want.items() if c != 0}

    @PROPERTY
    @given(st.data(), st.integers(1, 2))
    def test_internal_results_hold_no_zero_terms(self, data, n_slots):
        f = data.draw(gaussian_outers(n_slots))
        g = data.draw(gaussian_outers(n_slots))
        for result in (f + g, f - g, f * g, f * 0, -f, f.dslot(0), f - f):
            assert all(c != 0 for c in result.terms.values())
            assert all(type(e) is int for key in result.terms for e in key)
        assert not (f - f).terms
