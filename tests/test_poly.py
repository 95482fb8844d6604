"""Polynomial algebra over the formal pair (z, zbar): ring axioms, Wirtinger
calculus, conjugation, evaluation, composition, and JSON serialization.

Exact-identity tests draw Gaussian-integer coefficients so every sum and
product is representable without rounding; float-coefficient inputs are used
only where the contract is a tolerance.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexou import (
    PolyWWbar,
    PolyZZbar,
    SpectralCoeffs,
    complex_hermite,
    compose,
    gauss_hermite_rule,
    parse_poly,
)
from complexou import poly as poly_module
from complexou.cli import _json_text
from complexou.poly import MonomialTable, _trim, _wrap
from complexou.spectral import MAX_TOTAL_DEGREE

Z = PolyZZbar.z()
ZBAR = PolyZZbar.zbar()
ONE = PolyZZbar.constant(1.0)


def json_entries(p):
    """The ((a, b), coefficient) pairs, in order, of the JSON text the command
    line writes of p."""
    text = _json_text(p.to_json_obj())
    return [((t["a"], t["b"]), complex(t["re"], t["im"])) for t in json.loads(text)]


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
        # and non-integer ones: a float exponent was once truncated, so
        # {(1.5, 0): 1.0} read as z and monomial(2.7, 0) as z^2
        for key in [(-1, 0), (1.5, 0), (2.7, 0), (1.0, 0), (True, 0), (0, np.float64(1.0))]:
            with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
                PolyZZbar({key: 1.0})
            with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
                PolyZZbar.monomial(*key)

    def test_numpy_integer_exponents_accepted(self):
        p = PolyZZbar({(np.int64(2), np.uint8(1)): 1.0})
        assert p == PolyZZbar.monomial(np.int32(2), np.int64(1)) == PolyZZbar({(2, 1): 1.0})

    def test_sum_keeps_signed_zeros_of_unmatched_terms(self):
        # -(0.5 + 0j) is -0.5 - 0j.  A term only the left operand has is kept
        # as is; one only the right operand has is added to 0j, as term-by-term
        # accumulation does.
        minus_half = -PolyZZbar.constant(0.5)
        assert np.signbit((minus_half + Z).coeff(0, 0).imag)
        assert not np.signbit((Z + minus_half).coeff(0, 0).imag)
        assert not np.signbit((-(Z * ZBAR)).conjugate().coeff(1, 1).imag)
        assert '"im":-0.0' in _json_text((minus_half + Z).to_json_obj())

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
        assert (Z + ONE) * (Z - ONE) == PolyZZbar({(2, 0): 1.0, (0, 0): -1.0})

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
        # sums and differences are of two polynomials; a scalar enters one
        # as PolyZZbar.constant(s)
        for op in (lambda: 1 + Z, lambda: Z + 1, lambda: 1 - Z, lambda: Z - 1):
            with pytest.raises(TypeError):
                op()


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


class TestBlockedEvaluation:
    """More than _BLOCK points are evaluated block by block, with the
    bits of one sweep over all of them."""

    B = poly_module._BLOCK

    @staticmethod
    def polys():
        # dense rows, a sparse basis element, rows with a lone first entry
        p = float_poly(np.random.default_rng(31), 9)
        return [p, complex_hermite(7, 4), PolyZZbar({(3, 0): 2.0, (1, 2): -1j, (0, 0): 0.5})]

    @staticmethod
    def one_sweep(p, w, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(poly_module, "_BLOCK", np.iinfo(np.int64).max)
            return p.eval(w)

    @pytest.mark.parametrize("n_points", [B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_match_one_sweep(self, n_points, monkeypatch):
        rng = np.random.default_rng(n_points)
        w = 2.0 * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
        for p in self.polys():
            got, want = p.eval(w), self.one_sweep(p, w, monkeypatch)
            assert got.shape == want.shape == (n_points,)
            assert got.tobytes() == want.tobytes()

    def test_three_dimensional_points(self, monkeypatch):
        rng = np.random.default_rng(37)
        shape = (3, self.B // 2 + 5, 2)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for p in self.polys():
            got, want = p.eval(w), self.one_sweep(p, w, monkeypatch)
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()
            assert got.ravel().tobytes() == p.eval(w.ravel()).tobytes()

    def test_scalar(self, monkeypatch):
        for p in self.polys():
            got = p.eval(0.7 - 1.3j)
            assert type(got) is complex
            assert got == self.one_sweep(p, 0.7 - 1.3j, monkeypatch)


class TestBlocks:
    """The one block rule of every sweep: the fewest equal blocks of at most
    ``most`` items, in order."""

    MOST = 7

    @pytest.mark.parametrize("n", [0, 1, MOST, MOST + 1, 2 * MOST + 3])
    def test_fewest_equal_blocks_cover_the_range(self, n):
        blocks = poly_module._blocks(n, self.MOST)
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
        sizes = [hi - lo for lo, hi in blocks]
        assert len(blocks) == -(-n // self.MOST)
        assert all(0 < size <= self.MOST for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1


class TestOuterPolynomials:
    def test_slot_count_mismatch_rejected(self):
        w0 = PolyWWbar(2, {(1, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            PolyWWbar(1, {(1, 0): 1.0}) + w0
        with pytest.raises(ValueError, match="n_slots must be >= 1"):
            PolyWWbar(0)
        with pytest.raises(ValueError, match="wrong number of slot values"):
            w0.eval([1j])

    @pytest.mark.parametrize(
        "terms, bad",
        [
            ({(1, 0, 0): 1.0}, (1, 0, 0)),  # too long
            ({(0, 0): 1.0, (): 2.0}, ()),  # empty
            ({(1, -1): 2.0}, (1, -1)),  # negative
            ({(1, 2): 0.0, (3.0, 0): 1.0}, (3.0, 0)),  # float, named as given
            ({(True, 0): 1.0}, (True, 0)),  # bool
        ],
    )
    def test_bad_exponent_tuples_rejected(self, terms, bad):
        with pytest.raises(ValueError, match=rf"^bad exponent tuple {re.escape(str(bad))} for n_slots=1$"):
            PolyWWbar(1, terms)

    def test_constructor_converts_keys_and_drops_zeros(self):
        f = PolyWWbar(
            2, {(np.int64(1), 0, 2, 0): 3, (0, 0, 0, 0): 0.0, (0, 1, 0, 1): np.float64(1.5)}
        )
        assert dict(f.terms) == {(1, 0, 2, 0): 3 + 0j, (0, 1, 0, 1): 1.5 + 0j}
        assert all(type(e) is int for key in f.terms for e in key)
        assert all(type(c) is complex for c in f.terms.values())

    def test_formal_derivatives(self):
        f = PolyWWbar(1, {(2, 1): 1.0})
        assert f.dslot(0).terms == {(1, 1): 2 + 0j}
        assert f.dslotbar(0).terms == {(2, 0): 1 + 0j}

    def test_eval_conjugates_bar_slots(self):
        f = PolyWWbar(1, {(1, 1): 1.0})  # |w|^2
        assert f.eval([1 + 2j]) == pytest.approx(5.0)


class TestComposition:
    def test_examples(self):
        square = PolyWWbar(1, {(2, 0): 1.0})
        modulus_sq = PolyWWbar(1, {(1, 1): 1.0})
        assert compose(square, Z) == PolyZZbar({(2, 0): 1.0})
        assert compose(modulus_sq, Z) == Z * ZBAR
        assert compose(modulus_sq, PolyZZbar({(2, 0): 1.0})) == PolyZZbar({(2, 2): 1.0})
        half = compose(modulus_sq, complex_hermite(1, 0))
        assert (half - PolyZZbar({(1, 1): 0.5})).max_abs_coeff() <= 1e-15

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
            compose(PolyWWbar(2, {(1, 0, 0, 0): 1.0}), Z)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(31)
        p = float_poly(rng, 6)
        assert json_entries(p) == list(p.terms.items())

    def test_json_is_sorted_and_byte_stable(self):
        p = PolyZZbar({(2, 0): 1.0, (0, 0): -2.0, (1, 1): 0.5j})
        obj = p.to_json_obj()
        assert [(t["a"], t["b"]) for t in obj] == [(0, 0), (1, 1), (2, 0)]
        assert obj == PolyZZbar(dict(reversed(p.items_sorted()))).to_json_obj()
        assert json.loads(_json_text(obj)) == obj

    def test_json_fields(self):
        obj = PolyZZbar({(1, 1): 0.5 - 0.25j}).to_json_obj()
        assert obj == [{"a": 1, "b": 1, "re": 0.5, "im": -0.25}]

    # A polynomial's entries, keyed m, n in place of a, b, are a coefficient
    # file; its one reader, SpectralCoeffs.from_json_obj, refuses each of
    # these with the message of the rule it breaks.
    @pytest.mark.parametrize(
        "obj, message",
        [
            ([{"m": 1.7, "n": 0, "re": 1.0, "im": 0.0}], "m and n must be integers"),
            ([{"m": 1, "n": True, "re": 1.0, "im": 0.0}], "m and n must be integers"),
            ([{"m": 0, "n": -1, "re": 1.0, "im": 0.0}], "m and n must be integers"),
            (
                [{"m": MAX_TOTAL_DEGREE, "n": 1, "re": 1.0, "im": 0.0}],
                f"m \\+ n <= {MAX_TOTAL_DEGREE}",
            ),
            (
                [{"m": 1, "n": 0, "re": 1.0, "im": 0.0}, {"m": 1, "n": 0, "re": 2.0, "im": 0.0}],
                "more than once",
            ),
            ([{"m": 0, "n": 0, "re": "1.5", "im": 0.0}], "re must be a number, got '1.5'"),
        ],
        ids=[
            "float exponent", "bool exponent", "negative exponent", "degree above cap",
            "repeated pair", "string re",
        ],
    )
    def test_json_rejects_malformed_input(self, obj, message):
        with pytest.raises(ValueError, match=message):
            SpectralCoeffs.from_json_obj(obj)

    # the degree of Gamma(phi, psi) for two literals at the basis limit
    CAP = 2 * MAX_TOTAL_DEGREE

    def test_json_roundtrip_at_degree_cap(self):
        p = PolyZZbar({(self.CAP, 0): 1.5, (3, self.CAP - 3): -2j, (0, 0): 1.0})
        assert p.degree == self.CAP
        assert json_entries(p) == list(p.terms.items())


def test_immutability():
    with pytest.raises(TypeError):
        Z.terms[(5, 5)] = 1.0  # type: ignore[index]


def test_repr_mentions_terms():
    assert "z^1" in repr(Z)
    assert repr(PolyZZbar.zero()) == "PolyZZbar(0)"


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
        assert json_entries(p) == list(p.terms.items())
        assert [(t["a"], t["b"]) for t in p.to_json_obj()] == sorted(p.terms)

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


def full_horner(p, w):
    """PolyZZbar.eval as the full nested Horner loop: every row's inner loop
    starts from 0 and adds each coefficient up to the row's last nonzero one,
    and the accumulator starts from 0 (the reference for the seeded loop)."""
    c = p._c
    wv = np.asarray(w, dtype=complex)
    wbar = np.conjugate(wv)
    acc = np.zeros_like(wv)
    inner = np.empty_like(wv)
    for row in c[::-1]:
        n = np.flatnonzero(row).max() + 1 if row.any() else 0
        inner.fill(0)
        for coef in row[n - 1 :: -1] if n else ():
            inner *= wbar
            inner += coef
        acc *= wv
        acc += inner
    return acc


def kernel_eval_points():
    """Odd-order tensor grids (their nodes hold exact-zero parts), the
    points 0 and -0.0, and a few off-grid points."""
    grids = [gauss_hermite_rule(k).tensor_points()[0] for k in (5, 9)]
    extra = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1j, -2.5, 0.3 - 1.7j]
    return np.concatenate(grids + [np.array(extra)])


def termwise_outer_sum(f, ws):
    """sum c * prod_pos base[pos] ** key[pos] term by term, and its scale
    sum |c| * prod |base[pos]| ** key[pos]."""
    bases = [b for w in ws for b in (np.asarray(w, dtype=complex), np.conjugate(w))]
    total, scale = 0j, 0.0
    for key, c in f.terms.items():
        term, size = c, abs(c)
        for b, e in zip(bases, key):
            term = term * b**e
            size = size * np.abs(b) ** e
        total, scale = total + term, scale + size
    return total, scale


class TestPointwiseKernels:
    POINTS = kernel_eval_points()

    def assert_matches_full_horner(self, p):
        assert np.array_equal(p.eval(self.POINTS), full_horner(p, self.POINTS))
        for w in self.POINTS[-7:]:
            assert p.eval(complex(w)) == complex(full_horner(p, complex(w)))

    def test_dense_random_polynomials(self):
        rng = np.random.default_rng(17)
        for degree in range(9):
            self.assert_matches_full_horner(float_poly(rng, degree))
            self.assert_matches_full_horner(int_poly(rng, degree))

    def test_complex_hermite_basis(self):
        for m in range(11):
            for n in range(11 - m):
                self.assert_matches_full_horner(complex_hermite(m, n))

    @pytest.mark.parametrize("coef", [1.0, -2.5, 1j, -0.75j, 1 - 1j])
    def test_monomials(self, coef):
        for a in range(4):
            for b in range(4):
                self.assert_matches_full_horner(PolyZZbar.monomial(a, b, coef))
        # rows with a lone leading coefficient, zero rows and inner zeros
        self.assert_matches_full_horner(
            PolyZZbar({(4, 0): coef, (2, 0): 3.0, (2, 3): coef, (0, 0): -1.0})
        )

    @PROPERTY
    @given(
        st.data(),
        st.integers(1, 3),
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 6),
            st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
            max_size=12,
        ),
    )
    def test_outer_eval_matches_termwise_sum(self, data, n_slots, terms):
        f = PolyWWbar(n_slots, {key[: 2 * n_slots]: c for key, c in terms.items()})
        points = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
        ws = [np.array(data.draw(st.lists(points, min_size=4, max_size=4))) for _ in range(n_slots)]
        got = f.eval(ws)
        want, scale = termwise_outer_sum(f, ws)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        scalar = f.eval([complex(w[0]) for w in ws])
        assert isinstance(scalar, complex)
        assert abs(scalar - complex(np.ravel(want)[0])) <= 1e-13 * np.ravel(scale)[0]

    def test_outer_eval_return_shapes(self):
        ws = [np.ones(3), np.ones((2, 3))]
        constant = PolyWWbar.constant(2.5, 2).eval(ws)
        assert type(constant) is np.complex128 and np.shape(constant) == () and constant == 2.5
        assert PolyWWbar(2).eval(ws) == 0j
        assert PolyWWbar(2, {(1, 0, 0, 0): 1.0}).eval(ws).shape == (3,)
        assert PolyWWbar(2, {(1, 0, 0, 2): 1.0}).eval(ws).shape == (2, 3)
        assert type(PolyWWbar.constant(2.5, 2).eval([1, 2j])) is complex


# -- bit-for-bit oracles for the array kernel ----------------------------------
#
# The references below are the kernel as it was before subtraction was fused
# and the trimming tests were reordered: a difference added the negation,
# trimming scanned every nonzero entry, and each product operand was padded
# on its own.  The kernel must give the same bytes, signed zeros included.


def reference_trim(c):
    """c without trailing all-zero rows and columns, from one nonzero scan."""
    rows, cols = np.nonzero(c)
    if not rows.size:
        return np.zeros((0, 0), dtype=complex)
    return c[: rows.max() + 1, : cols.max() + 1]


def reference_on_nonzero(ufunc, c, *args):
    return ufunc(c, *args, out=np.zeros_like(c), where=c != 0)


def reference_sum(x, y):
    out = np.zeros((max(x.shape[0], y.shape[0]), max(x.shape[1], y.shape[1])), dtype=complex)
    out[: x.shape[0], : x.shape[1]] = x
    overlap = out[: y.shape[0], : y.shape[1]]
    np.add(overlap, y, out=overlap, where=y != 0)
    return reference_trim(out)


def reference_difference(p, q):
    """p + (-q): the sum with the negation built on q's nonzero entries."""
    return reference_sum(p._c, reference_on_nonzero(np.negative, q._c))


def reference_product(p, q):
    x, y = p._c, q._c
    if not x.size or not y.size:
        return np.zeros((0, 0), dtype=complex)
    rows, width = x.shape[0] + y.shape[0] - 1, x.shape[1] + y.shape[1] - 1

    def pad(c):
        out = np.zeros((c.shape[0], width), dtype=complex)
        out[:, : c.shape[1]] = c
        return out

    flat = np.convolve(pad(x).ravel(), pad(y).ravel())
    return reference_trim(flat[: rows * width].reshape(rows, width))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


# parts with signed zeros, so that the sign of a zero part is exercised
signed_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
signed_coeffs = st.builds(complex, signed_parts, signed_parts)


def signed_polys(max_exponent=4, max_terms=10):
    keys = st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent))
    return st.dictionaries(keys, signed_coeffs, max_size=max_terms).map(PolyZZbar)


def literal(p):
    """p's terms as a polynomial literal; a part with its sign bit set is
    written with a unary minus, so -0.0 reads back as -(0.0)."""

    def number(x):
        return f"-{-x!r}" if np.signbit(x) else repr(x)

    terms = [
        f"({number(c.real)} + {number(c.imag)}*i)*z^{a}*zbar^{b}"
        for (a, b), c in p.terms.items()
    ]
    return " + ".join(terms) or "0"


def corner_arrays():
    """Small complex arrays, mostly zero, so that corners, last rows and last
    columns are zero or nonzero in every combination.  Zero entries may carry
    negative zero parts, as unmasked kernel arithmetic (a derivative, a
    convolution) can leave them."""
    entries = st.sampled_from(
        [0j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
         1 + 0j, complex(-0.0, 2.0), complex(3.0, -0.0)]
    )
    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda shape: st.lists(
            entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda v: np.array(v, dtype=complex).reshape(shape))
    )


class TestKernelBits:
    @PROPERTY
    @given(signed_polys(), signed_polys(), signed_coeffs, corner_arrays(), corner_arrays())
    def test_difference_has_the_bits_of_adding_the_negation(self, p, q, s, a, b):
        # arrays with negative zero parts in their zero entries, which a
        # difference must skip as the sum skips them
        x, y = (_wrap(PolyZZbar, _trim(c.copy())) for c in (a, b))
        pairs = ((p, q), (q, p), (p, p), (p, p + q), (PolyZZbar.zero(), p), (p, p * q), (x, y), (y, x))
        for x, y in pairs:
            assert_same_bits((x - y)._c, reference_difference(x, y))
            # basis expansions of the same arrays take the same difference
            f, g = (_wrap(SpectralCoeffs, c._c) for c in (x, y))
            assert_same_bits((f - g)._c, (x - y)._c)
        assert_same_bits(
            (p - PolyZZbar.constant(s))._c, reference_sum(p._c, PolyZZbar.constant(-s)._c)
        )

    def test_difference_keeps_signed_zeros_of_adding_the_negation(self):
        p = PolyZZbar({(0, 0): complex(2.0, -0.0), (1, 0): complex(1.0, -0.0)})
        q = PolyZZbar({(0, 0): complex(1.0, -0.0), (2, 1): complex(-0.0, 1.0)})
        assert_same_bits((p - q)._c, reference_difference(p, q))
        assert_same_bits((q - p)._c, reference_difference(q, p))
        # a term q lacks is kept as is; -0 - (-0) and 0 - (-0) are +0 as
        # -0 + 0 and 0 + 0 are
        assert np.signbit((p - q).coeff(1, 0).imag)
        assert not np.signbit((p - q).coeff(0, 0).imag)
        assert not np.signbit((p - q).coeff(2, 1).real)

    @PROPERTY
    @given(corner_arrays())
    def test_trim_matches_nonzero_scan(self, c):
        assert_same_bits(_trim(c), reference_trim(c))

    def test_trim_of_dense_and_hollow_shapes(self):
        rng = np.random.default_rng(3)
        triangle = float_poly(rng, 5)._c.copy()  # zero [-1, -1], nonzero [-1, 0] and [0, -1]
        for c in (triangle, triangle[:, ::-1], triangle[::-1], triangle[1:], triangle[:, 1:]):
            assert_same_bits(_trim(c), reference_trim(c))
        hollow = np.zeros((4, 5), dtype=complex)
        hollow[1, 2] = 1.0
        assert_same_bits(_trim(hollow), reference_trim(hollow))
        hollow[3, 1] = 1j  # last row nonzero, last column zero
        assert_same_bits(_trim(hollow), reference_trim(hollow))
        hollow[3, 1], hollow[0, 4] = 0, 1j  # last column nonzero, last row zero
        assert_same_bits(_trim(hollow), reference_trim(hollow))

    @PROPERTY
    @given(signed_polys(), signed_polys(), st.sampled_from([1.0, 1e-160, 1e-200, 1e-310]))
    def test_products_match_separately_padded_convolution(self, p, q, scale):
        x, y = p * scale, q * scale
        assert_same_bits((x * y)._c, reference_product(x, y))
        assert_same_bits((p * q)._c, reference_product(p, q))

    def test_products_that_underflow_to_zero_are_trimmed(self):
        tiny = PolyZZbar({(3, 2): 1e-200, (1, 0): 1.0, (0, 3): 2.0})
        square = tiny * tiny  # the (6, 4) corner term is 1e-400, which is 0
        assert_same_bits(square._c, reference_product(tiny, tiny))
        assert square._c.shape == (5, 7)
        assert_canonical(square)
        assert not (PolyZZbar.monomial(2, 2, 1e-200) * PolyZZbar.monomial(1, 0, 1e-200))
        assert not PolyZZbar.monomial(1, 3, 1e-300) * 1e-300

    def test_scalar_products_round_as_the_masked_multiply(self):
        # with FMA, an unmasked multiply can round some entries differently
        # from the masked one (this pair differs in the last bit of the
        # imaginary part); on other hosts both agree and this passes trivially
        a, s = 1.4751594400271728 + 1.5252247559065715j, 1.3194491097538938 - 1.195960880042649j
        p = PolyZZbar.constant(a)
        assert_same_bits((p * s)._c, reference_on_nonzero(np.multiply, p._c, s))
        rng = np.random.default_rng(0)
        for _ in range(2000):
            shape = tuple(rng.integers(1, 20, size=2))
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            c[rng.random(shape) < 0.5] = 0
            s = complex(rng.standard_normal(), rng.standard_normal())
            p = PolyZZbar({(i, j): v for (i, j), v in np.ndenumerate(c)})
            want = reference_trim(reference_on_nonzero(np.multiply, p._c, s))
            assert_same_bits((p * s)._c, want)

    @PROPERTY
    @given(signed_polys(), signed_coeffs)
    def test_unary_ops_match_the_masked_reference(self, p, s):
        assert_same_bits((-p)._c, reference_on_nonzero(np.negative, p._c))
        # the literal's unary minus is the same negation
        text = literal(p)
        assert_same_bits(parse_poly(f"-({text})")._c, (-parse_poly(text))._c)
        assert_same_bits(p.conjugate()._c, reference_on_nonzero(np.conjugate, p._c.T))
        assert_same_bits((p * s)._c, reference_trim(reference_on_nonzero(np.multiply, p._c, s)))
        c = p._c
        assert_same_bits(p.wirtinger_dz()._c, reference_trim(c[1:] * np.arange(1, c.shape[0])[:, None]))
        assert_same_bits(p.wirtinger_dzbar()._c, reference_trim(c[:, 1:] * np.arange(1, c.shape[1])))
