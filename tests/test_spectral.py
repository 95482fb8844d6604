"""Basis-expansion coefficients on the dense array kernel: sums and scalings
against a dict oracle, canonical trimming, the JSON form, and the diagonal
operators applied through the lambda[m,n] grid.

Exact-identity properties draw Gaussian-integer coefficients, so every sum and
scaling is representable without rounding.
"""

import cmath
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexou import (
    GeneratorParams,
    PropagatorParams,
    SpectralCoeffs,
    apply_generator_spectral,
    eigenvalue,
    semigroup_spectral,
)
from complexou.cli import _json_text
from complexou.operator import THETA_BOUND
from complexou.spectral import MAX_TOTAL_DEGREE

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

gaussian_ints = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))
index_maps = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), gaussian_ints, max_size=12
)
THETAS = (0.0, 0.3, -0.3, math.pi / 4, -1.2, THETA_BOUND, -THETA_BOUND)


def nonzero(terms):
    return {k: complex(v) for k, v in terms.items() if v != 0}


def dict_sum(x, y, sign=1):
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0j) + sign * c
    return nonzero(out)


def assert_canonical(f):
    """Trimmed, read-only storage whose nonzero entries are the term map."""
    c = f._c
    assert not c.flags.writeable
    if not f.terms:
        assert c.shape == (0, 0)
        return
    assert c.shape == (max(m for m, _ in f.terms) + 1, max(n for _, n in f.terms) + 1)
    assert np.count_nonzero(c) == len(f.terms)
    assert all(c[m, n] == v for (m, n), v in f.terms.items())


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestDenseAlgebra:
    @PROPERTY
    @given(index_maps, index_maps)
    def test_sum_and_difference_match_dict_oracle(self, x, y):
        f, g = SpectralCoeffs(x), SpectralCoeffs(y)
        for got, want in ((f + g, dict_sum(x, y)), (f - g, dict_sum(x, y, -1))):
            assert dict(got.terms) == want
            assert_canonical(got)

    @PROPERTY
    @given(index_maps, gaussian_ints)
    def test_scaling_matches_dict_oracle(self, x, s):
        f = SpectralCoeffs(x)
        want = nonzero({k: v * s for k, v in x.items()})
        assert dict((f * s).terms) == want == dict((s * f).terms)
        assert_canonical(f * s)

    @PROPERTY
    @given(index_maps)
    def test_cancellation_trims_to_the_empty_array(self, x):
        f = SpectralCoeffs(x)
        assert_canonical(f)
        assert f - f == SpectralCoeffs() and not (f - f)
        assert (f - f)._c.shape == (0, 0)
        assert f * 0 == SpectralCoeffs()

    @PROPERTY
    @given(index_maps, index_maps)
    def test_equality_is_exact_and_by_value(self, x, y):
        assert (SpectralCoeffs(x) == SpectralCoeffs(y)) == (nonzero(x) == nonzero(y))

    @PROPERTY
    @given(index_maps, index_maps)
    def test_norms_match_the_term_map(self, x, y):
        f = SpectralCoeffs(x) + SpectralCoeffs(y)
        values = list(f.terms.values())
        assert f.norm_sq() == pytest.approx(sum(abs(c) ** 2 for c in values), rel=1e-15)
        # numpy's and Python's complex abs may differ in the last bit
        assert f.max_abs_coeff() == pytest.approx(max(map(abs, values), default=0.0), rel=1e-15)
        for (m, n), c in f.terms.items():
            assert f.coeff(m, n) == c
        assert f.coeff(7, 7) == 0j

    @PROPERTY
    @given(index_maps, st.one_of(st.none(), st.floats(-1.5, 1.5)))
    def test_json_round_trip_in_total_degree_order(self, x, theta):
        f = SpectralCoeffs(x)
        obj = json.loads(_json_text(f.to_json_obj(theta)))
        keys = [(t["m"], t["n"]) for t in obj["coeffs"]]
        assert keys == sorted(nonzero(x), key=lambda k: (k[0] + k[1], k[0]))
        back, back_theta = SpectralCoeffs.from_json_obj(obj)
        assert back == f and back_theta == theta
        # a bare list is the "coeffs" of a file without theta
        assert SpectralCoeffs.from_json_obj(obj["coeffs"]) == (f, None)

    def test_negative_indices_rejected(self):
        # and non-integer ones: a float index was once truncated, so
        # {(0.9, 1): 2.0} landed on (0, 1)
        for key in [(0, -1), (0.9, 1), (1, 1.0), (False, 1)]:
            with pytest.raises(ValueError, match="indices must be nonnegative integers"):
                SpectralCoeffs({key: 1.0})

    @pytest.mark.parametrize(
        "entry",
        [
            {"m": 1.7, "n": 0, "re": 1.0, "im": 0.0},
            {"m": True, "n": 0, "re": 1.0, "im": 0.0},
            {"m": 0, "n": -1, "re": 1.0, "im": 0.0},
            {"m": MAX_TOTAL_DEGREE, "n": 1, "re": 1.0, "im": 0.0},
            {"m": 0, "n": 0, "re": "1.5", "im": 0.0},
            {"m": 0, "n": 0, "re": 1.0, "im": False},
            {"m": 0, "n": 0, "re": 10**400, "im": 0.0},
            {"m": 0, "n": 0, "re": 1.0, "im": None},
            {"m": 0, "n": 0, "re": 1.0},
            3.0,
        ],
    )
    def test_json_rejects_malformed_entries(self, entry):
        with pytest.raises(ValueError):
            SpectralCoeffs.from_json_obj({"coeffs": [entry]})

    def test_json_rejects_repeated_entries_and_bad_theta(self):
        entry = {"m": 1, "n": 0, "re": 1.0, "im": 0.0}
        with pytest.raises(ValueError, match="more than once"):
            SpectralCoeffs.from_json_obj({"coeffs": [entry, dict(entry, re=2.0)]})
        for theta in ([1], "0.5", True):
            with pytest.raises(ValueError, match="theta"):
                SpectralCoeffs.from_json_obj({"theta": theta, "coeffs": [entry]})

    @pytest.mark.parametrize(
        "obj",
        [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}, {"coeffs": {"m": 0}}, {"theta": 0.0}, "[]", None],
        ids=["an entry", "coeffs not a list", "no coeffs", "a string", "null"],
    )
    def test_json_needs_a_coefficient_list(self, obj):
        with pytest.raises(ValueError, match='needs a "coeffs" list'):
            SpectralCoeffs.from_json_obj(obj)


class TestDiagonalGrid:
    @pytest.mark.parametrize("theta", THETAS)
    def test_grid_is_bitwise_the_scalar_eigenvalue(self, theta):
        params = GeneratorParams(theta)
        m, n = np.indices((MAX_TOTAL_DEGREE + 1, MAX_TOTAL_DEGREE + 1))
        grid = eigenvalue(params, m, n)
        assert grid.dtype == complex and grid.shape == m.shape
        for i in range(MAX_TOTAL_DEGREE + 1):
            for j in range(MAX_TOTAL_DEGREE + 1 - i):
                assert bits(complex(grid[i, j])) == bits(eigenvalue(params, i, j)), (i, j)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("t", (0.0, 1e-3, 0.7, 5.0))
    def test_semigroup_matches_per_term_exponential(self, theta, t):
        rng = np.random.default_rng(7)
        f = SpectralCoeffs(
            {
                (m, n): complex(rng.standard_normal(), rng.standard_normal())
                for m in range(13)
                for n in range(13 - m)
            }
        )
        params = GeneratorParams(theta)
        out = semigroup_spectral(PropagatorParams(params, t), f)
        assert set(out.terms) == set(f.terms)
        for (m, n), b in f.terms.items():
            factor = cmath.exp(eigenvalue(params, m, n) * t)
            assert abs(out.coeff(m, n) - factor * b) <= 1e-15 * abs(b) * abs(factor)

    @pytest.mark.parametrize("theta", THETAS)
    def test_generator_matches_per_term_eigenvalue(self, theta):
        rng = np.random.default_rng(11)
        f = SpectralCoeffs(
            {(m, 9 - m): complex(rng.standard_normal(), rng.standard_normal()) for m in range(10)}
        )
        params = GeneratorParams(theta)
        out = apply_generator_spectral(params, f)
        oracle = f.map_terms(lambda m, n, c: eigenvalue(params, m, n) * c)
        assert set(out.terms) == set(oracle.terms)
        for key, want in oracle.terms.items():
            assert abs(out.terms[key] - want) <= 1e-15 * abs(want)

    def test_zero_eigenvalue_drops_the_constant(self):
        out = apply_generator_spectral(GeneratorParams(0.2), SpectralCoeffs({(0, 0): 2.0}))
        assert out == SpectralCoeffs() and out._c.shape == (0, 0)
