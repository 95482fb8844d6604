"""The random inputs of the verification suites: each generator draws its
coefficients as one block and must give what one scalar draw per part gives."""

import itertools

import numpy as np
import pytest

from complexou import checks


def scalar_normals(rng, max_degree):
    return {
        (i, j): complex(rng.standard_normal(), rng.standard_normal())
        for i in range(max_degree + 1)
        for j in range(max_degree + 1 - i)
    }


def scalar_outer_terms(rng, n_slots, max_degree):
    terms = {}
    for key in itertools.product(range(max_degree + 1), repeat=2 * n_slots):
        if sum(key) <= max_degree:
            terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return terms


def same_draws(got, want, rng, ref_rng):
    """Same keys in the same order, bitwise equal values, same stream position."""
    assert list(got) == list(want)
    assert all(g.hex() == w.hex() for gv, wv in zip(got.values(), want.values())
               for g, w in ((gv.real, wv.real), (gv.imag, wv.imag)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("max_degree", range(9))
def test_random_poly_and_coeffs_match_scalar_draws(max_degree):
    rng, ref_rng = np.random.default_rng(max_degree), np.random.default_rng(max_degree)
    want = scalar_normals(ref_rng, max_degree)
    same_draws(checks._random_normals(rng, 2, max_degree), want, rng, ref_rng)
    for make in (checks.random_poly, checks.random_coeffs):
        rng, ref_rng = np.random.default_rng(max_degree), np.random.default_rng(max_degree)
        want = scalar_normals(ref_rng, max_degree)
        same_draws(dict(make(rng, max_degree).terms), want, rng, ref_rng)


@pytest.mark.parametrize("n_slots, max_degree", [(1, 0), (1, 5), (2, 3), (2, 6), (3, 4)])
def test_random_outer_matches_scalar_draws(n_slots, max_degree):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    want = scalar_outer_terms(ref_rng, n_slots, max_degree)
    got = checks.random_outer(rng, n_slots, max_degree)
    assert got.n_slots == n_slots
    same_draws(dict(got.terms), want, rng, ref_rng)


def test_report_requires_residual_and_tol():
    with pytest.raises(TypeError):
        checks.CheckReport("suite", True)
    report = checks.CheckReport.within("suite", 0.5, 1.0, {})
    assert report.to_json_obj() == {"name": "suite", "pass": True, "max_residual": 0.5, "tol": 1.0}
