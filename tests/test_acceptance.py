"""Acceptance gate: the eleven headline verification criteria at their stated
tolerances.  Each test prints one pass/fail summary line and enforces the
runtime budget where one applies; run standalone with
``python3 tests/test_acceptance.py`` or under pytest (add -s to see the lines).
"""

import time

from complexou import checks


def _report(number, label, reports, elapsed, limit=None):
    passed = all(r.passed for r in reports)
    worst = max(r.max_residual for r in reports)
    status = "PASS" if passed else "FAIL"
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(
        f"[{status}] criterion {number:2d}: {label} "
        f"(max residual {worst:.3e}, {elapsed:.2f}s{budget})"
    )
    assert passed, f"criterion {number} failed: {label}"
    if limit is not None:
        assert elapsed <= limit, f"criterion {number} took {elapsed:.2f}s (limit {limit:.0f}s)"


def test_criterion_01_orthonormality():
    start = time.perf_counter()
    rep = checks.check_orthonormality(max_degree=10, order=12)
    _report(1, "eigenbasis Gram matrix is the identity", [rep], time.perf_counter() - start, 10.0)


def test_criterion_02_eigenrelation():
    start = time.perf_counter()
    rep = checks.check_eigenrelation(max_degree=10, thetas=checks.THETA_SIX)
    _report(2, "generator eigenrelation over six angles", [rep], time.perf_counter() - start, 5.0)


def test_criterion_03_basis_transform():
    start = time.perf_counter()
    rep = checks.check_transform(max_degree=16)
    _report(3, "level transforms invert and are unitary", [rep], time.perf_counter() - start, 5.0)


def test_criterion_04_construction_cross_check():
    start = time.perf_counter()
    rep = checks.check_construction(max_total=12)
    _report(4, "creation route equals explicit formula", [rep], time.perf_counter() - start)


def test_criterion_05_spectral_vs_mehler():
    start = time.perf_counter()
    rep = checks.check_spectral_vs_mehler(
        max_degree=8, n_points=50, thetas=checks.THETA_WIDE, ts=checks.T_GRID
    )
    _report(5, "spectral and Mehler semigroup agree", [rep], time.perf_counter() - start, 30.0)


def test_criterion_06_semigroup_normality():
    start = time.perf_counter()
    rep = checks.check_semigroup_normality(
        max_degree=5, thetas=checks.THETA_WIDE, ts=checks.T_GRID
    )
    _report(6, "propagator commutes with its adjoint", [rep], time.perf_counter() - start, 60.0)


def test_criterion_07_adjoint_identity():
    start = time.perf_counter()
    rep = checks.check_adjoint(max_degree=6)
    _report(7, "pairing transfers to the flipped angle", [rep], time.perf_counter() - start)


def test_criterion_08_carre_du_champ():
    start = time.perf_counter()
    rep = checks.check_gamma(n_pairs=200, max_degree=6, n_points=1000)
    _report(8, "carre du champ routes agree and stay nonnegative", [rep], time.perf_counter() - start)
    assert rep.details["min_diagonal_value"] >= -1e-12


def test_criterion_09_diffusion_chain_rule():
    start = time.perf_counter()
    rep = checks.check_chain_rule(n_cases=100, max_degree_outer=3, max_degree_inner=3)
    _report(9, "second-order chain rule", [rep], time.perf_counter() - start)


def test_criterion_10_sde_statistics():
    start = time.perf_counter()
    moments = checks.check_sde_moments(n_paths=200000)
    stationary = checks.check_stationarity(n_paths=200000)
    elapsed = time.perf_counter() - start
    _report(10, "sampler moments and stationarity", [moments, stationary], elapsed, 60.0)
    assert moments.details["bit_reproducible"] is True


def test_criterion_11_invariance_and_ergodicity():
    start = time.perf_counter()
    invariance = checks.check_invariance(max_degree=8)
    ergodic = checks.check_ergodicity(ts=(2.0, 5.0, 10.0))
    _report(11, "invariant measure and ergodic envelope", [invariance, ergodic], time.perf_counter() - start)


if __name__ == "__main__":
    import sys

    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_criterion_")]
    failures = 0
    for fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"  -> {exc}")
    sys.exit(1 if failures else 0)
