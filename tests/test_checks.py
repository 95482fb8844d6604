"""The random inputs of the verification suites: each generator draws its
coefficients as one block and must give what one scalar draw per part gives.
The orthonormality Gram matrix, summed over point blocks of the rule as two
upper triangles of tiles, is within rounding of one product and holds its
triangles plus one block's grid.
The suites' shared rules (the report verdict, the one NaN-safe fold of the
residuals, the (theta, t) grid, the exact-sampler runs, the seed range) and
the order in which run_all calls each suite through its module attribute."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

from complexou import checks, hermite, quadrature, sde
from complexou.poly import _BLOCK, _blocks, _worst
from complexou.quadrature import gauss_hermite_rule
from memtrace import MB, traced_peak


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
    report = checks.CheckReport.within("suite", [0.5], 1.0, {})
    assert report.to_json_obj() == {"name": "suite", "pass": True, "max_residual": 0.5, "tol": 1.0}
    # a suite's extra condition fails the report at any residual
    assert checks.CheckReport.within("suite", [0.0], 1.0, {}, ok=False).passed is False


def test_report_needs_a_tol_of_at_least_zero():
    # a negative or NaN tol is malformed input, not a verdict
    for tol in (-1.0, -5e-324, math.nan):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            checks.CheckReport.within("suite", [0.0], tol, {})
    for tol in (0.0, -0.0):
        assert checks.CheckReport.within("suite", [0.0], tol, {}).passed is True


@pytest.mark.parametrize("values, want", [
    ([], 0.0),
    ([0.25, 3.0, 1.5], 3.0),
    (iter([2.0, math.nan, 5.0]), math.nan),  # Python's max gives 5.0
    ((x for x in (1.0, 4.0, math.nan)), math.nan),  # Python's max gives 4.0
    ({"a": 0.5, "b": math.inf}.values(), math.inf),
])
def test_worst_folds_any_iterable_and_keeps_a_nan(values, want):
    got = _worst(values)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_report_of_a_nan_residual_fails():
    report = checks.CheckReport.within("suite", [0.5, math.nan, 0.25], 1.0, {})
    assert report.passed is False and math.isnan(report.max_residual)


def test_report_of_no_residual_raises_with_the_suite_name():
    with pytest.raises(ValueError, match="gamma-invariance"):
        checks.CheckReport.within("gamma-invariance", iter(()), 1.0, {})


# each suite with inputs that leave it no residual; the roundtrip's empty
# basis already fails the basis limit check
NOTHING_TO_CHECK = [
    (checks.check_eigenrelation, {"max_degree": -1}),
    (checks.check_transform, {"max_degree": -1}),
    (checks.check_roundtrip, {"max_degree": -1}),
    (checks.check_adjoint, {"n_pairs": 0}),
    (checks.check_chain_rule, {"n_cases": 0}),
    (checks.check_sde_moments, {"ts": (), "n_paths": 3}),
    (checks.check_invariance, {"thetas": ()}),
]


@pytest.mark.parametrize("suite, kwargs", NOTHING_TO_CHECK,
                         ids=[suite.__name__ for suite, _ in NOTHING_TO_CHECK])
def test_a_suite_that_checks_nothing_raises(suite, kwargs):
    with pytest.raises(ValueError):
        suite(**kwargs)


@pytest.mark.parametrize("suite", [checks.check_orthonormality, checks.check_roundtrip])
@pytest.mark.parametrize("max_degree", [hermite.MAX_TOTAL_DEGREE + 1, 140])
def test_basis_limit_is_checked_before_any_allocation(suite, max_degree):
    # one message, from hermite._check_degrees, before the Gram tiles (over
    # 100 MB at degree 140) or any projection exist
    def call():
        with pytest.raises(ValueError, match=rf"m \+ n <= 64, got \(0, {max_degree}\)"):
            suite(max_degree=max_degree)

    assert traced_peak(call) < MB


def tiled_gram(max_degree, rule):
    """herm = conj(V w) @ V^T and sym = (V w) @ V^T on the basis rows V with
    m >= n, summed over equal point blocks of at most max(64, poly._BLOCK //
    basis size) points, one product per pair a <= b of the equal row tiles
    of at most isqrt(poly._BLOCK) rows: (tiles, herm, sym)."""
    pts, wts = rule.tensor_points()
    indices = hermite.basis_indices(max_degree)
    half = [i for i, (m, n) in enumerate(indices) if m >= n]
    tiles = [half[lo:hi] for lo, hi in _blocks(len(half), math.isqrt(_BLOCK))]
    herm, sym = {}, {}
    for a, b in itertools.combinations_with_replacement(range(len(tiles)), 2):
        herm[a, b] = np.zeros((len(tiles[a]), len(tiles[b])), dtype=complex)
        sym[a, b] = np.zeros((len(tiles[a]), len(tiles[b])), dtype=complex)
    for lo, hi in _blocks(pts.size, max(64, _BLOCK // len(indices))):
        vals = hermite.basis_values(max_degree, pts[lo:hi])
        for a, b in herm:
            weighted = vals[tiles[a]] * wts[lo:hi]
            herm[a, b] += np.conjugate(weighted) @ vals[tiles[b]].T
            sym[a, b] += weighted @ vals[tiles[b]].T
    return tiles, herm, sym


def radial_rows(max_degree, tile):
    """Which rows of a tile have m = n."""
    indices = hermite.basis_indices(max_degree)
    return np.array([indices[i][0] == indices[i][1] for i in tile])


def tiled_residual(max_degree, rule):
    """The worst |herm - I| and the worst |sym| off the entries between two
    rows with m = n, over every tile pair of :func:`tiled_gram`."""
    tiles, herm, sym = tiled_gram(max_degree, rule)
    worst = []
    for (a, b), block in herm.items():
        worst.append(np.max(np.abs(block - np.equal.outer(tiles[a], tiles[b]))))
        both = np.logical_and.outer(
            radial_rows(max_degree, tiles[a]), radial_rows(max_degree, tiles[b])
        )
        worst.append(np.max(np.abs(sym[a, b][~both]), initial=0.0))
    return _worst(worst)


def full_gram(max_degree, tiles, herm, sym):
    """G = (J w) @ conj(J)^T rebuilt from the two upper triangles.  Row p of
    J is row q of V when p has m >= n and its conjugate when p has m < n (q
    is then its partner's), so G[p, p'] is conj(herm[q, q']), sym[q, q'],
    conj(sym[q, q']) or herm[q, q'] as (p, p') has (m >= n, m >= n),
    (m >= n, m < n), (m < n, m >= n) or (m < n, m < n)."""
    indices = hermite.basis_indices(max_degree)
    pos = {mn: i for i, mn in enumerate(indices)}
    half = [i for tile in tiles for i in tile]
    ends = np.cumsum([0] + [len(tile) for tile in tiles])
    whole_herm = np.empty((len(half), len(half)), dtype=complex)
    whole_sym = np.empty((len(half), len(half)), dtype=complex)
    for (a, b), block in herm.items():
        rows, cols = slice(ends[a], ends[a + 1]), slice(ends[b], ends[b + 1])
        whole_herm[rows, cols], whole_herm[cols, rows] = block, np.conjugate(block).T
        whole_sym[rows, cols], whole_sym[cols, rows] = sym[a, b], sym[a, b].T
    q = [half.index(pos[max(m, n), min(m, n)]) for m, n in indices]
    flip = np.array([m < n for m, n in indices])
    g = np.where(np.equal.outer(flip, flip), whole_herm[np.ix_(q, q)], whole_sym[np.ix_(q, q)])
    return np.where(flip[None, :], g, np.conjugate(g))


# basis sizes 1, 3 and 6 (one point block), 136 to 561 on 289 to 1156
# points (3 to 19 blocks of 60 to 96 points; 1 to 3 row tiles, 36 to 289
# rows with m >= n), and the order-128 rule (16384 points: 7 blocks of 2340
# at size 6, 154 of 106 or 107 at size 153)
GRAM_CASES = [
    (0, 2), (1, 3), (2, 4), (15, 17), (16, 18), (23, 25), (31, 33), (32, 34), (2, 128), (16, 128),
]


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


class TestGramResidual:
    @pytest.mark.parametrize("max_degree, order", GRAM_CASES)
    def test_bit_for_bit_with_point_blocks(self, max_degree, order):
        rule = gauss_hermite_rule(order)
        tiles, herm, sym, mirror = quadrature._gram_tiles(max_degree, rule)
        want_tiles, want_herm, want_sym = tiled_gram(max_degree, rule)
        assert tiles == want_tiles
        assert list(herm) == list(want_herm) and list(sym) == list(want_sym)
        for ab in want_herm:
            assert herm[ab].tobytes() == want_herm[ab].tobytes()
            assert sym[ab].tobytes() == want_sym[ab].tobytes()
        assert mirror == 0.0  # the rows with m < n are their partners' conjugates
        resid, size = quadrature._gram_residual(max_degree, rule)
        assert size == (max_degree + 1) * (max_degree + 2) // 2
        assert resid.hex() == tiled_residual(max_degree, rule).hex()

    @pytest.mark.parametrize("max_degree, order", GRAM_CASES)
    def test_every_entry_within_rounding_of_one_product(self, max_degree, order):
        # each of the two is a complex inner product of N weighted terms, so it
        # is within gamma_{N+3} sum_p w_p |J_i||J_j| of the exact sum whatever
        # the order of its additions (Higham, 2nd ed., 2002, sections 3.1 and 3.6)
        rule = gauss_hermite_rule(order)
        pts, wts = rule.tensor_points()
        vals = hermite.basis_values(max_degree, pts)
        one = (vals * wts) @ np.conjugate(vals).T
        got = full_gram(max_degree, *quadrature._gram_tiles(max_degree, rule)[:3])
        bound = 2.0 * gamma(pts.size + 3) * ((np.abs(vals) * wts) @ np.abs(vals).T)
        assert np.all(np.abs(got - one) <= bound)

    @pytest.mark.parametrize("order", [6, 12, 128])
    def test_quadrature_gram_block(self, order):
        got = checks.check_quadrature(order).details["gram_deg4"]
        assert got.hex() == tiled_residual(4, gauss_hermite_rule(order)).hex()

    @pytest.mark.parametrize("mutant", ["scaled", "unconjugated"])
    def test_a_broken_conjugate_row_fails(self, monkeypatch, mutant):
        # the kernel reads a row with m < n only against its partner's
        # conjugate (mirror); its Gram entries are taken from the partner's
        indices = hermite.basis_indices(10)
        row, partner = indices.index((3, 6)), indices.index((6, 3))
        basis_values = hermite.basis_values
        rule = gauss_hermite_rule(12)
        _, herm, sym, _ = quadrature._gram_tiles(10, rule)

        def broken(max_total, pts):
            vals = basis_values(max_total, pts)
            if mutant == "scaled":
                vals[row] *= 1.0 + 1e-6
            else:
                vals[row] = vals[partner]
            return vals

        assert checks.check_orthonormality(10, order=12).passed
        monkeypatch.setattr(hermite, "basis_values", broken)
        report = checks.check_orthonormality(10, order=12)
        assert report.passed is False and report.max_residual > 1e-7
        _, broken_herm, broken_sym, mirror = quadrature._gram_tiles(10, rule)
        assert report.max_residual == mirror
        assert all(broken_herm[ab].tobytes() == herm[ab].tobytes() for ab in herm)
        assert all(broken_sym[ab].tobytes() == sym[ab].tobytes() for ab in sym)

    @pytest.mark.parametrize("max_degree", [1, 2, 7])
    def test_mirror_reads_every_row_off_the_diagonal(self, max_degree):
        # each row with m != n moved alone moves the mirror defect; a row
        # with m = n has no partner and moves nothing
        vals = hermite.basis_values(max_degree, checks.random_points(np.random.default_rng(5), 9))
        assert hermite._mirror_defect(max_degree, vals) == 0.0
        for row, (m, n) in enumerate(hermite.basis_indices(max_degree)):
            moved = vals.copy()
            moved[row] *= 1.0 + 1e-6
            assert (hermite._mirror_defect(max_degree, moved) > 0.0) == (m != n)

    def test_a_scaled_row_with_m_at_least_n_fails(self, monkeypatch):
        # a row with m >= n is read by both triangles: scaled by 1 + 1e-6 its
        # diagonal entry of herm moves by 2e-6
        indices = hermite.basis_indices(10)
        row = indices.index((6, 3))
        basis_values = hermite.basis_values

        def broken(max_total, pts):
            vals = basis_values(max_total, pts)
            vals[row] *= 1.0 + 1e-6
            return vals

        monkeypatch.setattr(hermite, "basis_values", broken)
        report = checks.check_orthonormality(10, order=12)
        assert report.passed is False and report.max_residual > 1e-7
        tiles, herm, _, _ = quadrature._gram_tiles(10, gauss_hermite_rule(12))
        at = tiles[0].index(row)  # 36 rows with m >= n: one tile
        assert abs(herm[0, 0][at, at] - 1.0) > 1.9e-6

    def test_sym_entries_between_two_rows_with_m_equal_n_never_enter(self, monkeypatch):
        # they repeat herm's, since the J[n,n] are real on the grid, but with
        # no identity subtracted: about 1 on the diagonal
        rule = gauss_hermite_rule(25)
        want, _ = quadrature._gram_residual(23, rule)
        gram_tiles = quadrature._gram_tiles

        def overwritten(masked):
            def tiles_with(max_degree, rule):
                tiles, herm, sym, mirror = gram_tiles(max_degree, rule)
                for (a, b), block in sym.items():
                    both = np.logical_and.outer(
                        radial_rows(max_degree, tiles[a]), radial_rows(max_degree, tiles[b])
                    )
                    if masked:
                        assert a != b or np.max(np.abs(block[both])) > 0.9
                        block[both] = math.nan
                    else:
                        block[~both] = 0.5
                return tiles, herm, sym, mirror
            return tiles_with

        monkeypatch.setattr(quadrature, "_gram_tiles", overwritten(True))
        assert quadrature._gram_residual(23, rule)[0].hex() == want.hex()
        monkeypatch.setattr(quadrature, "_gram_tiles", overwritten(False))
        assert quadrature._gram_residual(23, rule)[0] == 0.5

    def test_orthonormality_holds_its_gram_rows_and_one_point_block(self):
        # 561 basis rows (289 with m >= n, in 3 tiles) on 34^2 points in
        # 64-point blocks; both triangles are 6 of 9 tile pairs, 1.8 MB
        # against 2.6 MB for those rows against every column
        checks.check_orthonormality(32, order=34)  # warm
        tiles = [hi - lo for lo, hi in _blocks(289, math.isqrt(_BLOCK))]
        pairs = itertools.combinations_with_replacement(tiles, 2)
        triangles = 2 * 16 * sum(a * b for a, b in pairs)
        block = 16 * 561 * 64  # one block's grid; the tiles gathered from it are half of one
        peak = traced_peak(lambda: checks.check_orthonormality(32, order=34))
        assert peak <= triangles + 2 * block + MB // 2


def test_generator_suites_match_their_per_angle_loops():
    # both suites form the theta-free terms of each polynomial once and
    # combine them per angle; these are their loops over whole generators
    resids = []
    for params in map(checks.GeneratorParams, checks.THETA_SIX):
        for m, n in hermite.basis_indices(12):
            j = hermite.complex_hermite(m, n)
            target = j * checks.eigenvalue(params, m, n)
            resid = (checks.apply_generator_wirtinger(params, j) - target).max_abs_coeff()
            resids.append(resid / max(1.0, target.max_abs_coeff()))
    assert checks.check_eigenrelation(12).max_residual.hex() == _worst(resids).hex()

    rng = np.random.default_rng(checks.DEFAULT_SEED)
    resids = []
    for params in map(checks.GeneratorParams, checks.THETA_WIDE):
        adj = checks.adjoint_params(params)
        for _ in range(5):
            phi = checks.random_poly(rng, 6)
            a = checks.apply_generator_wirtinger(params, checks.apply_generator_wirtinger(adj, phi))
            b = checks.apply_generator_wirtinger(adj, checks.apply_generator_wirtinger(params, phi))
            resids.append((a - b).max_abs_coeff() / (1.0 + a.max_abs_coeff()))
    assert checks.check_operator_normality().max_residual.hex() == _worst(resids).hex()


def test_propagators_are_theta_major():
    thetas, ts = (0.0, math.pi / 4, -0.3), (0.1, 2.0)
    got = [(p.params.theta, p.t) for p in checks._propagators(thetas, ts)]
    assert got == [(theta, t) for theta in thetas for t in ts]


class TestExactRuns:
    THETAS = (0.0, math.pi / 4, -math.pi / 6)

    def test_grid_and_seeds(self):
        runs = checks._exact_runs(self.THETAS, (0.5, 2.0), 1 + 0.5j, 7, 41)
        assert [c.params.theta for c in runs] == list(self.THETAS)
        assert all(c.t_grid == (0.0, 0.5, 2.0) for c in runs)
        assert all(c.x0 == 1 + 0.5j and c.n_paths == 7 for c in runs)
        assert [c.seed for c in runs] == [41, 42, 43]

    @pytest.mark.parametrize("seed, want", [
        (2**64 - 3, [2**64 - 3, 2**64 - 2, 2**64 - 1]),
        (2**64 - 2, [2**64 - 2, 2**64 - 1, 0]),
        (2**64 - 1, [2**64 - 1, 0, 1]),
    ])
    def test_seeds_wrap_at_the_top_of_the_range(self, seed, want):
        runs = checks._exact_runs(self.THETAS, (1.0,), 0j, 3, seed)
        assert [c.seed for c in runs] == want

    @pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**64 + 1, 1.5, True, False])
    def test_seed_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            checks._exact_runs(self.THETAS, (1.0,), 0j, 3, seed)
        with pytest.raises(ValueError, match="64-bit"):
            checks.check_sde_moments(n_paths=3, seed=seed)

    def test_sde_moments_needs_three_paths(self):
        with pytest.raises(ValueError, match="n_paths must be >= 3"):
            checks.check_sde_moments(n_paths=2)


SEEDED_SUITES = [
    name for name, fn in vars(checks).items()
    if name.startswith("check_") and "seed" in inspect.signature(fn).parameters
]


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, False])
@pytest.mark.parametrize("name", SEEDED_SUITES)
def test_every_seeded_suite_rejects_a_seed_out_of_range(name, seed):
    # np.random.default_rng alone would take 2**64 and word -1 and 1.5 its own
    # way; int(1.5) would silently run as seed 1, and a bool counts as an
    # integer, so True would run as seed 1
    assert len(SEEDED_SUITES) == 12
    with pytest.raises(ValueError, match="64-bit"):
        getattr(checks, name)(seed=seed)


# every suite in report order, with the keywords run_all passes it (seed=5,
# n_paths=250000)
RUN_ALL_CALLS = [
    ("check_quadrature", {}),
    ("check_orthonormality", {}),
    ("check_eigenrelation", {}),
    ("check_transform", {}),
    ("check_construction", {}),
    ("check_roundtrip", {}),
    ("check_operator_normality", {"seed": 5}),
    ("check_gamma", {"seed": 5}),
    ("check_chain_rule", {"seed": 5}),
    ("check_spectral_vs_mehler", {"seed": 5}),
    ("check_semigroup_normality", {"seed": 5}),
    ("check_adjoint", {"seed": 5}),
    ("check_invariance", {"seed": 5}),
    ("check_ergodicity", {"seed": 5}),
    ("check_rotation_invariance", {"seed": 5}),
    ("check_sde_moments", {"n_paths": 250000, "seed": 5}),
    ("check_stationarity", {"n_paths": 250000, "seed": 5}),
    ("check_sde_vs_mehler", {"n_paths": 100000, "seed": 5}),
]


def test_run_all_calls_each_suite_through_its_attribute(monkeypatch):
    # timers and tracers rebind these attributes, so run_all must look each
    # suite up on the module when it runs
    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return checks.CheckReport.within(name, [0.0], 1.0, {})
        return record

    suites = [name for name in vars(checks) if name.startswith("check_")]
    assert sorted(suites) == sorted(name for name, _ in RUN_ALL_CALLS)
    for name in suites:
        monkeypatch.setattr(checks, name, recorder(name))
    reports = checks.run_all(seed=5, n_paths=250000)
    assert calls == [(name, (), kwargs) for name, kwargs in RUN_ALL_CALLS]
    assert [r.name for r in reports] == [name for name, _ in RUN_ALL_CALLS]


# -- a NaN from one route fails its suite ----------------------------------------


def nan_times(fn):
    """fn with its result (a polynomial, an array or a number) times NaN."""
    return lambda *args, **kwargs: fn(*args, **kwargs) * math.nan


def nan_second(fn):
    """fn with the second of the sides it returns times NaN."""
    def sides(*args, **kwargs):
        first, second, *rest = fn(*args, **kwargs)
        return (first, second * math.nan, *rest)
    return sides


def nan_inverse(fn):
    """build_basis_transform with the inverse matrix times NaN."""
    def build(level):
        tr = fn(level)
        return dataclasses.replace(tr, inverse=tr.inverse * math.nan)
    return build


def nan_built(fn):
    """creation_ladder with each built polynomial times NaN."""
    return lambda max_total: ((m, n, built * math.nan) for m, n, built in fn(max_total))


def nan_rows(fn):
    """sde._rows with each recorded row times NaN."""
    return lambda *args, **kwargs: (z * math.nan for z in fn(*args, **kwargs))


# every suite at a small size, and the route a mutant turns to NaN: (suite,
# keywords, module, route, wrapper)
NAN_ROUTES = [
    ("check_quadrature", {"order": 10}, checks, "integrate_gamma", nan_times),
    ("check_orthonormality", {"max_degree": 3, "order": 5}, hermite, "basis_values", nan_times),
    ("check_eigenrelation", {"max_degree": 3}, checks, "combine_generator_terms", nan_times),
    ("check_transform", {"max_degree": 3}, hermite, "build_basis_transform", nan_inverse),
    ("check_construction", {"max_total": 4}, hermite, "creation_ladder", nan_built),
    ("check_roundtrip", {"max_degree": 3}, hermite, "synthesize", nan_times),
    ("check_operator_normality", {"max_degree": 3}, checks, "apply_generator_wirtinger",
     nan_times),
    ("check_gamma", {"n_pairs": 3, "max_degree": 2, "n_points": 20}, checks,
     "carre_du_champ_via_generator", nan_times),
    ("check_chain_rule", {"n_cases": 3}, checks, "chain_rule_sides", nan_second),
    ("check_spectral_vs_mehler", {"max_degree": 3, "n_points": 4, "ts": (1.0,)}, checks,
     "semigroup_mehler", nan_times),
    ("check_semigroup_normality", {"max_degree": 2, "ts": (1.0,), "n_points": 2}, checks,
     "normality_commutator", nan_second),
    ("check_adjoint", {"max_degree": 2, "ts": (1.0,), "n_pairs": 1}, checks,
     "semigroup_pairing", nan_times),
    ("check_invariance", {"max_degree": 3, "ts": (1.0,), "n_polys": 1}, checks,
     "invariance_residual", nan_times),
    ("check_ergodicity", {"max_degree": 3, "ts": (2.0,), "n_points": 1}, checks,
     "ergodic_limit_residual", nan_times),
    ("check_rotation_invariance", {"max_degree": 2, "ts": (1.0,), "n_polys": 1}, checks,
     "gaussian_rotation_residual", nan_times),
    ("check_sde_moments", {"n_paths": 50}, sde, "_rows", nan_rows),
    ("check_stationarity", {"n_paths": 50}, sde, "_rows", nan_rows),
    ("check_sde_vs_mehler", {"n_paths": 50, "max_degree": 2}, checks, "semigroup_mehler",
     nan_times),
]


def test_nan_routes_cover_every_suite():
    suites = [name for name in vars(checks) if name.startswith("check_")]
    assert sorted(suites) == sorted(name for name, *_ in NAN_ROUTES)


@pytest.mark.parametrize(
    "suite, kwargs, module, route, wrap", NAN_ROUTES, ids=[row[0] for row in NAN_ROUTES]
)
def test_a_nan_route_fails_its_suite(monkeypatch, suite, kwargs, module, route, wrap):
    # Python's max keeps the old value against a NaN, so a fold written with it
    # passed an all-NaN route with max_residual 0.0
    assert getattr(checks, suite)(**kwargs).passed  # unmutated, the small size passes
    monkeypatch.setattr(module, route, wrap(getattr(module, route)))
    report = getattr(checks, suite)(**kwargs)
    assert report.passed is False
    assert math.isnan(report.max_residual)


def test_quadrature_keeps_a_nan_in_its_last_entry(monkeypatch):
    # gram_deg4 is the last of the selftest's residuals; max(resids.values())
    # kept a NaN only when it came first
    monkeypatch.setattr(checks, "_gram_residual", lambda max_degree, rule: (math.nan, 15))
    report = checks.check_quadrature()
    assert list(report.details)[-1] == "gram_deg4"
    assert report.passed is False and math.isnan(report.max_residual)


def test_carre_du_champ_diagonal_nan_fails(monkeypatch):
    # min_diagonal_value is a minimum of values that may be positive: it has no
    # 0.0 floor, and a NaN reaches it rather than leaving it at inf
    carre_du_champ = checks.carre_du_champ

    def diagonal_nan(phi, psi):
        gamma = carre_du_champ(phi, psi)
        return gamma * math.nan if phi is psi else gamma

    report = checks.check_gamma(n_pairs=2, max_degree=2, n_points=20)
    assert report.details["min_diagonal_value"] > 0.0
    monkeypatch.setattr(checks, "carre_du_champ", diagonal_nan)
    report = checks.check_gamma(n_pairs=2, max_degree=2, n_points=20)
    assert math.isnan(report.details["min_diagonal_value"])
    assert math.isnan(report.details["max_diagonal_imag"])
    assert report.passed is False and report.max_residual <= report.tol
