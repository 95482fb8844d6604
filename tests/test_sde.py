"""Exact and Euler path simulation: bit-level reproducibility, transition
moments, Monte Carlo semigroup estimates against quadrature, stationarity of
the long-time law and its Kolmogorov-Smirnov statistic against scipy's, the
Euler sampler and the coupled halving probe against the Euler chain's
closed-form moment recursion (whose weak error against the exact law is
first order), the samplers against plain reference loops bit for bit (across
path blocks too), the time-major layout, the byte-level replay check of
``check_sde_moments``, and the memory the Monte Carlo layer holds, traced with
tracemalloc.
"""

import cmath
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from complexou import checks, sde
from complexou import (
    GeneratorParams,
    PolyZZbar,
    PropagatorParams,
    SimConfig,
    complex_hermite,
    estimate_pt,
    euler_halving_probe,
    gauss_hermite_rule,
    sample_euler,
    sample_exact,
    semigroup_mehler,
    stationarity_check,
)
from memtrace import MB, traced_peak

SEED = 42 * 10**9 + 7


class TestSimConfig:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.1, 1.0), 10, SEED)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0, 1.0), 10, SEED)
        # a NaN time is not above the one before it: refused at construction
        # for both schemes, not later by the sampler or by round()
        for kw in ({}, {"scheme": "euler", "dt": 0.5}):
            with pytest.raises(ValueError, match="t_grid must be strictly increasing"):
                SimConfig(GeneratorParams(0.3), 1.0, (0.0, math.nan, 1.0), 10, SEED, **kw)

    def test_euler_needs_compatible_dt(self):
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED, scheme="euler")
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED, scheme="euler", dt=0.3)
        cfg = SimConfig(GeneratorParams(0.0), 1.0, (0.0, 0.5, 1.0), 10, SEED, scheme="euler", dt=0.1)
        assert cfg.steps_per_gap() == [5, 5]

    def test_rejects_bad_scheme_paths_seed(self):
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED, scheme="milstein")
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 0, SEED)
        with pytest.raises(ValueError):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, -1)
        # a float seed is not truncated to an int
        with pytest.raises(ValueError, match="64-bit"):
            SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, 1.5)
        cfg = SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, np.uint64(2**64 - 1))
        assert int(cfg.seed) == 2**64 - 1

    def test_samplers_reject_the_other_scheme(self):
        exact = SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED)
        euler = dataclasses.replace(exact, scheme="euler", dt=0.5)
        with pytest.raises(ValueError, match="'exact'"):
            sample_exact(euler)
        with pytest.raises(ValueError, match="'euler'"):
            sample_euler(exact)

    def test_ensemble_shape_must_match_config(self):
        cfg = SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED)
        with pytest.raises(ValueError, match="shape"):
            sde.PathEnsemble(cfg, np.zeros((2, 10), dtype=complex))

    def test_steps_per_gap_exact_scheme_rejected(self):
        cfg = SimConfig(GeneratorParams(0.0), 1.0, (0.0, 1.0), 10, SEED)
        with pytest.raises(ValueError):
            cfg.steps_per_gap()


class TestExactSampler:
    def test_initial_state_recorded(self):
        cfg = SimConfig(GeneratorParams(0.5), 1.5 - 2j, (0.0, 0.3, 1.0), 100, SEED)
        ens = sample_exact(cfg)
        assert np.all(ens.states[:, 0] == 1.5 - 2j)

    def test_bit_reproducibility(self):
        cfg = SimConfig(GeneratorParams(math.pi / 6), 1j, (0.0, 0.5, 2.0), 5000, SEED)
        a = sample_exact(cfg).states
        b = sample_exact(cfg).states
        assert np.array_equal(a, b)
        other = SimConfig(GeneratorParams(math.pi / 6), 1j, (0.0, 0.5, 2.0), 5000, SEED + 1)
        assert not np.array_equal(a, sample_exact(other).states)

    def test_states_are_frozen(self):
        cfg = SimConfig(GeneratorParams(0.0), 0j, (0.0, 1.0), 10, SEED)
        ens = sample_exact(cfg)
        with pytest.raises(ValueError):
            ens.states[0, 0] = 1.0

    def test_transition_mean(self):
        theta, t, x0, n = math.pi / 4, 1.0, 2.0 - 1.0j, 200_000
        cfg = SimConfig(GeneratorParams(theta), x0, (0.0, t), n, SEED)
        z = sample_exact(cfg).states[:, 1]
        target = cmath.exp(-cmath.exp(1j * theta) * t) * x0
        se = math.sqrt(2.0 * (1.0 - math.exp(-2.0 * t * math.cos(theta))) / n)
        assert abs(complex(z.mean()) - target) <= 4.0 * se

    def test_transition_variance(self):
        theta, t, n = 0.3, 0.7, 200_000
        cfg = SimConfig(GeneratorParams(theta), 1.0 + 1.0j, (0.0, t), n, SEED + 2)
        z = sample_exact(cfg).states[:, 1]
        dev = np.abs(z - z.mean()) ** 2
        target = 2.0 * (1.0 - math.exp(-2.0 * t * math.cos(theta)))
        se = float(dev.std(ddof=1)) / math.sqrt(n)
        assert abs(float(dev.mean()) - target) <= 4.0 * se


def euler_moments(theta, x0, t, dt):
    """(E Z, E|Z|^2) of the Euler chain after t/dt steps, by its recursion:
    with a = 1 - e^{i theta} dt and noise sqrt(2 cos(theta) dt) W, E W = 0 and
    E|W|^2 = 2, so E Z_{k+1} = a E Z_k and m_{k+1} = |a|^2 m_k + 4 cos(theta) dt."""
    a = 1.0 - cmath.exp(1j * theta) * dt
    mean, second = complex(x0), abs(x0) ** 2
    for _ in range(round(t / dt)):
        mean = a * mean
        second = abs(a) ** 2 * second + 4.0 * math.cos(theta) * dt
    return mean, second


@pytest.fixture(scope="module")
def euler_run():
    """One 200000-path Euler ensemble at theta = pi/4, x0 = 1+0.5j, t = 1,
    dt = 4e-3, with the chain's own (E Z, E|Z|^2) from ``euler_moments``; the
    targets carry no discretisation bias, so each band holds one SE only."""
    theta, x0, t, dt = math.pi / 4, 1.0 + 0.5j, 1.0, 4e-3
    cfg = SimConfig(
        GeneratorParams(theta), x0, (0.0, t), 200_000, SEED + 4, scheme="euler", dt=dt
    )
    return sample_euler(cfg), euler_moments(theta, x0, t, dt)


class TestEulerSampler:
    def test_initial_state_and_reproducibility(self):
        cfg = SimConfig(
            GeneratorParams(0.4), 2.0, (0.0, 0.5), 2000, SEED, scheme="euler", dt=1e-2
        )
        a = sample_euler(cfg).states
        assert np.all(a[:, 0] == 2.0)
        assert np.array_equal(a, sample_euler(cfg).states)

    def test_mean_follows_the_drift_recursion(self, euler_run):
        # the noise has mean zero, so E[Z] steps as explicit Euler on the drift
        ens, (mean, _) = euler_run
        got, se = estimate_pt(ens, PolyZZbar.z(), 1)
        assert abs(got - mean) <= 4.0 * se


class TestEstimatePt:
    def test_constant(self):
        cfg = SimConfig(GeneratorParams(0.2), 1j, (0.0, 1.0), 500, SEED)
        mean, se = estimate_pt(sample_exact(cfg), PolyZZbar.constant(1.0), 1)
        assert mean == 1.0 + 0.0j
        assert se == 0.0

    def test_linear_mode(self):
        theta, t, x0, n = -0.6, 0.9, 0.5 - 1.5j, 100_000
        cfg = SimConfig(GeneratorParams(theta), x0, (0.0, t), n, SEED + 5)
        mean, se = estimate_pt(sample_exact(cfg), PolyZZbar.z(), 1)
        target = cmath.exp(-cmath.exp(1j * theta) * t) * x0
        assert abs(mean - target) <= 4.0 * se

    def test_radial_eigenfunction_decay(self):
        theta, t, x0, n = math.pi / 6, 0.8, 1.2 + 0.3j, 100_000
        cfg = SimConfig(GeneratorParams(theta), x0, (0.0, t), n, SEED + 6)
        j11 = complex_hermite(1, 1)
        mean, se = estimate_pt(sample_exact(cfg), j11, 1)
        target = math.exp(-2.0 * t * math.cos(theta)) * j11.eval(x0)
        assert abs(mean - target) <= 4.0 * se

    def test_matches_mehler_quadrature(self):
        rng = np.random.default_rng(211)
        rule = gauss_hermite_rule(8)
        terms = {
            (a, b): complex(rng.standard_normal(), rng.standard_normal())
            for a in range(3)
            for b in range(3 - a)
        }
        phi = PolyZZbar(terms)
        x0 = 0.7 - 0.2j
        for k, (theta, t) in enumerate(((0.0, 0.5), (math.pi / 4, 1.5), (-1.0, 0.25))):
            cfg = SimConfig(GeneratorParams(theta), x0, (0.0, t), 100_000, SEED + 10 + k)
            mean, se = estimate_pt(sample_exact(cfg), phi, 1)
            ref = semigroup_mehler(PropagatorParams(GeneratorParams(theta), t), phi, x0, rule)
            assert abs(mean - ref) <= 4.0 * se


class TestMeanAndSe:
    """One estimator for real and complex samples: the mean and
    sqrt(var / n), var = sum |v - mean|^2 / (n - 1)."""

    SIZES = [1, 2, 3, 1000, 16385, 40001]  # one, two and three path blocks

    @pytest.mark.parametrize("n", SIZES)
    def test_real_samples_match_sample_std_within_one_ulp(self, n):
        vals = np.random.default_rng(SEED + n).standard_normal(n) ** 2
        mean, se = sde._mean_and_se(vals)
        assert type(mean) is float and mean == float(vals.mean())
        want = float(vals.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        assert abs(se - want) <= math.ulp(want)

    @pytest.mark.parametrize("n", SIZES)
    def test_complex_samples_keep_their_bits(self, n):
        rng = np.random.default_rng(SEED + n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mean = complex(vals.mean())
        var = float(np.sum(np.abs(vals - mean) ** 2)) / (n - 1) if n > 1 else 0.0
        got = sde._mean_and_se(vals)
        assert type(got[0]) is complex
        assert repr(got) == repr((mean, math.sqrt(var / n)))


class TestStationarity:
    def test_long_run_matches_gaussian(self):
        report = stationarity_check(GeneratorParams(0.3), 50_000, 16.0, SEED + 20)
        assert report.passed
        assert abs(report.mean) <= 4.0 * report.mean_se
        assert abs(report.second_moment) <= 4.0 * report.second_moment_se
        assert abs(report.abs_second_moment - 2.0) <= 4.0 * report.abs_second_moment_se
        assert report.ks_real <= report.ks_threshold
        assert report.ks_imag <= report.ks_threshold
        assert report.ks_threshold == pytest.approx(1.63 / math.sqrt(50_000))

    def test_insufficient_burn_in_rejected(self):
        with pytest.raises(ValueError):
            stationarity_check(GeneratorParams(0.0), 1000, 5.0, SEED)

    def test_burn_in_boundary_accepted(self):
        t_burn = 6.0 * math.log(10.0) / math.cos(0.5)
        report = stationarity_check(GeneratorParams(0.5), 2000, t_burn, SEED + 21)
        assert report.t_burn == pytest.approx(t_burn)

    @pytest.mark.parametrize("passing", [True, False])
    def test_passed_is_the_suites_verdict(self, monkeypatch, passing):
        # the report's own verdict, kept for one benchmark caller, agrees with
        # check_stationarity's on the same run, on both sides of the tolerance
        theta, n_paths = math.pi / 4, 2000
        report = stationarity_check(GeneratorParams(theta), n_paths, None, SEED)
        assert report.max_ratio <= sde.STATIONARITY_TOL
        if not passing:
            monkeypatch.setattr(sde, "STATIONARITY_TOL", report.max_ratio / 2)
        suite = checks.check_stationarity(theta, n_paths, SEED)
        assert suite.max_residual == report.max_ratio
        assert report.passed is suite.passed is passing

    def test_max_ratio_keeps_a_nan_in_its_last_entry(self):
        # ks_imag is the last of the five ratios; Python's max drops a NaN there
        report = stationarity_check(GeneratorParams(0.3), 2000, 16.0, SEED + 20)
        assert report.passed
        bad = dataclasses.replace(report, ks_imag=math.nan)
        assert math.isnan(bad.max_ratio)
        assert bad.passed is False


class TestKsNormal:
    """sde._ks_normal is the two-sided statistic of scipy.stats.kstest against
    "norm", the reference the test extra installs."""

    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(SEED + 22)
        # N(0,1) samples, where D is small, and shifted or scaled ones, where
        # it is large, at sizes spread evenly in log from 2 to 200000
        shapes = [(0.0, 1.0), (0.5, 1.0), (0.0, 2.0), (-3.0, 0.5)]
        sizes = np.geomspace(2, 200_000, 200).round().astype(int)
        worst = 0.0
        for i, n in enumerate(sizes):
            loc, scale = shapes[i % len(shapes)]
            x = loc + scale * rng.standard_normal(n)
            got = sde._ks_normal(x)
            assert type(got) is float
            worst = max(worst, abs(got - stats.kstest(x, "norm").statistic))
        assert sizes[0] == 2 and sizes[-1] == 200_000
        assert worst <= 1e-15

    def test_slices_match_one_sweep(self):
        # erfc is mapped slice by slice; the statistic is that of one sweep
        x = np.random.default_rng(SEED + 23).standard_normal(3 * sde._KS_SLICE + 1)
        xs = np.sort(x)
        n = xs.size
        cdf = 0.5 * np.fromiter(map(math.erfc, (-xs / math.sqrt(2.0)).tolist()), float, n)
        steps = np.arange(n + 1) / n
        assert sde._ks_normal(x) == float(
            max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
        )


class TestEulerWeakConvergence:
    def test_horizon_must_fit_coarse_grid(self):
        with pytest.raises(ValueError):
            euler_halving_probe(GeneratorParams(0.0), 1.0, 1.0, 3e-3, 100, SEED)

    def test_needs_two_paths_for_standard_errors(self):
        with pytest.raises(ValueError, match="n_paths must be >= 2 for standard errors, got 1"):
            euler_halving_probe(GeneratorParams(0.3), 1.0, 1.0, 0.25, 1, SEED)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, False])
    def test_seed_out_of_range_raises(self, seed):
        # the probe builds its own Philox generator, with no SimConfig to check
        with pytest.raises(ValueError, match="64-bit"):
            euler_halving_probe(GeneratorParams(0.3), 1.0, 1.0, 0.25, 2, seed)


class TestEulerRecursion:
    THETA, X0, T = math.pi / 4, 1.0 + 0.5j, 1.0

    def test_halving_probe_gaps_follow_the_recursion(self):
        # the recursion's weak error against the exact law is first order ...
        decay_sq = math.exp(-2.0 * self.T * math.cos(self.THETA))
        exact = decay_sq * abs(self.X0) ** 2 + 2.0 * (1.0 - decay_sq)
        moments = [euler_moments(self.THETA, self.X0, self.T, dt)[1]
                   for dt in (1e-3, 2e-3, 4e-3)]
        errs = [m - exact for m in moments]
        assert errs == pytest.approx([1.071e-3, 2.143e-3, 4.292e-3], rel=1e-3)
        assert errs[1] / errs[0] == pytest.approx(2.0, abs=0.01)
        assert errs[2] / errs[1] == pytest.approx(2.0, abs=0.01)
        # ... and the coupled probe's gaps between dt, 2dt, 4dt are its gaps
        report = euler_halving_probe(
            GeneratorParams(self.THETA), self.X0, self.T, 1e-3, 5000, SEED + 6
        )
        assert abs(report.diff_fine - (moments[1] - moments[0])) <= 4.0 * report.diff_fine_se
        assert abs(report.diff_coarse - (moments[2] - moments[1])) <= 4.0 * report.diff_coarse_se

    def test_sampler_second_moment_follows_the_recursion(self, euler_run):
        ens, (_, second) = euler_run
        got, se = estimate_pt(ens, PolyZZbar({(1, 1): 1.0}), 1)
        assert abs(got - second) <= 4.0 * se


class TestRotationCovariance:
    def test_rotated_start_matches_rotated_read(self):
        theta, t, alpha, n = math.pi / 6, 0.8, 0.9, 100_000
        x0 = 1.1 - 0.4j
        base = SimConfig(GeneratorParams(theta), x0, (0.0, t), n, SEED + 40)
        rotated = SimConfig(
            GeneratorParams(theta), x0 * cmath.exp(-1j * alpha), (0.0, t), n, SEED + 41
        )
        ens_base, ens_rot = sample_exact(base), sample_exact(rotated)
        m_base, se_base = estimate_pt(ens_base, PolyZZbar.z(), 1)
        m_rot, se_rot = estimate_pt(ens_rot, PolyZZbar.z(), 1)
        joint = math.sqrt(se_base**2 + se_rot**2)
        assert abs(m_base * cmath.exp(-1j * alpha) - m_rot) <= 4.0 * joint
        abs_sq = PolyZZbar({(1, 1): 1.0})
        q_base, qse_base = estimate_pt(ens_base, abs_sq, 1)
        q_rot, qse_rot = estimate_pt(ens_rot, abs_sq, 1)
        assert abs(q_base - q_rot) <= 4.0 * math.sqrt(qse_base**2 + qse_rot**2)


# -- reference loops -------------------------------------------------------------
#
# Path-major loops with the samplers' arithmetic written out in its plain form:
# W = re + 1j * im from one (n, 2) block, Z' = scalar * Z + scalar * W with the
# scalar as the left operand.  The samplers step a time-major buffer in place
# and must give the same bits (numpy's complex product rounds differently in
# the last bit when the array is the left operand).


def _ref_rng(seed):
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _ref_normals(rng, n):
    block = rng.standard_normal((n, 2))
    return block[:, 0] + 1j * block[:, 1]


def reference_exact(config):
    rng = _ref_rng(config.seed)
    z = np.full(config.n_paths, config.x0, dtype=complex)
    columns = [z]
    for k in range(1, len(config.t_grid)):
        p = PropagatorParams(config.params, config.t_grid[k] - config.t_grid[k - 1])
        z = p.decay * z + p.noise_std * _ref_normals(rng, config.n_paths)
        columns.append(z)
    return np.stack(columns, axis=1)


def reference_euler(config):
    rng = _ref_rng(config.seed)
    drift_step = 1.0 - config.params.drift * config.dt
    amp = math.sqrt(2.0 * config.params.cos_theta * config.dt)
    z = np.full(config.n_paths, config.x0, dtype=complex)
    columns = [z]
    for steps in config.steps_per_gap():
        for _ in range(steps):
            z = drift_step * z + amp * _ref_normals(rng, config.n_paths)
        columns.append(z)
    return np.stack(columns, axis=1)


def reference_halving(params, x0, t, dt_fine, n_paths, seed):
    rng = _ref_rng(seed)
    sigma = math.sqrt(2.0 * params.cos_theta)
    z1 = np.full(n_paths, complex(x0), dtype=complex)
    z2, z4 = z1.copy(), z1.copy()
    acc2 = np.zeros(n_paths, dtype=complex)
    acc4 = np.zeros(n_paths, dtype=complex)
    for k in range(1, round(t / dt_fine) + 1):
        db = math.sqrt(dt_fine) * _ref_normals(rng, n_paths)
        z1 = (1.0 - params.drift * dt_fine) * z1 + sigma * db
        acc2 = acc2 + db
        acc4 = acc4 + db
        if k % 2 == 0:
            z2 = (1.0 - params.drift * (2.0 * dt_fine)) * z2 + sigma * acc2
            acc2 = np.zeros(n_paths, dtype=complex)
        if k % 4 == 0:
            z4 = (1.0 - params.drift * (4.0 * dt_fine)) * z4 + sigma * acc4
            acc4 = np.zeros(n_paths, dtype=complex)
    d_coarse = np.abs(z4) ** 2 - np.abs(z2) ** 2
    d_fine = np.abs(z2) ** 2 - np.abs(z1) ** 2
    return sde.HalvingReport(
        dt_fine=dt_fine,
        diff_coarse=float(d_coarse.mean()),
        diff_coarse_se=math.sqrt(float(d_coarse.var(ddof=1)) / n_paths),
        diff_fine=float(d_fine.mean()),
        diff_fine_se=math.sqrt(float(d_fine.var(ddof=1)) / n_paths),
    )


def same_bits(a, b):
    """Equal shapes and equal bytes (signed zeros and NaN payloads included)."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


GRIDS = [(0.0, 0.3, 1.0, 2.5), tuple(0.05 * k for k in range(41))]


class TestSamplersMatchReferenceLoops:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, -1.2])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_exact_bit_for_bit(self, theta, grid):
        cfg = SimConfig(GeneratorParams(theta), 0.4 - 0.9j, grid, 3001, SEED + 50)
        assert same_bits(sample_exact(cfg).states, reference_exact(cfg))

    def test_euler_bit_for_bit(self):
        cfg = SimConfig(
            GeneratorParams(0.7), 1.0 + 0.5j, (0.0, 0.125, 0.5, 1.0), 2999, SEED + 51,
            scheme="euler", dt=1.0 / 64,
        )
        assert same_bits(sample_euler(cfg).states, reference_euler(cfg))

    @pytest.mark.parametrize("n_paths", [16385, 40001])
    def test_exact_across_path_blocks(self, n_paths):
        # more paths than one step block: 2 and 3 blocks of about 8192-13334
        cfg = SimConfig(GeneratorParams(math.pi / 3), 0.4 - 0.9j, GRIDS[0], n_paths, SEED + 54)
        assert same_bits(sample_exact(cfg).states, reference_exact(cfg))

    @pytest.mark.parametrize("n_paths", [16385, 40001])
    def test_euler_across_path_blocks(self, n_paths):
        cfg = SimConfig(
            GeneratorParams(-0.8), 1.0 - 0.5j, (0.0, 0.125, 0.5), n_paths, SEED + 55,
            scheme="euler", dt=1.0 / 32,
        )
        assert same_bits(sample_euler(cfg).states, reference_euler(cfg))

    def test_stationarity_across_path_blocks(self, monkeypatch):
        args = (GeneratorParams(0.6), 40001, None, SEED + 56)
        got = stationarity_check(*args)
        monkeypatch.setattr(
            sde, "_rows", lambda cfg: iter(np.ascontiguousarray(reference_exact(cfg).T))
        )
        want = stationarity_check(*args)
        for field in dataclasses.fields(sde.StationarityReport):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_single_path(self):
        cfg = SimConfig(GeneratorParams(-0.3), 2.0, (0.0, 0.5, 1.0), 1, SEED + 52)
        assert same_bits(sample_exact(cfg).states, reference_exact(cfg))

    def test_halving_probe_bit_for_bit(self):
        args = (GeneratorParams(math.pi / 5), 1.0 - 0.25j, 0.5, 1.0 / 128, 4001, SEED + 53)
        assert repr(euler_halving_probe(*args)) == repr(reference_halving(*args))


class TestTimeMajorLayout:
    @pytest.mark.parametrize(
        "config, sampler",
        [
            (SimConfig(GeneratorParams(0.2), 1j, GRIDS[1], 500, SEED), sample_exact),
            (
                SimConfig(
                    GeneratorParams(0.2), 1j, (0.0, 0.5, 1.0), 500, SEED,
                    scheme="euler", dt=0.125,
                ),
                sample_euler,
            ),
        ],
    )
    def test_columns_contiguous_and_buffer_frozen(self, config, sampler):
        states = sampler(config).states
        assert states.shape == (config.n_paths, len(config.t_grid))
        assert all(states[:, k].flags.c_contiguous for k in range(states.shape[1]))
        assert not states.flags.writeable
        assert states.base is not None and not states.base.flags.writeable
        with pytest.raises(ValueError):
            states.base[0, 0] = 1.0


class TestSdeMomentsReplay:
    def _run_with_replay(self, monkeypatch, tamper, x0=1.0 + 0.5j):
        # tamper(k, row) edits a copy of each row k of the replay's stream
        real = sde._rows
        calls = []

        def rows(config, states=None):
            calls.append(config)
            stream = real(config, states)
            if len(calls) != 2:  # not the replay of the first configuration
                return stream
            return (tamper(k, z.copy()) for k, z in enumerate(stream))

        monkeypatch.setattr(sde, "_rows", rows)
        report = checks.check_sde_moments(n_paths=2000, x0=x0, seed=SEED + 60)
        assert calls[1] == calls[0]
        return report

    def test_identical_replay_passes(self, monkeypatch):
        report = self._run_with_replay(monkeypatch, lambda k, z: z)
        assert report.details["bit_reproducible"] is True
        assert report.passed

    @pytest.mark.parametrize("path, k", [(0, 1), (1999, 2), (1000, 0)])
    def test_one_ulp_anywhere_is_caught(self, monkeypatch, path, k):
        def tamper(row_k, z):
            if row_k == k:
                z[path] = np.nextafter(z[path].real, np.inf) + 1j * z[path].imag
            return z

        report = self._run_with_replay(monkeypatch, tamper)
        assert report.details["bit_reproducible"] is False
        assert not report.passed

    def test_last_mantissa_bit_of_last_state_is_caught(self, monkeypatch):
        # the imaginary part of the last path in the last row is the last 8
        # bytes that the digest reads
        def tamper(k, z):
            if k == 2:  # rows 0..2: the default ts has two times
                last = z[-1]
                bits = np.float64(last.imag).view(np.uint64) ^ np.uint64(1)
                z[-1] = complex(last.real, bits.view(np.float64))
            return z

        report = self._run_with_replay(monkeypatch, tamper)
        assert report.details["bit_reproducible"] is False
        assert not report.passed

    @pytest.mark.parametrize("n_paths", [16385, 40001])
    def test_streamed_digest_is_the_ensembles(self, n_paths):
        # the rows, hashed as they are yielded, are the bytes of the sampler's
        # time-major buffer in order (path blocks straddled)
        cfg = SimConfig(GeneratorParams(math.pi / 3), 0.4 - 0.9j, GRIDS[0], n_paths, SEED + 61)
        streamed = hashlib.sha256()
        for z in sde._rows(cfg):
            streamed.update(z)
        buffer = np.ascontiguousarray(sample_exact(cfg).states.T)
        assert streamed.digest() == hashlib.sha256(buffer).digest()

    def test_sign_of_zero_is_caught(self, monkeypatch):
        # equal values, different bytes: the check compares bytes, not values
        def tamper(k, z):
            if k == 0:
                z[5] = complex(1.0, -0.0)
            return z

        report = self._run_with_replay(monkeypatch, tamper, x0=1.0)
        assert report.details["bit_reproducible"] is False


class TestBoundedMemory:
    """The Monte Carlo layer holds only what its results need."""

    N = 200_000

    def test_sample_exact_holds_the_ensemble(self):
        cfg = SimConfig(GeneratorParams(0.3), 1.0, (0.0, 0.5, 1.0), self.N, SEED + 70)
        sample_exact(cfg)  # warm
        ensemble = 3 * self.N * 16
        assert traced_peak(lambda: sample_exact(cfg)) <= ensemble + MB

    def test_sde_moments_holds_one_row(self):
        # each run is streamed (the replay is compared by digest): one row of
        # complex states, the float deviations of that recorded time, and
        # blocks of at most poly._BLOCK paths
        checks.check_sde_moments(n_paths=100)  # warm
        peak = traced_peak(lambda: checks.check_sde_moments(n_paths=self.N))
        assert peak <= 16 * self.N + 8 * self.N + MB

    def test_stationarity_holds_one_row(self):
        # one row stepped in place to t_burn; beside it at most one float
        # array of its width (deviations, |z|^2, or the KS statistic's sorted
        # copy) is alive at a time, and z * z is formed in place
        stationarity_check(GeneratorParams(0.3), 100, None, SEED + 72)  # warm
        args = (GeneratorParams(0.3), self.N, None, SEED + 72)
        peak = traced_peak(lambda: stationarity_check(*args))
        assert peak <= 16 * self.N + 8 * self.N + MB

    def test_sde_vs_mehler_holds_one_row(self):
        # one streamed row, phi's complex values on it and their float
        # deviations
        n = 100_000
        checks.check_sde_vs_mehler(n_paths=100)  # warm
        peak = traced_peak(lambda: checks.check_sde_vs_mehler(n_paths=n))
        assert peak <= 16 * n + 16 * n + 8 * n + MB

    def test_abs_second_moment_squares_in_place(self):
        # |z|^2 and then its deviations share one float array
        z = sample_exact(SimConfig(GeneratorParams(0.3), 1.0, (0.0, 1.0), self.N, SEED + 73))
        z = np.array(z.states[:, 1])
        sde.abs_second_moment(z[:10])  # warm
        assert traced_peak(lambda: sde.abs_second_moment(z)) <= 8 * self.N + MB

    def test_ks_normal_makes_no_python_float_per_point(self):
        # the sorted copy is the one array of the full width: the CDF and the
        # two gaps are taken one slice at a time (a list of n Python floats
        # would add 32 bytes a point)
        n = 10**6
        x = np.random.default_rng(SEED + 71).standard_normal(n)
        sde._ks_normal(x[:10])  # warm
        assert traced_peak(lambda: sde._ks_normal(x)) <= 8 * n + MB
