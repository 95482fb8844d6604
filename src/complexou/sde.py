"""Monte Carlo simulation of the complex Ornstein-Uhlenbeck SDE

    dZ_t = -e^{i*theta} Z_t dt + sqrt(2*cos(theta)) d(zeta_t),

where zeta is a complex Brownian motion with independent real and imaginary
parts.  Every complex Gaussian draw in this module is W = N(0,1) + i*N(0,1),
so E|W|^2 = 2; all variance bookkeeping uses the per-coordinate convention
(the stationary law has per-coordinate variance 1, total E|Z|^2 = 2).

Two samplers over a common recording grid:

- exact: each grid increment uses the exact conditional law
  Z' = decay * Z + noise_std * W with the same decay/noise constants as the
  semigroup (Mehler) form, so Monte Carlo estimates are unbiased,
- euler: explicit stepping Z <- Z - e^{i*theta} Z dt + sqrt(2*cos(theta)*dt) W,
  kept as a demonstration of the SDE form (weak order 1), not for accuracy.

Randomness comes from a counter-based Philox stream keyed by the seed; draws
are issued in a fixed vectorized order: each time step draws its paths'
normals block by block in path order (equal blocks of at most
``poly._BLOCK`` paths), which is the same stream as one (n_paths, 2) draw
per step.  So identical configs give bit-identical ensembles and distinct
seeds give independent streams.

One step loop (:func:`_rows`) serves both samplers.  It steps the paths
from x0 over each grid gap and yields each recorded row, all paths at one
recorded time, as soon as it is complete.  Streamed, it steps one n_paths
row in place, so a caller that reads one recorded time at a time (the Monte
Carlo suites, :func:`stationarity_check`) holds one row, not an ensemble.
:class:`PathEnsemble` is for callers that need every time at once: the
samplers fill one time-major (T, n_paths) buffer through the same loop, and
the ensemble exposes its transpose.  So ``states[:, k]`` (what every
estimator reads) is contiguous memory, while ``states[i, k]`` keeps its
path-first indexing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .operator import GeneratorParams
from .poly import _BLOCK, _blocks, _worst
from .quadrature import _eval_at
from .semigroup import PropagatorParams

SCHEMES = ("exact", "euler")

# KS acceptance threshold at the 1% level is 1.63/sqrt(n).
KS_COEFF = 1.63
# Width of every Monte Carlo band, in standard errors.
BAND_SE = 4.0
# Tolerance of StationarityReport.max_ratio (the sde stationarity default --tol).
STATIONARITY_TOL = 1.0
_SEEDS = 2**64  # seeds are 64-bit unsigned integers

# Most points per slice that _ks_normal maps math.erfc over (a Python float each).
_KS_SLICE = 8192


def _check_seed(seed: int) -> int:
    """The seed as an int, the one value every generator is built from;
    ValueError unless it is a 64-bit unsigned integer (a float or a bool is not)."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed < _SEEDS):
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(seed)


@dataclass(frozen=True)
class SimConfig:
    """Immutable simulation request.

    t_grid is the recording grid; it must start at exactly 0.0 (the first
    recorded state is the initial condition) and increase strictly.  For the
    euler scheme, dt must divide every grid gap to within 1e-12.
    """

    params: GeneratorParams
    x0: complex
    t_grid: tuple[float, ...]
    n_paths: int
    seed: int
    scheme: str = "exact"
    dt: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", complex(self.x0))
        grid = tuple(float(t) for t in self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if not grid or grid[0] != 0.0:
            raise ValueError("t_grid must start at 0.0 (the initial state is recorded)")
        if any(not b > a for a, b in zip(grid, grid[1:])):  # a NaN fails too
            raise ValueError("t_grid must be strictly increasing")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        _check_seed(self.seed)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "euler":
            if self.dt is None or not self.dt > 0.0:
                raise ValueError("euler scheme requires dt > 0")
            for a, b, steps in zip(grid, grid[1:], self.steps_per_gap()):
                if steps < 1 or abs(steps * self.dt - (b - a)) > 1e-12:
                    raise ValueError(
                        f"dt={self.dt} does not divide the grid gap {b - a} within 1e-12"
                    )

    def steps_per_gap(self) -> list[int]:
        if self.scheme != "euler":
            raise ValueError("steps_per_gap is only defined for the euler scheme")
        return [round((b - a) / self.dt) for a, b in zip(self.t_grid, self.t_grid[1:])]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: states[i, k] is path i at time t_grid[k].

    states[:, 0] == x0 always; the array is frozen after construction, and
    re-running the same config reproduces it bit for bit.  The samplers pass
    the transpose of a frozen time-major (T, n_paths) buffer, so each
    ``states[:, k]`` is contiguous and ``states.base`` is read-only too.
    """

    config: SimConfig
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.config.n_paths, len(self.config.t_grid)):
            raise ValueError("states shape does not match config")
        self.states.setflags(write=False)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def _complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """One block of W = N(0,1) + i*N(0,1) draws (E|W|^2 = 2).

    Each (re, im) pair of the (n, 2) block is one complex128, so the block is
    viewed as complex without a copy; the result is a fresh, writable array.
    """
    return rng.standard_normal((n, 2)).view(complex)[:, 0]


def _advance(z, factor, src, amp, noise, kick) -> None:
    """z = factor * src + amp * noise, each product with the scalar first; kick
    holds amp * noise (it may be noise itself)."""
    np.multiply(factor, src, out=z)
    np.multiply(amp, noise, out=kick)
    z += kick


def _gaps(config: SimConfig) -> list[tuple[int, complex, float]]:
    """One (steps, factor, amp) per grid gap of config's scheme: each step
    sets z = factor * z + amp * W.  exact: one step with the decay and noise
    constants of the semigroup's :class:`~.semigroup.PropagatorParams`, so
    sampler and Mehler integral agree; euler: steps of dt with
    factor 1 - e^{i theta} dt and amp sqrt(2 cos(theta) dt)."""
    grid = config.t_grid
    if config.scheme == "exact":
        props = [PropagatorParams(config.params, b - a) for a, b in zip(grid, grid[1:])]
        return [(1, p.decay, p.noise_std) for p in props]
    drift_step = 1.0 - config.params.drift * config.dt
    amp = math.sqrt(2.0 * config.params.cos_theta * config.dt)
    return [(steps, drift_step, amp) for steps in config.steps_per_gap()]


def _rows(config: SimConfig, states: np.ndarray | None = None):
    """Yield each recorded row (all paths at one recorded time) as soon as it
    is complete: row 0 (all x0) first, then one row per grid gap.

    ``states``, a (T, n_paths) buffer, gets row k at time k.  Without it one
    n_paths row is stepped in place, and every yield is that same array,
    overwritten by the next gap's steps: read or copy it before advancing.

    Each step draws W and sets z = factor * z + amp * W (:func:`_gaps`); a
    gap's first step reads row k - 1 and writes row k, the rest step row k in
    place.  A step goes through its path blocks in path order, each drawing
    its own normals, which consumes the Philox stream exactly as one
    (n_paths, 2) draw, so the rows are the same bits for any blocking, and
    the same streamed as buffered.
    """
    if states is None:  # T references to one row: each gap steps it in place
        states = [np.empty(config.n_paths, dtype=complex)] * len(config.t_grid)
    rng = _rng(config.seed)
    blocks = _blocks(config.n_paths, _BLOCK)
    states[0].fill(config.x0)
    yield states[0]
    for k, (steps, factor, amp) in enumerate(_gaps(config), start=1):
        z, src = states[k], states[k - 1]
        for _ in range(steps):
            for lo, hi in blocks:
                w = _complex_normals(rng, hi - lo)
                _advance(z[lo:hi], factor, src[lo:hi], amp, w, w)
            src = z
        yield z


def _sample(config: SimConfig) -> PathEnsemble:
    """Fill the time-major buffer through :func:`_rows`, then freeze it and
    wrap its (n_paths, T) transpose."""
    states = np.empty((len(config.t_grid), config.n_paths), dtype=complex)
    for _ in _rows(config, states):
        pass
    states.setflags(write=False)
    return PathEnsemble(config, states.T)


def sample_exact(config: SimConfig) -> PathEnsemble:
    """Draw paths from the exact conditional law over each grid increment,
    with the decay and noise constants of the semigroup's
    :class:`~.semigroup.PropagatorParams`, so sampler and Mehler integral
    agree."""
    if config.scheme != "exact":
        raise ValueError("config.scheme must be 'exact'")
    return _sample(config)


def sample_euler(config: SimConfig) -> PathEnsemble:
    """Explicit Euler stepping of the SDE at resolution dt, recorded on the
    grid: z <- (1 - e^{i theta} dt) z + sqrt(2 cos(theta) dt) W."""
    if config.scheme != "euler":
        raise ValueError("config.scheme must be 'euler'")
    return _sample(config)


def _abs_dev_sq(vals: np.ndarray, mean: complex, out: np.ndarray | None = None) -> np.ndarray:
    """|vals - mean|^2 of real or complex vals, the bits of
    ``np.abs(vals - mean) ** 2``, in ``out`` (a new float array if None; it
    may be real vals itself, which are then overwritten).  The differences
    are taken one path block (``poly._blocks``) at a time, so no deviation
    array of the full width is formed: the scratch is the float result plus
    one block."""
    out = np.empty(vals.size) if out is None else out
    for lo, hi in _blocks(vals.size, _BLOCK):
        np.abs(vals[lo:hi] - mean, out=out[lo:hi])
    return np.square(out, out=out)


def _mean_and_se(vals: np.ndarray, out: np.ndarray | None = None) -> tuple[complex | float, float]:
    """Sample mean of real or complex vals and its total standard error
    sqrt(var / n), var = sum |v - mean|^2 / (n - 1) the unbiased variance
    estimate; the error is 0.0 for fewer than 2 samples.  ``out`` is passed
    to :func:`_abs_dev_sq`: real vals the caller no longer needs can take
    their own deviations in place."""
    n = vals.size
    mean = vals.mean().item()
    if n < 2:
        return mean, 0.0
    var = float(np.sum(_abs_dev_sq(vals, mean, out))) / (n - 1)
    return mean, math.sqrt(var / n)


def abs_second_moment(z: np.ndarray) -> tuple[float, float]:
    """Sample mean of |z|^2 and its standard error (:func:`_mean_and_se`),
    with |z|^2 squared and then its deviations taken in one float array."""
    sq = np.abs(z)
    np.square(sq, out=sq)
    return _mean_and_se(sq, out=sq)


def _estimate(phi, z: np.ndarray) -> tuple[complex, float]:
    """Mean of phi over the paths z of one recorded time and its total
    standard error (:func:`_mean_and_se`)."""
    return _mean_and_se(_eval_at(phi, z))


def estimate_pt(ensemble: PathEnsemble, phi, t_index: int) -> tuple[complex, float]:
    """Monte Carlo estimate of P_t phi(x0) at grid index t_index.

    Returns (mean of phi(Z_t), standard error).  The standard error is the
    total one, sqrt(E|phi - mean|^2 / n) with the unbiased variance estimate,
    covering both real and imaginary coordinates jointly.
    """
    return _estimate(phi, ensemble.states[:, t_index])


def _ks_normal(x: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of the sample x against N(0,1).

    With x sorted and Phi(x) = erfc(-x / sqrt(2)) / 2, it is the larger of
    max(i/n - Phi(x_i)) and max(Phi(x_i) - (i-1)/n) over i = 1..n: the widest
    gap between Phi and the empirical CDF on either side of each step.
    numpy has no erfc, so math.erfc is mapped over the sorted sample one
    slice of at most :data:`_KS_SLICE` points (``poly._blocks``) at a
    time, and both gaps are taken on that slice, in one difference buffer,
    before the next: the sorted copy is the only array of the full width, and
    no Python float per point is alive at once.  A maximum is exact, so the
    slices' maxima give the whole sample's.
    """
    u = np.sort(x)
    n = u.size
    u /= -math.sqrt(2.0)  # -x / sqrt(2) to the bit, sign moved to the divisor
    gap = np.empty(min(n, _KS_SLICE))
    above, below = [], []
    for lo, hi in _blocks(n, _KS_SLICE):
        m = hi - lo
        cdf = np.fromiter(map(math.erfc, u[lo:hi].tolist()), float, m)
        cdf *= 0.5
        steps = np.arange(lo, hi + 1) / n  # i/n for i = lo..hi
        above.append(np.subtract(steps[1:], cdf, out=gap[:m]).max())
        below.append(np.subtract(cdf, steps[:-1], out=gap[:m]).max())
    return float(max(np.max(above), np.max(below)))


@dataclass(frozen=True)
class StationarityReport:
    """Empirical check that the long-time law is the standard planar Gaussian.

    Moment targets: E[z] = 0, E[z^2] = 0, E|z|^2 = 2, each within 4 empirical
    standard errors; Kolmogorov-Smirnov statistics of the real and imaginary
    marginals against N(0,1) within ks_threshold = 1.63/sqrt(n) (1% level).
    """

    n_paths: int
    t_burn: float
    mean: complex
    mean_se: float
    second_moment: complex
    second_moment_se: float
    abs_second_moment: float
    abs_second_moment_se: float
    ks_real: float
    ks_imag: float
    ks_threshold: float

    @property
    def max_ratio(self) -> float:
        """The worst of each moment's deviation over BAND_SE SE and each KS
        statistic over the threshold: the residual against STATIONARITY_TOL."""
        return _worst((
            abs(self.mean) / (BAND_SE * self.mean_se),
            abs(self.second_moment) / (BAND_SE * self.second_moment_se),
            abs(self.abs_second_moment - 2.0) / (BAND_SE * self.abs_second_moment_se),
            self.ks_real / self.ks_threshold,
            self.ks_imag / self.ks_threshold,
        ))

    @property
    def passed(self) -> bool:
        """Every moment within BAND_SE SE and both KS statistics within the
        threshold, as check_stationarity judges the same run; its one caller
        is the monte-carlo workload of perfbench/run.py."""
        return self.max_ratio <= STATIONARITY_TOL


def stationarity_check(
    params: GeneratorParams, n_paths: int, t_burn: float | None, seed: int
) -> StationarityReport:
    """Run to t_burn (None: 6 ln10 / cos theta) from 0 with the exact sampler
    and compare against gamma: the three moments by their standard errors,
    and the real and imaginary marginals by their Kolmogorov-Smirnov
    statistics against N(0,1) (:func:`_ks_normal`)."""
    if t_burn is None:
        t_burn = 6.0 * math.log(10.0) / params.cos_theta
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {n_paths}")
    # the <= 1e-6 cutoff gets a few ulps of grace so t_burn = 6 ln(10)/cos(theta)
    # (the exact boundary) is accepted
    if math.exp(-t_burn * params.cos_theta) > 1e-6 * (1.0 + 1e-9):
        raise ValueError("t_burn too small: e^{-t_burn cos theta} must be <= 1e-6")
    config = SimConfig(
        params=params, x0=0j, t_grid=(0.0, float(t_burn)), n_paths=n_paths, seed=seed
    )
    *_, z = _rows(config)  # one row, stepped in place to t_burn

    mean, mean_se = _mean_and_se(z)
    abs_mean, abs_se = abs_second_moment(z)
    ks_real = _ks_normal(z.real)
    ks_imag = _ks_normal(z.imag)
    # z's last use: z * z overwrites it
    second, second_se = _mean_and_se(np.multiply(z, z, out=z))
    threshold = KS_COEFF / math.sqrt(n_paths)

    return StationarityReport(
        n_paths=n_paths,
        t_burn=float(t_burn),
        mean=mean,
        mean_se=mean_se,
        second_moment=second,
        second_moment_se=second_se,
        abs_second_moment=abs_mean,
        abs_second_moment_se=abs_se,
        ks_real=ks_real,
        ks_imag=ks_imag,
        ks_threshold=threshold,
    )


@dataclass(frozen=True)
class HalvingReport:
    """Coupled weak-error comparison of Euler at dt, 2*dt, 4*dt.

    All three resolutions are driven by one shared Brownian path per sample
    (coarse increments are sums of fine ones), so the pathwise differences of
    |Z_t|^2 between consecutive resolutions have tiny variance.  First-order
    weak convergence means diff_coarse is close to 2 * diff_fine.
    """

    dt_fine: float
    diff_coarse: float
    diff_coarse_se: float
    diff_fine: float
    diff_fine_se: float


def euler_halving_probe(
    params: GeneratorParams,
    x0: complex,
    t: float,
    dt_fine: float,
    n_paths: int,
    seed: int,
) -> HalvingReport:
    """Estimate the Euler weak-error gaps on E|Z_t|^2 between dt, 2dt, 4dt."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {n_paths}")
    n_steps = round(t / dt_fine)
    if abs(n_steps * dt_fine - t) > 1e-12 or n_steps % 4 != 0:
        raise ValueError("t must be a multiple of 4*dt_fine")
    rng = _rng(seed)
    drift = params.drift
    sigma = math.sqrt(2.0 * params.cos_theta)
    sq_dt = math.sqrt(dt_fine)

    step1 = 1.0 - drift * dt_fine
    step2 = 1.0 - drift * (2.0 * dt_fine)
    step4 = 1.0 - drift * (4.0 * dt_fine)

    z1 = np.full(n_paths, complex(x0), dtype=complex)
    z2 = z1.copy()
    z4 = z1.copy()
    acc2 = np.zeros(n_paths, dtype=complex)
    acc4 = np.zeros(n_paths, dtype=complex)
    kick = np.empty(n_paths, dtype=complex)

    for k in range(1, n_steps + 1):
        db = _complex_normals(rng, n_paths)
        np.multiply(sq_dt, db, out=db)
        _advance(z1, step1, z1, sigma, db, kick)
        acc2 += db
        acc4 += db
        if k % 2 == 0:
            _advance(z2, step2, z2, sigma, acc2, kick)
            acc2[:] = 0.0
        if k % 4 == 0:
            _advance(z4, step4, z4, sigma, acc4, kick)
            acc4[:] = 0.0

    coarse, coarse_se = _mean_and_se(np.abs(z4) ** 2 - np.abs(z2) ** 2)
    fine, fine_se = _mean_and_se(np.abs(z2) ** 2 - np.abs(z1) ** 2)
    return HalvingReport(dt_fine, coarse, coarse_se, fine, fine_se)
