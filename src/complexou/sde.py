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
are issued in a fixed vectorized order (one (n_paths, 2) block per time step),
so identical configs give bit-identical ensembles and distinct seeds give
independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .operator import GeneratorParams
from .quadrature import _eval_at
from .semigroup import PropagatorParams

SCHEMES = ("exact", "euler")

# KS acceptance threshold at the 1% level is 1.63/sqrt(n).
KS_COEFF = 1.63


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
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "euler":
            if self.dt is None or not self.dt > 0.0:
                raise ValueError("euler scheme requires dt > 0")
            for gap in (b - a for a, b in zip(grid, grid[1:])):
                steps = round(gap / self.dt)
                if steps < 1 or abs(steps * self.dt - gap) > 1e-12:
                    raise ValueError(
                        f"dt={self.dt} does not divide the grid gap {gap} within 1e-12"
                    )

    def steps_per_gap(self) -> list[int]:
        if self.scheme != "euler":
            raise ValueError("steps_per_gap is only defined for the euler scheme")
        return [round((b - a) / self.dt) for a, b in zip(self.t_grid, self.t_grid[1:])]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: states[i, k] is path i at time t_grid[k].

    states[:, 0] == x0 always; the array is frozen after construction, and
    re-running the same config reproduces it bit for bit.
    """

    config: SimConfig
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.config.n_paths, len(self.config.t_grid)):
            raise ValueError("states shape does not match config")
        self.states.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.config.t_grid)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """One block of W = N(0,1) + i*N(0,1) draws (E|W|^2 = 2)."""
    block = rng.standard_normal((n, 2))
    return block[:, 0] + 1j * block[:, 1]


def transition_factors(params: GeneratorParams, delta: float) -> tuple[complex, float]:
    """(decay, noise_std) of the exact transition over a time gap delta.

    Shared with the semigroup so sampler and Mehler integral use identical
    constants.
    """
    p = PropagatorParams(params, delta)
    return p.decay, p.noise_std


def sample_exact(config: SimConfig) -> PathEnsemble:
    """Draw paths from the exact conditional law over each grid increment."""
    if config.scheme != "exact":
        raise ValueError("config.scheme must be 'exact'")
    rng = _rng(config.seed)
    n = config.n_paths
    states = np.empty((n, len(config.t_grid)), dtype=complex)
    z = np.full(n, config.x0, dtype=complex)
    states[:, 0] = z
    for k in range(1, len(config.t_grid)):
        decay, noise_std = transition_factors(
            config.params, config.t_grid[k] - config.t_grid[k - 1]
        )
        z = decay * z + noise_std * _complex_normals(rng, n)
        states[:, k] = z
    return PathEnsemble(config, states)


def sample_euler(config: SimConfig, noise_factor: float = 1.0) -> PathEnsemble:
    """Explicit Euler stepping at resolution dt, recorded on the grid.

    noise_factor scales the diffusion term; 0.0 reduces the scheme to the
    deterministic drift ODE (a convergence test hook), 1.0 is the SDE.
    """
    if config.scheme != "euler":
        raise ValueError("config.scheme must be 'euler'")
    rng = _rng(config.seed)
    n = config.n_paths
    drift_step = 1.0 - config.params.drift * config.dt
    amp = noise_factor * math.sqrt(2.0 * config.params.cos_theta * config.dt)
    states = np.empty((n, len(config.t_grid)), dtype=complex)
    z = np.full(n, config.x0, dtype=complex)
    states[:, 0] = z
    for k, steps in enumerate(config.steps_per_gap(), start=1):
        for _ in range(steps):
            z = drift_step * z + amp * _complex_normals(rng, n)
        states[:, k] = z
    return PathEnsemble(config, states)


def _mean_and_se(vals: np.ndarray) -> tuple[complex, float]:
    """Sample mean and its total standard error sqrt(E|v - mean|^2 / n), with
    the unbiased variance estimate; the error is 0.0 for fewer than 2 samples."""
    n = vals.size
    mean = complex(vals.mean())
    if n < 2:
        return mean, 0.0
    var = float(np.sum(np.abs(vals - mean) ** 2)) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_pt(ensemble: PathEnsemble, phi, t_index: int) -> tuple[complex, float]:
    """Monte Carlo estimate of P_t phi(x0) at grid index t_index.

    Returns (mean of phi(Z_t), standard error).  The standard error is the
    total one, sqrt(E|phi - mean|^2 / n) with the unbiased variance estimate,
    covering both real and imaginary coordinates jointly.
    """
    return _mean_and_se(np.asarray(_eval_at(phi, ensemble.states[:, t_index]), dtype=complex))


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
    passed: bool

    @property
    def max_ratio(self) -> float:
        """The worst of each moment's deviation over 4 SE and each KS statistic
        over the threshold: the check's residual against tolerance 1."""
        return float(
            max(
                abs(self.mean) / (4.0 * self.mean_se),
                abs(self.second_moment) / (4.0 * self.second_moment_se),
                abs(self.abs_second_moment - 2.0) / (4.0 * self.abs_second_moment_se),
                self.ks_real / self.ks_threshold,
                self.ks_imag / self.ks_threshold,
            )
        )


def stationarity_check(
    params: GeneratorParams, n_paths: int, t_burn: float, seed: int
) -> StationarityReport:
    """Run to t_burn from 0 with the exact sampler and compare against gamma."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for standard errors, got {n_paths}")
    # the <= 1e-6 cutoff gets a few ulps of grace so t_burn = 6 ln(10)/cos(theta)
    # (the exact boundary) is accepted
    if math.exp(-t_burn * params.cos_theta) > 1e-6 * (1.0 + 1e-9):
        raise ValueError("t_burn too small: e^{-t_burn cos theta} must be <= 1e-6")
    config = SimConfig(
        params=params, x0=0j, t_grid=(0.0, float(t_burn)), n_paths=n_paths, seed=seed
    )
    z = sample_exact(config).states[:, 1]

    mean, mean_se = _mean_and_se(z)
    second, second_se = _mean_and_se(z * z)
    abs_sq = np.abs(z) ** 2
    abs_mean = float(abs_sq.mean())
    abs_se = float(abs_sq.std(ddof=1)) / math.sqrt(n_paths)

    ks_real = float(stats.kstest(z.real, "norm").statistic)
    ks_imag = float(stats.kstest(z.imag, "norm").statistic)
    threshold = KS_COEFF / math.sqrt(n_paths)

    passed = (
        abs(mean) <= 4.0 * mean_se
        and abs(second) <= 4.0 * second_se
        and abs(abs_mean - 2.0) <= 4.0 * abs_se
        and ks_real <= threshold
        and ks_imag <= threshold
    )
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
        passed=passed,
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
    n_steps = round(t / dt_fine)
    if abs(n_steps * dt_fine - t) > 1e-12 or n_steps % 4 != 0:
        raise ValueError("t must be a multiple of 4*dt_fine")
    rng = _rng(seed)
    drift = params.drift
    sigma = math.sqrt(2.0 * params.cos_theta)
    sq_dt = math.sqrt(dt_fine)

    z1 = np.full(n_paths, complex(x0), dtype=complex)
    z2 = z1.copy()
    z4 = z1.copy()
    acc2 = np.zeros(n_paths, dtype=complex)
    acc4 = np.zeros(n_paths, dtype=complex)
    for k in range(1, n_steps + 1):
        db = sq_dt * _complex_normals(rng, n_paths)
        z1 = (1.0 - drift * dt_fine) * z1 + sigma * db
        acc2 += db
        acc4 += db
        if k % 2 == 0:
            z2 = (1.0 - drift * (2.0 * dt_fine)) * z2 + sigma * acc2
            acc2[:] = 0.0
        if k % 4 == 0:
            z4 = (1.0 - drift * (4.0 * dt_fine)) * z4 + sigma * acc4
            acc4[:] = 0.0

    d_coarse = np.abs(z4) ** 2 - np.abs(z2) ** 2
    d_fine = np.abs(z2) ** 2 - np.abs(z1) ** 2
    return HalvingReport(
        dt_fine=dt_fine,
        diff_coarse=float(d_coarse.mean()),
        diff_coarse_se=float(d_coarse.std(ddof=1)) / math.sqrt(n_paths),
        diff_fine=float(d_fine.mean()),
        diff_fine_se=float(d_fine.std(ddof=1)) / math.sqrt(n_paths),
    )
