#!/usr/bin/env python3
"""The complexou benchmark: four closed-loop workloads over the library.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

One process runs one workload.  A single client issues the workload's ops one
after another (closed loop, no overlap).  The library is imported from
``src/`` and only called through its public functions.  No library file is
edited.  Two kinds of wrapper are installed from here: ``verify-all`` wraps
the 18 ``checks.check_*`` attributes with a bare timer, and the traced run
(``--trace 1``) wraps the layer boundaries listed in ``layers.py``.

Output: a ``{"report": ...}`` line with every metric of the workload (name,
value, unit), the gates and the environment, then as the last line the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
result carries the end-to-end metrics; with ``--trace 1`` the per-layer ones.
See README.md in this directory for the metric table and how to compare runs.
"""

from __future__ import annotations

import os

# BLAS/OpenMP thread cap, set before numpy is first imported.
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from typing import Callable  # noqa: E402


# glibc malloc thresholds, fixed before the library allocates.  By default glibc
# raises its mmap threshold each time a large block is freed and trims the heap
# top, so whether a few-hundred-KB numpy temporary costs fresh page faults on
# every call depends on the run's allocation history: the same cli-requests
# pass took 0.95 s in one process and 1.22 s (with 105k more page faults) in
# another.  Fixed thresholds turn the dynamic adjustment off.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers
MALLOC_THRESHOLDS = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}


def _pin_malloc() -> bool:
    """Set MALLOC_THRESHOLDS with mallopt; False where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLDS["mmap_threshold"])
                and mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLDS["trim_threshold"]))


MALLOC_PINNED = _pin_malloc()

import numpy as np  # noqa: E402

from layers import csv_rows  # noqa: E402
from tracer import HEADROOM_FLOOR, log10_headroom  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("verify-all", "high-degree", "monte-carlo", "cli-requests")
SETUP_REPS = 3  # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3  # timed passes per run at least, so pass_cpu_s is a median of three

# Gated end-to-end metrics: reported on every workload (see README.md).  The
# times are CPU seconds (user + system): on a shared virtual machine the wall
# time also counts the time the hypervisor gives the core to other tenants.
END_TO_END = {"setup_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}


# -- ops and passes ---------------------------------------------------------------


@dataclass
class Op:
    """One client request: a timed call plus the check of its output.

    ``check(out)`` returns None when the output is correct, else a message.
    ``measure(out)`` returns numbers the workload's metrics need (work done).
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    measure: Callable[[object], dict] = lambda out: {}


@dataclass
class OpResult:
    name: str
    seconds: float
    cpu_seconds: float
    failure: str | None = None
    raised: bool = False
    measured: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    # the Hermite cache starts empty per pass (a fresh process) or, for
    # shell-style requests, per op
    cache_per_op: bool = False
    known_failures: frozenset = frozenset()
    summarize: Callable[[list[list[OpResult]]], dict] = lambda passes: {}
    end_pass: Callable[[], None] = lambda: None


class HermiteCache:
    """Clears ``hermite.complex_hermite`` and keeps its hit/miss totals."""

    def __init__(self):
        from complexou import hermite

        self._cached = hermite.complex_hermite  # the lru_cache object itself
        self.counting = False
        self.hits = self.misses = 0

    def clear(self) -> None:
        if self.counting:
            info = self._cached.cache_info()
            self.hits += info.hits
            self.misses += info.misses
        self._cached.cache_clear()


def run_pass(workload: Workload, cache: HermiteCache, tracer=None, op_base: int = 0):
    results = []
    if not workload.cache_per_op:
        cache.clear()
    for i, op in enumerate(workload.ops):
        if workload.cache_per_op:
            cache.clear()
        if tracer is not None:
            tracer.op_id = op_base + i
        start, cpu_start = perf_counter(), process_time()
        try:
            out = op.call()
        except (Exception, SystemExit) as exc:  # counted as a failed op, never fatal
            seconds, cpu = perf_counter() - start, process_time() - cpu_start
            results.append(OpResult(op.name, seconds, cpu, f"{type(exc).__name__}: {exc}", True))
            continue
        seconds, cpu = perf_counter() - start, process_time() - cpu_start
        try:
            failure = op.check(out)
            measured = op.measure(out)
        except Exception as exc:  # a malformed output is a failed op
            failure, measured = f"check raised {type(exc).__name__}: {exc}", {}
        results.append(OpResult(op.name, seconds, cpu, failure, False, measured))
    workload.end_pass()
    return results


def pass_seconds(results: list[OpResult]) -> float:
    return sum(r.seconds for r in results)


def pass_cpu_seconds(results: list[OpResult]) -> float:
    return sum(r.cpu_seconds for r in results)


def timed_passes(workload, cache, seconds, min_passes, tracer=None):
    """At least ``min_passes`` passes, then more while another fits in ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        op_base = len(passes) * len(workload.ops)
        passes.append(run_pass(workload, cache, tracer, op_base))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def median_of(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


# -- shared helpers ---------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    from complexou import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def envelope_failure(rc: int, out: str) -> str | None:
    env = json.loads(out)
    if rc != 0 or env["pass"] is not True:
        return f"exit {rc}, pass {env['pass']}, max_residual {env.get('max_residual')}"
    return None


# -- verify-all -------------------------------------------------------------------


def build_verify_all(seed: int, toy: bool, work_dir: Path) -> Workload:
    """``complexou verify-all --paths 200000`` in-process, suites timed apart.

    The command's own default seed is used, exactly as a user runs it; the
    benchmark seed does not reach this workload.
    """
    from complexou import checks

    from layers import DET_SUITES, MC_SUITES, SUITES

    argv = ["verify-all", "--paths", "2000" if toy else "200000"]
    suite_times: list[tuple[str, float]] = []
    depth = [0]

    def suite_timer(fn, suite):
        def timed(*args, **kwargs):
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:  # check_quadrature calls check_orthonormality
                    suite_times.append((suite, perf_counter() - start))

        return timed

    for fn_name, suite in SUITES.items():
        setattr(checks, fn_name, suite_timer(getattr(checks, fn_name), suite))

    def call():
        suite_times.clear()
        rc, out = run_cli(argv)
        return rc, out, list(suite_times)

    def check(result):
        rc, out, _ = result
        env = json.loads(out)
        failing = [s["name"] for s in env["results"]["suites"] if not s["pass"]]
        if rc != 0 or env["pass"] is not True:
            return f"exit {rc}, pass {env['pass']}, failing suites {failing}"
        names = sorted(s["name"] for s in env["results"]["suites"])
        if names != sorted(SUITES.values()):
            return f"suites {names} are not the 18 expected"
        return None

    def measure(result):
        _, out, times = result
        suites = json.loads(out)["results"]["suites"]
        return {
            "det_s": sum(t for s, t in times if s in DET_SUITES),
            "mc_s": sum(t for s, t in times if s in MC_SUITES),
            "headroom": max(
                log10_headroom(s.get("max_residual"), s.get("tol"))
                for s in suites
                if s["name"] in DET_SUITES
            ),
        }

    def summarize(passes):
        measured = [r.measured for p in passes for r in p if r.measured]
        if not measured:
            return {}
        return {
            "verify_det_s": (statistics.median(m["det_s"] for m in measured), "s"),
            "verify_mc_s": (statistics.median(m["mc_s"] for m in measured), "s"),
            "worst_log10_headroom": (max(m["headroom"] for m in measured), "log10"),
        }

    op = Op("verify-all", call, check, measure)
    return Workload([op], summarize=summarize)


# -- high-degree ------------------------------------------------------------------

# Ops that fail today at these degrees (ROADMAP item 3).  They stay in the
# workload and count as failed; they do not make the run incorrect.
HIGH_DEGREE_KNOWN_FAILURES = frozenset(
    {"orthonormality-32", "spectral-vs-mehler-14", "gamma-invariance-16", "expansion-roundtrip-12"}
)


def build_high_degree(seed: int, toy: bool, work_dir: Path) -> Workload:
    """The checks.check_* identities near the advertised degree limits."""
    from complexou import checks

    pi = math.pi
    s = int(np.random.default_rng(seed).integers(1, 2**31))
    specs = [
        ("construction-cross-check-32", "check_construction", {"max_total": 32}),
        ("eigenrelation-24", "check_eigenrelation", {"max_degree": 24}),
        ("orthonormality-24", "check_orthonormality", {"max_degree": 24, "order": 26}),
        ("orthonormality-32", "check_orthonormality", {"max_degree": 32, "order": 34}),
        ("generator-normality-16", "check_operator_normality", {"max_degree": 16, "seed": s}),
        ("carre-du-champ-12", "check_gamma",
         {"n_pairs": 8, "max_degree": 12, "n_points": 200, "seed": s}),
        ("diffusion-chain-rule-4-5", "check_chain_rule",
         {"n_cases": 4, "max_degree_outer": 4, "max_degree_inner": 5, "seed": s}),
        ("adjoint-identity-10", "check_adjoint",
         {"max_degree": 10, "thetas": (pi / 4,), "ts": (1.0,), "n_pairs": 2, "seed": s}),
        ("gaussian-rotation-invariance-8", "check_rotation_invariance",
         {"max_degree": 8, "thetas": (pi / 4,), "ts": (1.0,), "n_polys": 2, "seed": s}),
        ("spectral-vs-mehler-12", "check_spectral_vs_mehler",
         {"max_degree": 12, "n_points": 20, "seed": s}),
        ("spectral-vs-mehler-14", "check_spectral_vs_mehler",
         {"max_degree": 14, "n_points": 20, "seed": s}),
        ("gamma-invariance-12", "check_invariance", {"max_degree": 12, "n_polys": 1, "seed": s}),
        ("gamma-invariance-16", "check_invariance",
         {"max_degree": 16, "thetas": (0.0, 0.49 * pi), "ts": (0.5, 2.0), "n_polys": 1,
          "seed": s}),
        ("expansion-roundtrip-10", "check_roundtrip", {"max_degree": 10}),
        ("expansion-roundtrip-12", "check_roundtrip", {"max_degree": 12}),
    ]
    if toy:
        specs = [sp for sp in specs if sp[0] in ("eigenrelation-24", "expansion-roundtrip-12")]

    def make(name, fn_name, kwargs):
        def check(rep):
            if rep.passed:
                return None
            return f"max_residual {rep.max_residual:.3g} > tol {rep.tol:g}"

        return Op(
            name,
            lambda: getattr(checks, fn_name)(**kwargs),
            check,
            lambda rep: {"headroom": log10_headroom(rep.max_residual, rep.tol)},
        )

    def summarize(passes):
        worst = max((r.measured["headroom"] for p in passes for r in p if r.measured),
                    default=HEADROOM_FLOOR)
        return {"worst_log10_headroom": (worst, "log10")}

    ops = [make(*spec) for spec in specs]
    return Workload(ops, known_failures=HIGH_DEGREE_KNOWN_FAILURES, summarize=summarize)


# -- monte-carlo ------------------------------------------------------------------

SE_GATE = 6.0  # standard errors allowed between a Monte Carlo mean and its exact value


def _mean_se(z):
    """Column means and total standard errors of samples z[path, k]."""
    n = z.shape[0]
    mean = z.mean(axis=0)
    var = np.sum(np.abs(z - mean) ** 2, axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def _within_se(mean, se, expected) -> str | None:
    dev = np.abs(mean - expected)
    bad = dev > SE_GATE * se + 1e-12 * (1.0 + np.abs(expected))
    if np.any(bad):
        k = int(np.argmax(bad))
        return (f"mean {complex(mean[k]):.6g} vs exact {complex(expected[k]):.6g} "
                f"(se {se[k]:.3g}) at index {k}")
    return None


def _euler_second_moment(params, x0: complex, t: float, h: float) -> float:
    """Exact E|Z_T|^2 of the Euler chain Z <- (1 - e^{i theta} h) Z + sqrt(2 cos theta h) W."""
    k = round(t / h)
    r = abs(1.0 - params.drift * h) ** 2
    return r**k * abs(x0) ** 2 + 4.0 * params.cos_theta * h * (1.0 - r**k) / (1.0 - r)


def random_observable(rng, degree: int):
    """Degree-``degree`` polynomial with coefficients N_C(0, 1) / sqrt(a! b!)."""
    from complexou import PolyZZbar

    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            scale = math.sqrt(math.factorial(a) * math.factorial(b))
            terms[(a, b)] = complex(rng.standard_normal(), rng.standard_normal()) / scale
    return PolyZZbar(terms)


def build_monte_carlo(seed: int, toy: bool, work_dir: Path) -> Workload:
    """Library-level sampling, estimation and one CSV-writing simulate call."""
    from complexou import GeneratorParams, PropagatorParams, SimConfig, checks, sde
    from complexou.quadrature import default_rule
    from complexou.semigroup import semigroup_mehler

    rng = np.random.default_rng(seed)
    s_exact, s_euler, s_halving, s_csv = (int(s) for s in rng.integers(1, 2**31, size=4))
    params = GeneratorParams(float(rng.uniform(-1.0, 1.0)))
    x0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    n_paths = 2000 if toy else 20000
    n_grid = 20 if toy else 200
    grid = tuple(4.0 * k / n_grid for k in range(n_grid + 1))
    exact_cfg = SimConfig(params=params, x0=x0, t_grid=grid, n_paths=n_paths, seed=s_exact)
    dt = 1.0 / 256.0
    euler_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    euler_cfg = SimConfig(
        params=params, x0=x0, t_grid=euler_grid, n_paths=n_paths, seed=s_euler,
        scheme="euler", dt=dt,
    )
    observable = random_observable(rng, 6)
    rule = default_rule(6)
    expected_pt = [
        semigroup_mehler(PropagatorParams(params, t), observable, x0, rule) for t in grid
    ]
    exact_means = np.array([PropagatorParams(params, t).decay * x0 for t in grid])
    euler_means = np.array(
        [(1.0 - params.drift * dt) ** round(t / dt) * x0 for t in euler_grid]
    )
    halving_t = 1.0
    m2 = {h: _euler_second_moment(params, x0, halving_t, h) for h in (dt, 2 * dt, 4 * dt)}
    stat_params = GeneratorParams(math.pi / 4)
    csv_path = work_dir / "simulate.csv"
    csv_paths = 200 if toy else 2000
    csv_times = [0.05 * k for k in range(1, 51)]
    csv_argv = [
        "sde", "simulate", f"--theta={params.theta!r}", f"--x0-re={x0.real!r}",
        f"--x0-im={x0.imag!r}", "--t", *[repr(t) for t in csv_times],
        "--paths", str(csv_paths), "--seed", str(s_csv), "--csv", str(csv_path),
    ]
    rows = csv_rows(csv_argv)

    ctx: dict = {}

    def exact_call():
        ctx["exact"] = sde.sample_exact(exact_cfg)
        return ctx["exact"]

    def exact_check(ens):
        return _within_se(*_mean_se(ens.states), exact_means)

    def replay_check(ens):
        if ens.states.tobytes() != ctx["exact"].states.tobytes():
            return "replaying the same SimConfig gave different states"
        return None

    def exact_measure(ens):
        return {"exact_steps": exact_cfg.n_paths * (len(grid) - 1)}

    def euler_check(ens):
        return _within_se(*_mean_se(ens.states), euler_means)

    def halving_check(rep):
        for diff, se, want in (
            (rep.diff_fine, rep.diff_fine_se, m2[2 * dt] - m2[dt]),
            (rep.diff_coarse, rep.diff_coarse_se, m2[4 * dt] - m2[2 * dt]),
        ):
            if abs(diff - want) > SE_GATE * se + 1e-12:
                return f"weak-error gap {diff:.6g} vs exact {want:.6g} (se {se:.3g})"
        return None

    def estimate_op(k):
        def call():
            return sde.estimate_pt(ctx["exact"], observable, k)

        def check(result):
            mean, se = result
            want = expected_pt[k]
            if abs(mean - want) > SE_GATE * se + 1e-9 * (1.0 + abs(want)):
                return f"estimate {mean:.6g} vs Mehler {want:.6g} (se {se:.3g}) at t={grid[k]}"
            return None

        return Op(f"estimate_pt[{k}]", call, check, lambda r: {"points": n_paths})

    def stationarity_call():
        # the library's own default seed: the report's 1%-level KS gate would
        # reject a correct sampler on about 2% of seeds (see README.md)
        t_burn = 6.0 * math.log(10.0) / stat_params.cos_theta
        return sde.stationarity_check(stat_params, 20000 if toy else 200000, t_burn,
                                      checks.DEFAULT_SEED)

    def csv_check(result):
        rc, out = result
        failure = envelope_failure(rc, out)
        if failure:
            return failure
        with open(csv_path, encoding="utf-8") as fh:
            written = sum(1 for _ in fh) - 1
        if written != rows:
            return f"csv has {written} rows, expected {rows}"
        for m in json.loads(out)["results"]["moments"]:
            mean = complex(m["mean"]["re"], m["mean"]["im"])
            want = complex(m["expected_mean"]["re"], m["expected_mean"]["im"])
            if abs(mean - want) > SE_GATE * m["mean_se"] + 1e-12 * (1.0 + abs(want)):
                return f"simulate mean {mean:.6g} vs {want:.6g} at t={m['t']}"
        return None

    ops = [
        Op("sample_exact", exact_call, exact_check, exact_measure),
        Op("sample_exact-replay", lambda: sde.sample_exact(exact_cfg), replay_check,
           exact_measure),
        Op("sample_euler", lambda: sde.sample_euler(euler_cfg), euler_check,
           lambda ens: {"euler_steps": n_paths * sum(euler_cfg.steps_per_gap())}),
        Op("euler_halving_probe",
           lambda: sde.euler_halving_probe(params, x0, halving_t, dt, n_paths, s_halving),
           halving_check),
        *[estimate_op(k) for k in range(len(grid))],
        Op("stationarity_check", stationarity_call,
           lambda rep: None if rep.passed else f"stationarity report failed: {rep}"),
        Op("sde simulate --csv", lambda: run_cli(csv_argv), csv_check,
           lambda result: {"csv_rows": rows}),
    ]

    def rate(p, key, names):
        work = sum(r.measured.get(key, 0) for r in p if r.name.startswith(names))
        busy = sum(r.seconds for r in p if r.name.startswith(names))
        return work / busy if busy > 0 else 0.0

    def summarize(passes):
        return {
            "exact_path_steps_per_s": (
                median_of(passes, lambda p: rate(p, "exact_steps", "sample_exact")), "1/s"),
            "euler_path_steps_per_s": (
                median_of(passes, lambda p: rate(p, "euler_steps", "sample_euler")), "1/s"),
            "estimate_points_per_s": (
                median_of(passes, lambda p: rate(p, "points", "estimate_pt")), "1/s"),
            "csv_rows_per_s": (
                median_of(passes, lambda p: rate(p, "csv_rows", "sde simulate")), "1/s"),
        }

    return Workload(ops, summarize=summarize, end_pass=ctx.clear)


# -- cli-requests -----------------------------------------------------------------


def hermite_terms(m: int, n: int) -> dict[tuple[int, int], float]:
    """J[m,n] coefficients from the closed form (the benchmark's own oracle)."""
    norm = 1.0 / math.sqrt(math.factorial(m) * math.factorial(n) * 2.0 ** (m + n))
    return {
        (m - r, n - r): norm * (-1) ** r * math.factorial(r) * 2.0**r
        * math.comb(m, r) * math.comb(n, r)
        for r in range(min(m, n) + 1)
    }


def _close(got: dict, want: dict, rtol: float) -> bool:
    scale = max([1.0] + [abs(v) for v in want.values()])
    keys = set(got) | set(want)
    return all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= rtol * scale for k in keys)


def _literal(rng, n_terms: int) -> str:
    """A seeded polynomial literal with ``n_terms`` terms in the CLI's expression grammar."""
    parts = []
    for _ in range(n_terms):
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        coeff = f"({rng.uniform(-2, 2):.2f}{rng.uniform(-2, 2):+.2f}*i)"
        mono = "*".join(f"{v}^{e}" for v, e in (("z", a), ("zbar", b)) if e)
        parts.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(parts)


# calls per pass of each request kind (120 in all)
CLI_MIX = {
    "hermite show": 16, "hermite show --route creation": 16, "hermite transform": 10,
    "operator eigen": 16, "operator gamma": 16, "semigroup apply": 16,
    "semigroup verify-normal": 10, "quad selftest": 10, "sde simulate --csv": 10,
}


def build_cli_requests(seed: int, toy: bool, work_dir: Path) -> Workload:
    """A fixed, seeded mix of small subcommands through ``cli.main``.

    Sizes that set a call's cost (Hermite indices and degrees, quadrature
    orders, literal lengths, which coefficient file) are spread evenly over
    their range and shuffled by the seed, so every seed gives a pass of the
    same work; the seed draws the values (angles, times, coefficients).
    """
    rng = np.random.default_rng(seed)
    lib_seed = int(rng.integers(1, 2**31))

    def even(lo: int, hi: int, kind: str) -> list[int]:
        """One size per call of ``kind``, spread evenly over lo..hi, in seeded order."""
        count = CLI_MIX[kind]
        return [int(x) for x in rng.permutation(
            [lo + (hi - lo + 1) * k // count for k in range(count)])]

    coeff_files = []
    for k, degree in enumerate((3, 5, 6, 8)):
        theta = float(rng.uniform(-1.2, 1.2))
        terms = {
            (m, n): complex(rng.standard_normal(), rng.standard_normal())
            for m in range(degree + 1) for n in range(degree + 1 - m)
        }
        path = work_dir / f"coeffs{k}.json"
        obj = {"theta": theta, "coeffs": [
            {"m": m, "n": n, "re": c.real, "im": c.imag} for (m, n), c in terms.items()]}
        path.write_text(json.dumps(obj), encoding="utf-8")
        coeff_files.append((path, theta, terms))

    def show(m, n, route):
        want = hermite_terms(m, n)

        def check(result):
            failure = envelope_failure(*result)
            if failure:
                return failure
            got = {(t["a"], t["b"]): complex(t["re"], t["im"])
                   for t in json.loads(result[1])["results"]["poly"]}
            return None if _close(got, want, 1e-10) else f"J[{m},{n}] coefficients differ"

        return ["hermite", "show", "--m", str(m), "--n", str(n), "--route", route], check

    def eigen():
        theta = float(rng.uniform(-1.5, 1.5))
        m, n = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        want = -complex((m + n) * math.cos(theta), (m - n) * math.sin(theta))

        def check(result):
            failure = envelope_failure(*result)
            if failure:
                return failure
            lam = json.loads(result[1])["results"]["lambda"]
            got = complex(lam["re"], lam["im"])
            return None if abs(got - want) <= 1e-12 * (1 + abs(want)) else f"lambda {got} != {want}"

        return ["operator", "eigen", f"--theta={theta!r}", "--m", str(m), "--n", str(n)], check

    def apply(k):
        path, theta, terms = coeff_files[k]
        t = float(rng.uniform(0.1, 2.0))
        want = {
            (m, n): c * np.exp(-complex((m + n) * math.cos(theta), (m - n) * math.sin(theta)) * t)
            for (m, n), c in terms.items()
        }

        def check(result):
            failure = envelope_failure(*result)
            if failure:
                return failure
            got = {(e["m"], e["n"]): complex(e["re"], e["im"])
                   for e in json.loads(result[1])["results"]["coeffs"]["coeffs"]}
            return None if _close(got, want, 1e-12) else "P_t coefficients differ"

        return ["semigroup", "apply", f"--t={t!r}", "--input", str(path)], check

    def simulate(k):
        theta = float(rng.uniform(-1.2, 1.2))
        times = sorted(float(x) for x in rng.uniform(0.05, 3.0, size=3))
        path = work_dir / f"sim{k}.csv"
        argv = ["sde", "simulate", f"--theta={theta!r}", "--x0-re=0.5", "--x0-im=-0.25",
                "--t", *[repr(t) for t in times], "--paths", "200", "--seed", str(lib_seed),
                "--csv", str(path)]
        rows = csv_rows(argv)

        def check(result):
            failure = envelope_failure(*result)
            if failure:
                return failure
            with open(path, encoding="utf-8") as fh:
                written = sum(1 for _ in fh) - 1
            return None if written == rows else f"csv has {written} rows, expected {rows}"

        return argv, check

    def plain(argv):
        return argv, lambda result: envelope_failure(*result)

    show_m = {route: even(0, 8, "hermite show") for route in ("explicit", "creation")}
    show_n = {route: even(0, 8, "hermite show") for route in ("explicit", "creation")}
    degrees = even(1, 16, "hermite transform")
    phi_terms, psi_terms = even(1, 4, "operator gamma"), even(1, 4, "operator gamma")
    files = even(0, len(coeff_files) - 1, "semigroup apply")
    orders = even(10, 24, "quad selftest")
    makers = {
        "hermite show": lambda k: show(show_m["explicit"][k], show_n["explicit"][k], "explicit"),
        "hermite show --route creation": lambda k: show(
            show_m["creation"][k], show_n["creation"][k], "creation"),
        "hermite transform": lambda k: plain(
            ["hermite", "transform", "--degree", str(degrees[k])]),
        "operator eigen": lambda k: eigen(),
        "operator gamma": lambda k: plain(
            ["operator", "gamma", "--phi", _literal(rng, phi_terms[k]),
             "--psi", _literal(rng, psi_terms[k]),
             f"--theta={float(rng.uniform(-math.pi / 3, math.pi / 3))!r}"]),
        "semigroup apply": lambda k: apply(files[k]),
        "semigroup verify-normal": lambda k: plain(
            ["semigroup", "verify-normal", f"--theta={float(rng.uniform(-1.2, 1.2))!r}",
             f"--t={float(rng.uniform(0.1, 3.0))!r}", "--seed", str(lib_seed)]),
        "quad selftest": lambda k: plain(["quad", "selftest", "--order", str(orders[k])]),
        "sde simulate --csv": simulate,
    }
    ops = []
    for kind, count in CLI_MIX.items():
        for k in range(1 if toy else count):
            argv, check = makers[kind](k)
            ops.append(Op(kind, lambda argv=argv: run_cli(argv), check))
    ops = [ops[i] for i in rng.permutation(len(ops))]

    def summarize(passes):
        samples = sorted(r.seconds for p in passes for r in p)
        deciles = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
        return {
            "call_p50_s": (deciles[4], "s"),
            "call_p90_s": (deciles[8], "s"),
            "call_samples": (float(len(samples)), "count"),
        }

    return Workload(ops, cache_per_op=True, summarize=summarize)


BUILDERS = {
    "verify-all": build_verify_all,
    "high-degree": build_high_degree,
    "monte-carlo": build_monte_carlo,
    "cli-requests": build_cli_requests,
}


# -- environment, set-up, the run ---------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": THREAD_CAP,
        "malloc_thresholds": MALLOC_THRESHOLDS if MALLOC_PINNED else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Wall and CPU times of fresh interpreters that import the library and build the inputs."""
    wall, cpu = [], []
    for _ in range(reps):
        start, cpu_start = perf_counter(), _children_cpu()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        wall.append(perf_counter() - start)
        cpu.append(_children_cpu() - cpu_start)
    return wall, cpu


@contextlib.contextmanager
def scratch_dir():
    """A private directory for the run's input and output files, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def build(workload: str, seed: int, toy: bool, work_dir: Path) -> Workload:
    import complexou  # noqa: F401
    import complexou.cli  # noqa: F401

    return BUILDERS[workload](seed, toy, work_dir)


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        min_passes: int = MIN_PASSES, setup_reps: int = SETUP_REPS,
        extra_ops=()) -> tuple[dict, dict]:
    """Run one workload; return (report, result)."""
    with scratch_dir() as work_dir:
        setup_wall, setup_cpu = ([], []) if trace else measure_setup(workload, seed, setup_reps)
        wl = build(workload, seed, toy, work_dir)
        wl.ops.extend(extra_ops)
        cache = HermiteCache()
        warm = run_pass(wl, cache)  # discarded: first-call costs belong to setup
        if trace:
            timed = timed_passes(wl, cache, seconds / 2, min_passes)
            traced, metrics = traced_passes(wl, cache, seconds / 2, min_passes, timed,
                                            workload, seed)
            all_passes = [warm] + timed + traced
        else:
            timed = timed_passes(wl, cache, seconds, min_passes)
            all_passes = [warm] + timed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": statistics.median(setup_cpu),
                "pass_cpu_s": median_of(timed, pass_cpu_seconds),
                "peak_rss_mb": rss_mb,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    results = [r for p in all_passes for r in p]
    failures = [r for r in results if r.failure]
    unexpected = [r for r in failures if r.raised or r.name not in wl.known_failures]
    report_metrics = dict(metrics)
    if trace:
        report_metrics["untraced_pass_s"] = (median_of(timed, pass_seconds), "s")
        report_metrics["traced_pass_s"] = (median_of(traced, pass_seconds), "s")
    else:
        report_metrics["setup_wall_s"] = (statistics.median(setup_wall), "s")
        report_metrics["pass_s"] = (median_of(timed, pass_seconds), "s")
        report_metrics.update(wl.summarize(timed))
    report_metrics["failed_ratio"] = (len(failures) / len(results), "ratio")
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "load": "closed loop, 1 client, 1 process, no overlapping ops",
        "passes_timed": len(timed),
        "pass_times_s": [pass_seconds(p) for p in timed],
        "pass_cpu_times_s": [pass_cpu_seconds(p) for p in timed],
        "ops_per_pass": len(wl.ops),
        "setup_runs_s": setup_wall,
        "setup_runs_cpu_s": setup_cpu,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report_metrics.items()},
        "failures": _failure_summary(failures),
        "known_failures": sorted(wl.known_failures),
        "environment": environment(),
    }
    result = {
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def _failure_summary(failures: list[OpResult]) -> dict:
    summary: dict = {}
    for r in failures:
        entry = summary.setdefault(r.name, {"count": 0, "message": r.failure})
        entry["count"] += 1
    return summary


def traced_passes(wl, cache, seconds, min_passes, untraced, workload, seed):
    """Timed passes with every layer wrapped; returns them and the per-layer metrics."""
    from layers import install, layer_metrics, metric_units
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    cache.counting = True
    cache.hits = cache.misses = 0
    try:
        traced = timed_passes(wl, cache, seconds, min_passes, tracer)
    finally:
        tracer.uninstall()
        cache.clear()  # folds the last pass's hits and misses in
        cache.counting = False
    overhead = median_of(traced, pass_seconds) - median_of(untraced, pass_seconds)
    values = layer_metrics(tracer, len(traced), cache.hits, cache.misses, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    units = metric_units()
    return traced, {k: (v, units[k]) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library and build the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "complexou" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'complexou'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with scratch_dir() as work_dir:
            build(args.workload, args.seed, False, work_dir)
        return 0
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
