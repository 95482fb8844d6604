"""Fast smoke test of the benchmark, outside the tier-1 test paths.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at toy size (one timed pass, small inputs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Metrics each workload reports beside the gated end-to-end ones.
WALL = {"setup_wall_s": "s", "pass_s": "s"}
REPORTED = {
    "verify-all": {"verify_det_s": "s", "verify_mc_s": "s", "worst_log10_headroom": "log10"},
    "high-degree": {"worst_log10_headroom": "log10"},
    "monte-carlo": {
        "exact_path_steps_per_s": "1/s", "euler_path_steps_per_s": "1/s",
        "estimate_points_per_s": "1/s", "csv_rows_per_s": "1/s",
    },
    "cli-requests": {"call_p50_s": "s", "call_p90_s": "s", "call_samples": "count"},
}


def toy_run(workload, trace=False, extra_ops=()):
    return run.run(workload, seed=7, seconds=0, trace=trace, toy=True, min_passes=1,
                   setup_reps=1, extra_ops=extra_ops)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload):
    report, result = toy_run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(result["metrics"]) == gated
    assert all(m["value"] > 0 for m in result["metrics"].values())
    want = {**gated, **WALL, **REPORTED[workload], "failed_ratio": "ratio"}
    assert units(report["metrics"]) == want
    assert set(report["environment"]) >= {
        "python", "numpy", "scipy", "blas_thread_cap", "nproc", "cpu_model", "git_commit"}
    assert result["correct"], report["failures"]


def test_high_degree_known_failures_stay_counted():
    report, result = toy_run("high-degree")
    # the toy keeps one passing op and one known failing op
    assert result["correct"]
    assert set(report["failures"]) == {"expansion-roundtrip-12"}
    assert report["metrics"]["failed_ratio"]["value"] == pytest.approx(0.5)


def test_injected_failures_raise_failed_ratio():
    def boom():
        raise RuntimeError("injected")

    extra = [
        run.Op("injected-check", lambda: 1, lambda out: "injected wrong output"),
        run.Op("injected-raise", boom, lambda out: None),
    ]
    base_report, base = toy_run("cli-requests")
    report, result = toy_run("cli-requests", extra_ops=extra)
    # two bad ops in the warm-up pass and in the one timed pass
    assert result["attempted"] == base["attempted"] + 4
    assert result["failed"] == base["failed"] + 4
    assert not result["correct"]
    assert set(report["failures"]) == {"injected-check", "injected-raise"}
    ratio = report["metrics"]["failed_ratio"]["value"]
    assert ratio > base_report["metrics"]["failed_ratio"]["value"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    report, result = toy_run(workload, trace=True)
    assert result["correct"], report["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(result["metrics"]) == want
    if workload == "cli-requests":
        assert result["metrics"]["cli.main.calls"]["value"] == len(run.CLI_MIX)
        assert result["metrics"]["expr.parse.calls"]["value"] == 2  # one gamma call: phi, psi


def test_traced_counts_match_cprofile():
    import profile_counts

    counts = profile_counts.compare_counts("cli-requests", seed=7, toy=True)
    assert counts["poly.mul.calls"][0] > 0
    assert all(profiled == traced for profiled, traced in counts.values()), counts
