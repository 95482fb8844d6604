#!/usr/bin/env python3
"""Write BENCH_<pr>.json, a benchmark snapshot of one checkout.

The script runs the checkout's own, unmodified ``perfbench/run.py`` on the
four workloads of its ``BENCHMARK.json``, for ``run_seconds`` each.  Each
workload gets 3 untraced runs on seeds 1-3, which give the gated end-to-end
metrics, and one traced run on seed 1, which gives the per-layer metrics.
Run from the repository root:

    python3 tools/bench_snapshot.py --pr N
    python3 tools/bench_snapshot.py --pr M --root ../parent-checkout

The file is always written as BENCH_<pr>.json next to this ``tools/``
directory.  For each workload it holds:

- every gated metric's median over the untraced runs, with the runs' values;
- the traced run's per-layer metrics;
- each run's correctness, and its failed ops with their messages.

It also holds ``tier1``, the passed, failed and error counts and the wall
time of one Tier-1 run (``python -m pytest -q -p no:cacheprovider
--continue-on-collection-errors`` in the checkout, with its ``src`` on
``PYTHONPATH``; a module that fails to import or a fixture that raises counts
as an error), since the test suite's time is an
end-to-end measure too; the environment from the first report line (Python,
numpy, scipy, the CPU, the thread cap and the git commit); and
``uncommitted``, the tracked files in which the measured checkout differs
from that commit, so a snapshot of an uncommitted tree says so.  Every
subprocess runs with ``PYTHONDONTWRITEBYTECODE=1``, so the first run writes
no bytecode cache that the later ones read, and ``pycache`` records whether
the measured ``src/complexou/`` held a ``__pycache__`` before the runs (a
cache alone moves monte-carlo's ``peak_rss_mb`` and ``setup_s``).  Diff two
snapshots only when one machine made both.  A speed-up claim still needs the
alternating pairs of ``perfbench/compare.py``; two snapshots run one after the
other share the host's drift.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# the environment of every subprocess: no run writes a bytecode cache that a
# later one would import from
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """(report, result) of one run.py call in ``root``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=ENV, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} (seed {seed}, trace {trace}) exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


RUNS = 3
SEEDS = list(range(1, RUNS + 1))


def uncommitted(root: Path) -> list[str]:
    """Tracked files of ``root`` that differ from its HEAD, from git status."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return sorted(line[3:] for line in proc.stdout.splitlines())


def tier1(root: Path) -> dict:
    """Passed, failed and error counts and wall seconds of one Tier-1 run in ``root``."""
    env = dict(ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True, timeout=1800,
    )
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().rpartition("\n")[2]
    # "error" also matches the plural "errors"
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "wall_s": round(wall, 2)}


def snapshot(root: Path, pr: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    gated = [m["name"] for m in spec["end_to_end"]]
    out: dict = {"pr": pr, "command": spec["command"], "seconds": seconds, "runs": RUNS,
                 "uncommitted": uncommitted(root),
                 "pycache": (root / "src" / "complexou" / "__pycache__").is_dir(),
                 "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [run_once(root, spec["command"], name, s, seconds, 0) for s in SEEDS]
        _, traced = run_once(root, spec["command"], name, SEEDS[0], seconds, 1)
        out.setdefault("environment", untraced[0][0]["environment"])
        values = {m: [result["metrics"][m]["value"] for _, result in untraced] for m in gated}
        out["workloads"][name] = {
            "seeds": SEEDS,
            "gated": {
                m: {"median": statistics.median(v), "unit": untraced[0][1]["metrics"][m]["unit"],
                    "runs": v}
                for m, v in values.items()
            },
            "correct": [result["correct"] for _, result in untraced],
            "failures": [rep["failures"] for rep, _ in untraced],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
        print(f"{name}: pass_cpu_s median {statistics.median(values['pass_cpu_s']):.4g} s",
              file=sys.stderr)
    out["tier1"] = tier1(root)
    print(f"tier1: {out['tier1']}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout to measure (default: this repository)")
    args = parser.parse_args(argv)
    data = snapshot(args.root.resolve(), args.pr)
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
