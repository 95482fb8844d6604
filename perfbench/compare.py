#!/usr/bin/env python3
"""Compare two result sets of the benchmark (a base and a change).

Collect alternating-order pairs, each pair with its own seed; the base runs
first in even pairs and second in odd ones:

    python3 perfbench/compare.py run --base ../parent --change . \\
        --workload verify-all --workload cli-requests --pairs 10 --out runs

This writes runs/base.jsonl and runs/change.jsonl.  Then:

    python3 perfbench/compare.py report runs/base.jsonl runs/change.jsonl

prints, for every end-to-end metric of BENCHMARK.json, one row per workload:
each side's median and quartiles, the change's win share over the pairs (ties
count for neither side), the change in median as a share of the base median,
and a verdict (none below 10 pairs).  A metric is "unresolved" when the base runs' spread
(quartile distance over median) exceeds its bound, unless every change run
beats every base run.  A gain needs a win share of at least 0.9 and a median
difference larger than the base's quartile distance; a regression is a median
worse than the base's by more than the bound.

    python3 perfbench/compare.py spread runs/base.jsonl

prints each workload's and metric's quartile distance over median, the check
the benchmark's own steadiness is held to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # fewer pairs give no verdict


def load_spec(path: Path = SPEC) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def read_runs(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_pairs(args) -> int:
    spec = load_spec(Path(args.base) / "BENCHMARK.json")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {side: open(out / f"{side}.jsonl", "a", encoding="utf-8")
             for side in ("base", "change")}
    try:
        for workload in args.workload:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    proc = subprocess.run(
                        [*spec["command"], "--workload", workload, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", "0"],
                        cwd=getattr(args, side), capture_output=True, text=True, timeout=900,
                    )
                    if proc.returncode != 0:
                        print(proc.stderr, file=sys.stderr)
                        return proc.returncode
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    record = {"workload": workload, "pair": pair, "seed": seed,
                              "position": position, "result": result}
                    files[side].write(json.dumps(record) + "\n")
                    files[side].flush()
                    print(f"{workload} pair {pair} {side}: correct={result['correct']}",
                          file=sys.stderr)
    finally:
        for fh in files.values():
            fh.close()
    return 0


def _values(runs: list[dict], workload: str, metric: str) -> dict[int, float]:
    return {
        r["pair"]: r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["result"]["metrics"]
    }


def compare(base: list[dict], change: list[dict], spec: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in workloads:
            b, c = _values(base, workload, name), _values(change, workload, name)
            pairs = sorted(set(b) & set(c))
            if not pairs:
                continue
            bq, cq = quartiles([b[p] for p in pairs]), quartiles([c[p] for p in pairs])

            def better(x, y):
                return x < y if lower else x > y

            wins = sum(better(c[p], b[p]) for p in pairs)
            losses = sum(better(b[p], c[p]) for p in pairs)
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else float("inf")
            change_share = (cq[1] - bq[1]) / bq[1] if bq[1] else float("inf")
            worse_share = change_share if lower else -change_share
            all_better = all(better(c[p], b[q]) for p in pairs for q in pairs)
            if len(pairs) < MIN_PAIRS:
                verdict = "too few pairs"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
                verdict = "gain"
            elif worse_share > bound:
                verdict = "regression"
            else:
                verdict = "within bound"
            rows.append({
                "metric": name, "workload": workload, "pairs": len(pairs),
                "base": bq, "change": cq, "win_share": wins / len(pairs),
                "loss_share": losses / len(pairs), "median_change": change_share,
                "base_spread": spread, "bound": bound, "verdict": verdict,
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    head = (f"{'metric':<12} {'workload':<13} {'n':>3} {'base q1/med/q3':>32} "
            f"{'change q1/med/q3':>32} {'win':>5} {'loss':>5} {'d_med':>7} {'spread':>7} "
            f"{'bound':>5}  verdict")
    print(head)
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["base"]), "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['metric']:<12} {r['workload']:<13} {r['pairs']:>3} {fmt[0]:>32} {fmt[1]:>32} "
              f"{r['win_share']:>5.2f} {r['loss_share']:>5.2f} {r['median_change']:>+7.3f} "
              f"{r['base_spread']:>7.3f} {r['bound']:>5.2f}  {r['verdict']}")


def spread(runs: list[dict], spec: dict) -> bool:
    """Print quartile distance over median per workload and metric; True if all steady."""
    steady = True
    for workload in sorted({r["workload"] for r in runs}):
        for metric in spec["end_to_end"]:
            values = list(_values(runs, workload, metric["name"]).values())
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or share <= metric["bound"] / 3
            steady &= ok
            print(f"{workload:<13} {metric['name']:<12} n={len(values):<3} median={med:<12.6g} "
                  f"iqr/median={share:.4f} bound={metric['bound']:.2f} "
                  f"{'ok' if ok else 'SPREAD'}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="collect alternating-order pairs from two checkouts")
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--out", required=True, help="directory for base.jsonl and change.jsonl")
    p = sub.add_parser("report", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("change")
    p = sub.add_parser("spread", help="steadiness of one result set")
    p.add_argument("runs")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.mode == "run":
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return run_pairs(args)
    if args.mode == "report":
        print_rows(compare(read_runs(Path(args.base)), read_runs(Path(args.change)), spec))
        return 0
    return 0 if spread(read_runs(Path(args.runs)), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
