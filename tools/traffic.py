#!/usr/bin/env python3
"""Print which complexou functions each benchmark workload reaches.

    python3 tools/traffic.py [--workload NAME] [--seed N] [--toy]

For each workload of ``perfbench/run.py`` (or only the one named), prints one
JSON object: workload -> {"setup": [...], "pass": [...]}, each a sorted list
of the ``module.qualname`` of every complexou function called.  ``setup``
covers importing the library and building the inputs, the work that
``setup_s`` times; ``pass`` covers one pass over the workload's ops.  Calls are
recorded with ``sys.setprofile``.  Each workload runs in a fresh interpreter,
as ``setup_s`` does, so no cache filled by another workload hides a call.
The builders and the pass are imported from ``perfbench/run.py`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (sets the benchmark's thread cap before numpy loads)

sys.path.insert(0, str(run.SRC))


def reached(fn) -> tuple[object, list[str]]:
    """fn() and the sorted module.qualname of every complexou function it calls."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.partition(".")[0] == "complexou":
                seen.add(f"{module}.{frame.f_code.co_qualname}")

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, sorted(seen)


def traffic(workload: str, seed: int, toy: bool) -> dict[str, list[str]]:
    with run.scratch_dir() as work_dir:
        built, setup = reached(lambda: run.build(workload, seed, toy, work_dir))
        _, one_pass = reached(lambda: run.run_pass(built, run.HermiteCache()))
    return {"setup": setup, "pass": one_pass}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--toy", action="store_true", help="the workloads' small inputs")
    args = parser.parse_args(argv)
    if args.workload:
        out = {args.workload: traffic(args.workload, args.seed, args.toy)}
    else:
        out = {}
        for workload in run.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            text = subprocess.run(cmd + ["--toy"] * args.toy, check=True,
                                  stdout=subprocess.PIPE, text=True).stdout
            out.update(json.loads(text))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
