"""Reproducibility check for the benchmark's seeds.

    python3 bench/check_repro.py [--workload wide_state] [--seed 7]

Runs one traced pass of the workload twice, under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2, and compares the request order, every report digest and
the exact work counts. Exits 0 when the two runs agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
EXACT = ("engine.steps.", "acmatch.match_calls", "labeling.labels", "slicer.relevant")


def one_pass(workload: str, seed: int, hash_seed: str) -> dict:
    out = BENCH / "out" / f"repro-{workload}-{seed}-{hash_seed}-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1", "--out", str(out)]
    subprocess.run(cmd, check=True, timeout=170, env={**os.environ, "PYTHONHASHSEED": hash_seed})
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="wide_state", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    a, b = (one_pass(args.workload, args.seed, h) for h in ("1", "2"))
    counts = [{k: r["metrics"][k]["value"] for k in r["metrics"] if k.startswith(EXACT)} for r in (a, b)]
    problems = []
    if not (a["correct"] and b["correct"]):
        problems.append(f"a run failed its checks: {a['problems'] + b['problems']}")
    if a["digests"] != b["digests"]:
        problems.append("request order or report digests differ between hash seeds")
    if counts[0] != counts[1]:
        problems.append(f"exact counts differ: {counts[0]} vs {counts[1]}")
    print(f"{args.workload} seed {args.seed}: {len(a['digests'])} requests, "
          f"{len(counts[0])} exact counts compared under PYTHONHASHSEED=1 and 2")
    for problem in problems:
        print(f"  problem: {problem}")
    print("reproducible" if not problems else "NOT reproducible")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
