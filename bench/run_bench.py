"""rwslice benchmark: one workload, timed end to end through the CLI, or
layer by layer in a traced run.

    python3 bench/run_bench.py --workload ac_soup --seed 1 --seconds 30 --trace 0

Runs the workload in a child process (bench/worker.py) under a wall-clock
limit, prints every metric by name with its unit, and as the last line of
standard output one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; set-up is repeated in fresh child processes and its median
reported. With --trace 1 they are the per-layer ones, and the spans go to
bench/out/. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up runs per untraced run, the first one in the measured child.
SETUP_RUNS = 7
# Wall-clock limits: the whole run, and each set-up-only child.
RUN_LIMIT_S = 170.0
SETUP_LIMIT_S = 20.0


def child(args: list[str], result: Path, timeout: float) -> dict:
    """Run worker.py with the arguments; its result, or SystemExit when it
    fails or overruns."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(result)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run_bench: worker exceeded its {timeout:.0f} s limit: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run_bench: worker exited with {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rwslice" / "cli.py").is_file():
        raise SystemExit(f"run_bench: no rwslice sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only(i: int) -> list[tuple[float, float]]:
        remaining = deadline - time.monotonic()
        if args.trace or remaining < 1.0:
            return []
        setup = child([*common, "--setup-only"], OUT / f"setup-{tag}-{i}.json", min(SETUP_LIMIT_S, remaining))
        return [(setup["setup_s"], setup["setup_wall_s"])]

    # set-up runs before and after the measured child, so that their
    # median spans more than one stretch of the machine's speed
    setups = [s for i in range(SETUP_RUNS // 2) for s in setup_only(i)]
    result = child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                   OUT / f"result-{tag}.json", deadline - time.monotonic() - SETUP_LIMIT_S)
    setups.append((result["setup_s"], result["setup_wall_s"]))
    setups += [s for i in range(SETUP_RUNS // 2, SETUP_RUNS - 1) for s in setup_only(i)]
    metrics = result["metrics"]
    notes = result["notes"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"}, **metrics}
        notes["setup_s"] = f"median of {len(setups)} set-ups, wall {statistics.median(w for _, w in setups):.4g} s"

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {notes['requests']} requests, "
          f"calibration median {notes['calibration_s']:.4g} s")
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:24s} {metric['value']:<14.6g} {metric['unit']:6s} {note}")
    if not args.trace:
        print(f"  {'fail_share':24s} {notes['fail_share']:<14.6g} {'share':6s} "
              f"{result['failed']} of {result['attempted']} attempted")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
