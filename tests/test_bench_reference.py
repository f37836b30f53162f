"""The benchmark's reports, checked in the tier-1 suite: every spec of the
three pools (`bench/workloads.py`) goes through `cli.main`, and the sha256
of its report must be the one `bench/reference.json` holds. The trace_replay
trace is recorded in a temporary directory as the bench worker's set-up
records it. Nothing under `bench/` is written."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from rwslice import cli
from rwslice.engine import run
from rwslice.theoryfile import parse_term, parse_theory
from rwslice.tracefile import save_trace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _workloads(monkeypatch):
    """bench/workloads.py as a module, registered while the test runs (its
    dataclass looks its module up)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_reports_match_the_reference(tmp_path, monkeypatch):
    wl = _workloads(monkeypatch)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    digests = {}
    for workload in wl.WORKLOADS:
        pool = [spec for variants in wl.pool(workload, ROOT, tmp_path) for spec in variants]
        if workload == "trace_replay":
            spec = pool[0]
            th = parse_theory(Path(spec.theory).read_text(encoding="utf-8"), name=os.path.basename(spec.theory))
            trace = run(parse_term(spec.init, th.signature), th, wl.REPLAY_RULE_STEPS, max_steps=wl.MAX_STEPS)
            save_trace(trace, spec.trace)
        for spec in pool:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(spec.argv()) == 0, spec.id
            digests.setdefault(workload, {})[spec.id] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert sum(len(d) for d in digests.values()) == 71
    assert digests == reference
