"""One benchmark workload, run in a child process of run_bench.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out R.json
    python3 bench/worker.py --workload W --seed N --setup-only --out R.json
    python3 bench/worker.py --write-reference

Set-up imports rwslice from the checkout's src/, builds the seed's request
stream and, for trace_replay, records the trace file. Both runs make whole
passes over the stream until a pass ends after S seconds, one request at a
time (a closed loop with one client). The untraced run (--trace 0) sends
each request through rwslice.cli.main. The traced run (--trace 1) calls
the CLI once untraced per request, then composes the same report from the
modules' public functions with a span around each call, and compares the
two byte for byte. Every request runs under a wall-clock limit. Reports
are checked by checker.py against the original trace terms, the criterion
and the digests in reference.json, and the golden reports of the
acceptance gate are reproduced as check-only requests. The result goes to
R.json as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import checker
import workloads
from workloads import MAX_STEPS, Spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# set-up time runs from here: importing rwslice is part of it
SETUP_START = time.perf_counter()
sys.path.insert(0, str(SRC))
import rwslice  # noqa: E402
from rwslice import cli, engine, labeling, report, slicer, terms, theoryfile, tracefile  # noqa: E402

if not Path(rwslice.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"rwslice was imported from {rwslice.__file__}, not from {SRC}")

# A request running longer than this is stopped and counted as failed.
REQUEST_LIMIT_S = 30.0
# Untraced runs calibrate between requests at most this often.
CALIBRATE_EVERY_S = 1.0

LAYER_SPANS = (
    "theoryfile.parse", "tracefile.load", "engine.run", "engine.check",
    "labeling.label", "slicer.backward", "slicer.slice_term", "slicer.assemble",
    "report.render",
)
STEP_KINDS = ("rule", "equation", "builtin", "flat", "unflat")


class RequestOverrun(BaseException):
    """Raised by the interval timer; a BaseException so that the CLI's
    own `except Exception` cannot swallow it."""


def _overrun(signum, frame):
    raise RequestOverrun()


@contextlib.contextmanager
def request_limit():
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def record(theory: str, init: str, rule_steps: int):
    """The engine's trace for a spec, recorded through the library."""
    th = theoryfile.parse_theory(Path(theory).read_text(encoding="utf-8"), name=os.path.basename(theory))
    return engine.run(theoryfile.parse_term(init, th.signature), th, rule_steps, max_steps=MAX_STEPS)


def setup(workload: str, seed: int, work: Path) -> workloads.Stream:
    """Everything before the first request apart from importing rwslice:
    the seed's request stream and, for trace_replay, the trace file."""
    stream = workloads.Stream(workload, seed, ROOT, work)
    if workload == "trace_replay":
        spec = stream.specs[0]
        tracefile.save_trace(record(spec.theory, spec.init, workloads.REPLAY_RULE_STEPS), spec.trace)
    return stream


def cli_request(spec: Spec) -> dict:
    """One untraced rwslice invocation; records its wall time, exit status
    and output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with request_limit(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(spec.argv())
    except RequestOverrun:
        code = f"stopped after {REQUEST_LIMIT_S} s"
    except SystemExit as exc:  # argparse rejects the argv
        code = f"exit {exc.code}"
    seconds = time.perf_counter() - start
    return {"spec": spec.id, "seconds": seconds, "code": code, "text": out.getvalue(),
            "stderr": err.getvalue()[-500:]}


class Tracer:
    """Spans kept in memory until the run ends. A span is [name, start,
    end, parent span index, request id]. Calls too frequent for a span of
    their own (acmatch) are aggregated on the enclosing span as
    [calls, calls with a result, seconds]."""

    def __init__(self):
        self.spans: list[list] = []
        self.aggregates: dict[int, dict[str, list]] = {}
        self.request: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        entry = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.request]
        self._open.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._open.pop()

    def aggregate(self, name: str, seconds: float, hit: bool):
        agg = self.aggregates.setdefault(self._open[-1], {}).setdefault(name, [0, 0, 0.0])
        agg[0] += 1
        agg[1] += hit
        agg[2] += seconds

    def self_times(self, scale: list[float]) -> dict[str, float]:
        """Total self time per span name, and total time per aggregate,
        each request's times multiplied by its entry in `scale`. A span's
        self time is its duration minus its children's durations and the
        aggregated time of calls made inside it."""
        covered = [0.0] * len(self.spans)
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for index, aggs in self.aggregates.items():
            for name, (_, _, seconds) in aggs.items():
                covered[index] += seconds
                totals[name] += seconds * scale[self.spans[index][4]]
        for index, (name, start, end, _, request) in enumerate(self.spans):
            totals[name] += (end - start - covered[index]) * scale[request]
        return dict(totals)

    def write(self, path: Path, request_specs: list[str]):
        payload = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "aggregates": [[i, name, *agg] for i, aggs in sorted(self.aggregates.items())
                           for name, agg in aggs.items()],
            "requests": request_specs,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the calls made inside other layers: check_step as called from
    labeling and tracefile, and match_modulo_ac as called from the engine."""
    check_step = engine.check_step
    match_modulo_ac = engine.match_modulo_ac

    def traced_check(*args, **kwargs):
        with tracer.span("engine.check"):
            return check_step(*args, **kwargs)

    def counted_match(*args, **kwargs):
        start = time.perf_counter()
        result = match_modulo_ac(*args, **kwargs)
        tracer.aggregate("acmatch.match", time.perf_counter() - start, bool(result))
        return result

    labeling.check_step = tracefile.check_step = traced_check
    engine.match_modulo_ac = counted_match
    try:
        yield
    finally:
        labeling.check_step = tracefile.check_step = check_step
        engine.match_modulo_ac = match_modulo_ac


def composed_request(spec: Spec, tracer: Tracer):
    """The CLI's work for one request, layer by layer in the order
    rwslice.cli.main and rwslice.slicer.trace_slice call them."""
    with tracer.span("request"):
        theory_text = Path(spec.theory).read_text(encoding="utf-8")
        with tracer.span("theoryfile.parse"):
            th = theoryfile.parse_theory(theory_text, name=os.path.basename(spec.theory))
        with tracer.span("theoryfile.parse"):
            init = theoryfile.parse_term(spec.init, th.signature)
        if spec.trace is not None:
            with tracer.span("tracefile.load"):
                trace = tracefile.load_trace(spec.trace, th)
            if trace.initial != init:
                raise ValueError("--init does not match the trace's initial term")
        else:
            with tracer.span("engine.run"):
                trace = engine.run(init, th, spec.steps, max_steps=MAX_STEPS)
        criterion = frozenset(terms.Position.parse(p) for p in spec.criterion.split(",") if p.strip())
        labeled = []
        for step in trace.steps:
            with tracer.span("labeling.label"):
                labeled.append(labeling.label_step(step, trace.theory, labeling.LabelSupply(0)))
        with tracer.span("slicer.backward"):
            sets = slicer.relevant_positions(trace, labeled, criterion)
        slices = []
        for term, relevant in zip(trace.terms(), sets):
            with tracer.span("slicer.slice_term"):
                slices.append(slicer.slice_term(term, relevant))
        with tracer.span("slicer.assemble"):
            ts = _assemble(trace, criterion, sets, slices)
        with tracer.span("report.render"):
            text = report.SliceReport(ts, theory_name=th.name, seed=0).render_structured()
    return text, trace, labeled, ts


def traced_request(spec: Spec, tracer: Tracer):
    """composed_request under the request limit and the wrappers; its
    result and None, or None and the reason it failed."""
    try:
        with request_limit(), instrumented(tracer):
            return composed_request(spec, tracer), None
    except (Exception, RequestOverrun) as exc:
        return None, f"traced request failed: {type(exc).__name__}: {exc}"


def _assemble(trace, criterion, sets, slices):
    """The tail of trace_slice: kept steps and trace sizes."""
    kept = [
        slicer.SlicedStep(i, step.kind, step.rule_name, step.position, slices[i], slices[i + 1])
        for i, step in enumerate(trace.steps)
        if slices[i] != slices[i + 1]
    ]
    ts = slicer.TraceSlice(trace=trace, criterion=criterion, relevant=sets, slices=slices, steps=kept,
                         original_size=len(slicer.trace_string(trace.terms())), sliced_size=0,
                         reduction_percent=0.0)
    ts.sliced_size = len(slicer.trace_string(ts.glued_terms()))
    if ts.original_size:
        ts.reduction_percent = 100.0 * (1.0 - ts.sliced_size / ts.original_size)
    return ts


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten values above it, and its
    percentile; the maximum (percentile 100) when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def original_terms(spec: Spec) -> list:
    """The original trace terms of a spec, parsed by the checker: from its
    trace file, or from the engine's run recorded through the library."""
    if spec.trace is not None:
        text = Path(spec.trace).read_text(encoding="utf-8")
    else:
        text = tracefile.render_trace(record(spec.theory, spec.init, spec.steps))
    return [checker.parse_term(t) for t in checker.trace_terms(text)]


class Run:
    """Requests of one run and their correctness verdicts."""

    def __init__(self, workload: str):
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
        self.requests: list[dict] = []
        self.problems: list[str] = []
        self.first_text: dict[str, str] = {}

    def add(self, spec: Spec, rec: dict):
        rec["digest"] = checker.digest(rec["text"])
        rec["ok"] = rec["code"] == 0 and rec["digest"] == self.reference.get(spec.id)
        rec["steps"] = 0
        if rec["code"] != 0:
            self.problems.append(f"{spec.id}: {rec['code']} {rec['stderr'].strip()}")
        else:
            if not rec["ok"]:
                self.problems.append(f"{spec.id}: report digest differs from reference.json")
            try:
                rec["steps"] = checker.report_term_count(rec["text"]) - 1
            except ValueError as exc:
                rec["ok"] = False
                self.problems.append(f"{spec.id}: {exc}")
            self.first_text.setdefault(spec.id, rec["text"])
        rec["text"] = None
        self.requests.append(rec)

    def check(self, specs: dict[str, Spec]):
        """Structural checks on the first report of every spec (a later
        report of a spec that differs from it fails its digest check), then
        the golden reports."""
        bad = set()
        for spec_id, text in self.first_text.items():
            spec = specs[spec_id]
            try:
                found = checker.check_report(text, original_terms(spec), spec.criterion)
            except ValueError as exc:
                found = [f"unreadable report: {exc}"]
            if found:
                bad.add(spec_id)
                self.problems.extend(f"{spec_id}: {p}" for p in found[:5])
        for rec in self.requests:
            if rec["spec"] in bad:
                rec["ok"] = False
        self.golden_failed = 0
        for spec, path in workloads.golden_specs(ROOT):
            rec = cli_request(spec)
            if rec["code"] != 0 or rec["text"] != path.read_text(encoding="utf-8"):
                self.golden_failed += 1
                self.problems.append(f"{spec.id}: report differs from {path.name}")

    def summary(self) -> dict:
        attempted = len(self.requests) + len(workloads.GOLDEN_RUNS)
        failed = sum(not r["ok"] for r in self.requests) + self.golden_failed
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "problems": self.problems[:50],
                "digests": [[r["spec"], r["digest"]] for r in self.requests]}


def passes(stream, seconds: float):
    """(pass number, spec) over whole passes of the stream, until a pass
    ends after `seconds`. Whole passes keep the mix of request costs the
    same in every run."""
    start = time.perf_counter()
    number = 0
    while number == 0 or time.perf_counter() - start < seconds:
        for spec in stream.next_pass():
            yield number, spec
        number += 1


class Calibrations:
    """Calibrations before the first request, at most once every
    CALIBRATE_EVERY_S between requests, and after the last one."""

    def __init__(self):
        self.samples = [(time.perf_counter(), calibrate.calibration())]
        self._before: list[int] = []

    def before_request(self):
        if time.perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.samples.append((time.perf_counter(), calibrate.calibration()))
        self._before.append(len(self.samples) - 1)

    def close(self):
        self.samples.append((time.perf_counter(), calibrate.calibration()))

    def factors(self) -> list[float]:
        """Per request, the factor that scales its wall time: the mean of
        the calibrations just before and just after it."""
        return [calibrate.scale(1.0, (self.samples[i][1] + self.samples[i + 1][1]) / 2)
                for i in self._before]

    def median(self) -> float:
        return statistics.median(c for _, c in self.samples)


def untraced(workload: str, stream, seconds: float) -> dict:
    """Requests through the CLI, their times scaled by calibration."""
    run = Run(workload)
    calibrations = Calibrations()
    for _, spec in passes(stream, seconds):
        calibrations.before_request()
        run.add(spec, cli_request(spec))
    calibrations.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check({s.id: s for s in stream.specs})

    wall = [r["seconds"] for r in run.requests]
    times = [w * f for w, f in zip(wall, calibrations.factors())]
    tail_value, tail_pct = tail(times)
    steps = sum(r["steps"] for r in run.requests)
    result = run.summary()
    result["metrics"] = {
        "request_p50_s": {"value": statistics.median(times), "unit": "s"},
        "request_tail_s": {"value": tail_value, "unit": "s"},
        "elem_steps_per_s": {"value": steps / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_share": {"value": 1.0 - result["failed"] / result["attempted"], "unit": "share"},
    }
    result["notes"] = {
        "requests": len(times),
        "request_p50_s": f"wall {statistics.median(wall):.4g} s",
        "request_tail_s": f"p{tail_pct:.1f} of {len(times)} requests, wall {tail(wall)[0]:.4g} s",
        "elem_steps_per_s": f"wall {steps / sum(wall):.4g} 1/s",
        "fail_share": result["failed"] / result["attempted"],
        "calibration_s": calibrations.median(),
    }
    return result


def traced(workload: str, stream, seconds: float, spans_path: Path) -> dict:
    run = Run(workload)
    tracer = Tracer()
    pass_counts: Counter = Counter()
    request_specs: list[str] = []
    cli_seconds = 0.0
    state_size_max = 0
    calibrations = Calibrations()
    for number, spec in passes(stream, seconds):
        calibrations.before_request()
        tracer.request = len(request_specs)
        request_specs.append(spec.id)
        # alternate the order, so that neither call always runs second
        if tracer.request % 2:
            composed, error = traced_request(spec, tracer)
            rec = cli_request(spec)
        else:
            rec = cli_request(spec)
            composed, error = traced_request(spec, tracer)
        cli_seconds += rec["seconds"]
        if error:
            rec["code"] = error
        elif rec["code"] == 0 and composed[0] != rec["text"]:
            rec["code"] = "composed report differs from the CLI output"
        if number == 0 and composed:
            text, trace, labeled, ts = composed
            pass_counts.update(_counts(spec, trace, labeled, ts, text))
            state_size_max = max(state_size_max, *(len(terms.positions(t)) for t in trace.terms()))
        run.add(spec, rec)
    calibrations.close()
    run.check({s.id: s for s in stream.specs})
    tracer.write(spans_path, request_specs)

    n = len(request_specs)
    selfs = tracer.self_times(calibrations.factors())
    traced_seconds = sum(end - begin for name, begin, end, _, _ in tracer.spans if name == "request")
    for index, aggs in tracer.aggregates.items():
        if tracer.spans[index][4] < len(stream.specs):  # a request of the first pass
            calls, hits, _ = aggs.get("acmatch.match", (0, 0, 0.0))
            pass_counts.update({"match_calls": calls, "match_hits": hits})
    metrics = {f"{name}_s": selfs.get(name, 0.0) / n for name in LAYER_SPANS}
    metrics.update({
        "acmatch.match_s": selfs.get("acmatch.match", 0.0) / n,
        "cli.self_s": selfs.get("request", 0.0) / n,
        "trace.overhead_pct": 100.0 * (traced_seconds - cli_seconds) / cli_seconds,
        "acmatch.match_calls": pass_counts["match_calls"],
        "acmatch.hit_ratio": pass_counts["match_hits"] / max(1, pass_counts["match_calls"]),
        "slicer.kept_ratio": pass_counts["kept"] / max(1, pass_counts["elementary"]),
        "slicer.reduction_pct": pass_counts["reduction_pct"] / len(stream.specs),
    })
    metrics["engine.state_size_max"] = state_size_max
    for key in ("labeling.labels", "slicer.relevant", "report.bytes",
                "tracefile.bytes", *(f"engine.steps.{k}" for k in STEP_KINDS)):
        metrics[key] = pass_counts[key]
    units = {"_s": "s", "_pct": "%", "_ratio": "ratio", "bytes": "byte"}
    result = run.summary()
    result["metrics"] = {
        name: {"value": value, "unit": next((u for suffix, u in units.items() if name.endswith(suffix)), "count")}
        for name, value in metrics.items()
    }
    result["notes"] = {"requests": n, "passes": n // len(stream.specs), "spans": len(tracer.spans),
                       "spans_file": str(spans_path.relative_to(ROOT)), "calibration_s": calibrations.median()}
    return result


def _counts(spec: Spec, trace, labeled, ts, text: str) -> Counter:
    """Exact work counts of one traced request."""
    counts = Counter(f"engine.steps.{s.kind}" for s in trace.steps)
    counts["elementary"] = len(trace.steps)
    counts["kept"] = len(ts.steps)
    counts["labeling.labels"] = sum(len(ls.before_labeling) + len(ls.after_labeling) for ls in labeled)
    counts["slicer.relevant"] = sum(len(s) for s in ts.relevant)
    counts["report.bytes"] = len(text.encode("utf-8"))
    counts["tracefile.bytes"] = os.path.getsize(spec.trace) if spec.trace is not None else 0
    counts["reduction_pct"] = ts.reduction_percent
    return counts


def write_reference():
    """Rewrite reference.json from the current program: every spec of
    every workload's pool goes through the CLI and the independent checks."""
    reference = {}
    work = OUT / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            setup(workload, 0, work)
            digests = {}
            for variants in workloads.pool(workload, ROOT, work):
                for spec in variants:
                    rec = cli_request(spec)
                    if rec["code"] != 0:
                        raise SystemExit(f"{spec.id}: {rec['code']} {rec['stderr']}")
                    found = checker.check_report(rec["text"], original_terms(spec), spec.criterion)
                    if found:
                        raise SystemExit(f"{spec.id}: {found}")
                    digests[spec.id] = checker.digest(rec["text"])
            reference[workload] = digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", type=Path)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _overrun)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None or args.out is None:
        p.error("--workload and --out are required")
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        stream = setup(args.workload, args.seed, work)
        setup_wall = time.perf_counter() - SETUP_START
        setup_s = calibrate.scale(setup_wall, calibrate.calibration())
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced(args.workload, stream, args.seconds, spans)
        else:
            result = untraced(args.workload, stream, args.seconds)
        result["setup_s"] = setup_s
        result["setup_wall_s"] = setup_wall
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
