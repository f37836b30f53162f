"""Command-line interface.

    rwslice --theory th.rwt --init "g(f(a))" --end "m(a)" --criterion "^"
    rwslice --theory th.rwt --init "t" --steps 5 --criterion "1.2,2" --format structured
    rwslice --theory th.rwt --init "t" --trace run.rwtrace --criterion "1"

The end state is searched along the engine's deterministic run only;
externally produced traces must be supplied as a trace file.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import DEFAULT_STEP_BUDGET, run, run_until
from .report import SliceReport
from .slicer import trace_slice
from .terms import Position, RwsliceError, pretty
from .theoryfile import parse_term, parse_theory
from .tracefile import parse_trace

ENV_MAX_STEPS = "RWSLICE_MAX_STEPS"


class CliError(RwsliceError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rwslice", description="Backward slicing of instrumented rewrite traces")
    p.add_argument("--theory", required=True, help="theory file")
    p.add_argument("--init", required=True, help="initial term")
    end = p.add_mutually_exclusive_group(required=True)
    end.add_argument("--end", help="final term to search for along the deterministic run")
    end.add_argument("--steps", type=int, help="number of rule applications to run")
    end.add_argument("--trace", help="pre-recorded trace file")
    p.add_argument("--criterion", required=True, help="observed positions of the final term, e.g. \"1.2,2\" (^ is the root)")
    p.add_argument("--format", choices=["pretty", "structured"], default="pretty")
    p.add_argument("--full-expansion", action="store_true", help="show equational and AC steps in the pretty output")
    p.add_argument("--max-steps", type=int, default=None, help="elementary step budget")
    p.add_argument("--seed", type=int, default=0, help="number printed on the report's seed line; changes nothing else")
    return p


# built once: building costs several times what parsing one request does
_PARSER = _build_parser()


def _budget(args) -> int:
    budget = args.max_steps
    if budget is None:
        env = os.environ.get(ENV_MAX_STEPS)
        if env is None:
            return DEFAULT_STEP_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise CliError(f"{ENV_MAX_STEPS} must be an integer, got {env!r}")
    if budget < 0:
        raise CliError(f"the step budget must be nonnegative, got {budget}")
    return budget


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        criterion = _parse_criterion(args.criterion)  # before any costly work
        th = parse_theory(_read(args.theory), name=os.path.basename(args.theory))
        init = parse_term(args.init, th.signature)
        budget = _budget(args)
        if args.trace is not None:
            trace = parse_trace(_read(args.trace), th, max_steps=budget)
            if trace.initial != init:
                raise CliError(f"--init {pretty(init)} does not match the trace's initial term {pretty(trace.initial)}")
        elif args.steps is not None:
            if args.steps < 0:
                raise CliError("--steps must be nonnegative")
            trace = run(init, th, args.steps, max_steps=budget)
        else:
            end = parse_term(args.end, th.signature)
            trace = run_until(init, end, th, max_steps=budget)
        ts = trace_slice(trace, criterion)
        report = SliceReport(ts, theory_name=th.name, seed=args.seed)
        if args.format == "structured":
            sys.stdout.write(report.render_structured())
        else:
            sys.stdout.write(report.render_pretty(full_expansion=args.full_expansion))
        return 0
    except RwsliceError as exc:  # anything else is a defect and keeps its traceback
        print(f"rwslice: {exc}", file=sys.stderr)
        return 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # UnicodeDecodeError: not UTF-8
        raise CliError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}")


def _parse_criterion(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise CliError("empty criterion")
    try:
        return frozenset(Position.parse(p) for p in parts)
    except ValueError as exc:
        raise CliError(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
