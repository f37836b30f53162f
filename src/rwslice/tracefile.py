"""Line-based persistence of instrumented traces.

    rwtrace 1
    theory <reference>
    init <term>
    step <kind> <rule-name|-> <position> <bindings|-> <before> <after>

Terms use the canonical printed syntax (no whitespace), so every field is
whitespace-separated. Bindings are `X=term;Y=term` sorted by variable
name. Loading validates that every step replays against the theory and
that consecutive steps chain.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from .acmatch import flatten_term
from .engine import InstrumentedTrace, MalformedStep, RewriteTheory, TraceStep, check_step
from .terms import EMPTY_SUBST, Position, Substitution, Variable, pretty
from .theoryfile import TheorySyntaxError, parse_term

_HEADER = "rwtrace 1"


def render_trace(trace: InstrumentedTrace, theory_ref: str = "") -> str:
    lines = [_HEADER, f"theory {theory_ref or trace.theory.name or '-'}"]
    lines.append(f"init {pretty(trace.initial)}")
    for step in trace.steps:
        lines.append(
            "step {kind} {rule} {pos} {bind} {before} {after}".format(
                kind=step.kind,
                rule=step.rule_name or "-",
                pos=step.position,
                bind=_render_bindings(step.matcher),
                before=pretty(step.before),
                after=pretty(step.after),
            )
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: InstrumentedTrace, path: str | Path, theory_ref: str = "") -> None:
    Path(path).write_text(render_trace(trace, theory_ref), encoding="utf-8")


def _render_bindings(sub: Substitution) -> str:
    if not len(sub):
        return "-"
    parts = [f"{v.name}={pretty(t)}" for v, t in sorted(sub.items(), key=lambda kv: kv[0].name)]
    return ";".join(parts)


def _parse_bindings(text: str, th: RewriteTheory) -> Substitution:
    if text == "-":
        return EMPTY_SUBST
    bindings = {}
    for part in text.split(";"):
        name, _, value = part.partition("=")
        if not name or not value:
            raise MalformedStep(f"bad binding {part!r}")
        bindings[Variable(name)] = parse_term(value, th.signature)
    return Substitution(bindings)


def parse_trace(text: str, theory: RewriteTheory) -> InstrumentedTrace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise MalformedStep(f"expected header {_HEADER!r}")
    if len(lines) < 3 or not lines[1].startswith("theory ") or not lines[2].startswith("init "):
        raise MalformedStep("expected theory and init lines")
    prev_txt = lines[2][len("init ") :]
    initial = prev = parse_term(prev_txt, theory.signature)
    steps: list[TraceStep] = []
    for lineno, line in enumerate(lines[3:], start=4):
        fields = line.split()
        if len(fields) != 7 or fields[0] != "step":
            raise MalformedStep(f"line {lineno}: bad step record")
        _, kind, rule, pos, bind, before_txt, after_txt = fields
        try:
            step = TraceStep(
                kind=kind,
                rule_name=None if rule == "-" else rule,
                position=Position.parse(pos),
                matcher=_parse_bindings(bind, theory),
                # a step's before usually repeats the last after: parse it once
                before=prev if before_txt == prev_txt else parse_term(before_txt, theory.signature),
                after=parse_term(after_txt, theory.signature),
            )
        except (ValueError, TheorySyntaxError) as exc:
            raise MalformedStep(f"line {lineno}: {exc}")
        if step.before != prev:
            raise MalformedStep(f"line {lineno}: steps do not chain")
        if not check_step(step, theory):
            raise MalformedStep(f"line {lineno}: step does not replay against the theory")
        steps.append(step)
        prev, prev_txt = step.after, after_txt
    trace = InstrumentedTrace(theory, initial, steps)
    final = trace.final()
    if flatten_term(final, theory.signature) != final:
        warnings.warn("trace ends in a non-canonical term", stacklevel=2)
    return trace


def load_trace(path: str | Path, theory: RewriteTheory) -> InstrumentedTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"), theory)
