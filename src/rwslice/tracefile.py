"""Line-based persistence of instrumented traces.

    rwtrace 1
    theory <reference>
    init <term>
    step <kind> <rule-name|-> <position> <bindings|-> <before> <after>

Terms use the canonical printed syntax (no whitespace), so every field is
whitespace-separated. Bindings are `X=term;Y=term` sorted by variable
name. Loading builds an `InstrumentedTrace`, which checks that consecutive
steps chain and that every step replays against the theory. One parser
reads a whole file, so consecutive terms share all subterms off the redex.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from .acmatch import flatten_term
from .engine import InstrumentedTrace, MalformedStep, RewriteTheory, TraceStep
from .terms import EMPTY_SUBST, Position, Substitution, Variable, pretty
from .theoryfile import TheorySyntaxError, _TermParser

_HEADER = "rwtrace 1"


def render_trace(trace: InstrumentedTrace, theory_ref: str = "") -> str:
    lines = [_HEADER, f"theory {theory_ref or trace.theory.name or '-'}"]
    # a built trace is chained: step i goes from term i to term i + 1
    texts = [pretty(t) for t in trace.terms()]
    lines.append(f"init {texts[0]}")
    for i, step in enumerate(trace.steps):
        lines.append(
            "step {kind} {rule} {pos} {bind} {before} {after}".format(
                kind=step.kind,
                rule=step.rule_name or "-",
                pos=step.position,
                bind=_render_bindings(step.matcher),
                before=texts[i],
                after=texts[i + 1],
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


def _parse_bindings(text: str, parser: _TermParser) -> Substitution:
    if text == "-":
        return EMPTY_SUBST
    bindings = {}
    for part in text.split(";"):
        name, _, value = part.partition("=")
        if not name or not value:
            raise MalformedStep(f"bad binding {part!r}")
        bindings[Variable(name)] = parser.term(value)
    return Substitution(bindings)


def parse_trace(text: str, theory: RewriteTheory) -> InstrumentedTrace:
    # (physical line number, text) of the non-blank lines
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != _HEADER:
        raise MalformedStep(f"expected header {_HEADER!r}")
    if len(lines) < 3 or not lines[1][1].startswith("theory ") or not lines[2][1].startswith("init "):
        raise MalformedStep("expected theory and init lines")
    # one parser for the whole file, so that all its terms share subterms
    parser = _TermParser(theory.signature, set(), allow_bullet=False)
    prev_txt = lines[2][1][len("init ") :]
    initial = prev = parser.term(prev_txt)
    steps: list[TraceStep] = []
    for lineno, line in lines[3:]:
        fields = line.split()
        if len(fields) != 7 or fields[0] != "step":
            raise MalformedStep(f"line {lineno}: bad step record")
        _, kind, rule, pos, bind, before_txt, after_txt = fields
        try:
            step = TraceStep(
                kind=kind,
                rule_name=None if rule == "-" else rule,
                position=Position.parse(pos),
                matcher=_parse_bindings(bind, parser),
                # a step's before usually repeats the last after: parse it once
                before=prev if before_txt == prev_txt else parser.term(before_txt),
                after=parser.term(after_txt),
            )
        except (ValueError, TheorySyntaxError) as exc:
            raise MalformedStep(f"line {lineno}: {exc}")
        steps.append(step)
        prev, prev_txt = step.after, after_txt
    try:
        trace = InstrumentedTrace(theory, initial, steps)
    except MalformedStep as exc:
        raise MalformedStep(f"line {lines[3 + exc.index][0]}: {exc.reason}") from None
    final = trace.final()
    if flatten_term(final, theory.signature) != final:
        warnings.warn("trace ends in a non-canonical term", stacklevel=2)
    return trace


def load_trace(path: str | Path, theory: RewriteTheory) -> InstrumentedTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"), theory)
