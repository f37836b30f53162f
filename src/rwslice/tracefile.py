"""Line-based persistence of instrumented traces.

    rwtrace 1
    theory <reference>
    init <term>
    step <kind> <rule-name|-> <position> <bindings|-> <before> <after>

Terms use the canonical printed syntax (no whitespace), so every field is
whitespace-separated. Bindings are written `X=term;Y=term` sorted by
variable name. Loading makes each record's step by its replay on the
previous term as it reads it (`_Steps.add`), with the checks
`InstrumentedTrace` makes, by one of two paths. The print
path takes a record whose before field is the previous term's print, whose
bindings field is the print of the replay's matcher, its bindings in any
order, and whose after field is the print of the replay's after term (an
unflat spine is read by print); it parses nothing. The parse path takes
any other, field by field from the left. So consecutive terms share all
subterms off the redex, and of a file as `render_trace` writes it only the
initial term is parsed. The loaded trace carries its printed size
(`InstrumentedTrace.printed_size`), summed from the texts it accepted.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

from .engine import FLAT, InstrumentedTrace, MalformedStep, RewriteTheory, TraceStep, _Steps
from .terms import EMPTY_SUBST, Position, Substitution, Term, Variable, pretty, printed_length, replace_at, subterm_at
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
    return ";".join(_binding_texts(sub)) if len(sub) else "-"


def _binding_texts(sub: Substitution) -> list[str]:
    """The `X=value` print of each binding of sub, sorted by variable name."""
    return [f"{v.name}={pretty(t)}" for v, t in sorted(sub.items(), key=lambda kv: kv[0].name)]


def _parse_bindings(text: str, parser: _TermParser) -> Substitution:
    if text == "-":
        return EMPTY_SUBST
    bindings = {}
    for part in text.split(";"):
        name, _, value = part.partition("=")
        if not name or not value:
            raise ValueError(f"bad binding {part!r}")
        var = Variable(name)
        if var in bindings:
            raise ValueError(f"variable {name} bound twice")
        bindings[var] = parser.term(value)
    return Substitution(bindings)


def parse_trace(text: str, theory: RewriteTheory, max_steps: int | None = None) -> InstrumentedTrace:
    """The trace the text holds, its steps made within `max_steps` when
    given (StepBudgetExceeded past it), as a run's are."""
    # (physical line number, text) of the non-blank lines
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].split() != _HEADER.split():
        raise MalformedStep(f"expected header {_HEADER!r}")
    # the keyword of each line, and the init term's text from its field's start
    heads = [ln.split(None, 1) for _, ln in lines[1:3]]
    if [h[0] for h in heads] != ["theory", "init"] or min(map(len, heads)) < 2:
        raise MalformedStep("expected theory and init lines")
    # one parser for the whole file, so that all its terms share subterms
    parser = _TermParser(theory.signature, set(), allow_bullet=False)
    lineno, line = lines[2]
    canon = heads[1][1]
    limit = len(lines) - 3 if max_steps is None else min(len(lines) - 3, max_steps)
    try:
        initial = prev = parser.term(canon)
        lengths: dict[int, int] = {}  # `printed_length` of the nodes read so far
        # pretty(prev): a text that reads as a term and is as long as its print
        # is that print, as the parser only skips blanks and comments
        canon = canon if len(canon) == printed_length(prev, lengths) else pretty(prev)
        size = len(canon)  # of the trace's print so far (`printed_size`)
        positions: dict[str, Position] = {}
        steps = _Steps(theory, limit)  # one per file: its memo holds the nodes known canonical
        for lineno, line in lines[3:]:
            fields = line.split()
            if len(fields) != 7 or fields[0] != "step":
                raise MalformedStep(f"line {lineno}: bad step record")
            _, kind, rule, pos, bind, before_txt, after_txt = fields
            position = positions.get(pos)
            if position is None:
                position = positions[pos] = Position.parse(pos)
            name = None if rule == "-" and kind != "builtin" else rule
            # the print path: the record reads as `render_trace` writes it, its bindings in any
            # order, and no field is parsed; an unflat record's spine is read by print (`_read_spine`)
            step = failed = None
            if before_txt == canon:
                spine, moves = _read_spine(after_txt, canon, prev, position, lengths) if kind == "unflat" else (None, None)
                if kind != "unflat" or spine is not None:
                    try:
                        step = steps.add(kind, name, position, prev, spine, moves)
                    except MalformedStep:  # the parse path reports it, with no second replay
                        failed = True
            # a spine read by print replays as itself, so after_txt is its print
            if step is not None and (
                bind == _render_bindings(step.matcher) or sorted(bind.split(";")) == sorted(_binding_texts(step.matcher))
            ) and (kind == "unflat" or _prints_as(after_txt, canon, step, lengths)):
                canon = after_txt
            else:
                # the parse path: every field is parsed, from the left, so that the
                # leftmost syntax error comes first; then the chain, and the replay unless the
                # print path made or failed it: that read no field but an unflat spine, read as parsed
                matcher = _parse_bindings(bind, parser)
                before = parser.term(before_txt)
                read = parser.term(after_txt)
                if before != prev:
                    raise MalformedStep(f"line {lineno}: steps do not chain")
                if step is None and not failed:
                    try:
                        step = steps.add(kind, name, position, prev, read)
                    except MalformedStep:
                        pass
                if step is None or step.matcher != matcher or step.after != read:
                    raise MalformedStep(f"line {lineno}: {kind} step at {position} does not replay")
                canon = pretty(step.after)
            size += 4 + len(canon)  # " -> " before each later term
            prev = step.after
    except TheorySyntaxError as exc:
        raise _located(exc, lineno, line) from None
    except ValueError as exc:  # a position or binding that does not read
        raise MalformedStep(f"line {lineno}: {exc}") from None
    trace = InstrumentedTrace(theory, initial, steps)
    object.__setattr__(trace, "printed_size", size)  # its cached property, known here
    if steps.first(trace.final(), FLAT) is not None:
        warnings.warn("trace ends in a non-canonical term", stacklevel=2)
    return trace


def _located(exc: TheorySyntaxError, lineno: int, line: str) -> MalformedStep:
    """exc at its line and column in the file. The loader reads the init term, from its
    field's start, or a step's binding values, before and after fields left to right:
    exc's is the first with its text."""
    fields = list(re.finditer(r"\S+", line))
    start = fields[1].start()
    if fields[0][0] != "init":
        bind, *sides = fields[4:]
        values = re.finditer(r"(?:^|;)[^=;]*=([^;]*)", bind[0])  # as `_parse_bindings` reads them
        texts = [(bind.start() + m.start(1), m[1]) for m in values] + [(m.start(), m[0]) for m in sides]
        start = next(at for at, text in texts if text == exc.text)
    return MalformedStep(f"line {lineno}, column {start + exc.col}: {exc.message}")


def _span(before: Term, q: Position, lengths: dict[int, int]) -> tuple[int, Term] | None:
    """Where the node at q of before starts in before's print, and the node,
    found by printed lengths; None when q addresses no node."""
    start, node = 0, before
    for i in q.path:
        if not 1 <= i <= len(node.args):
            return None
        # the node's name, "(", and each earlier argument with its comma
        start += len(node.root.name) + i + sum(printed_length(a, lengths) for a in node.args[: i - 1])
        node = node.args[i - 1]
    return start, node


def _prints_as(text: str, canon: str, step: TraceStep, lengths: dict[int, int]) -> bool:
    """Whether text is pretty(step.after), the step's before term, printed
    as canon, with the subterm at the step's position replaced:
    canon's text around that subterm is compared as it stands, and only the
    new subterm is printed, whatever the step's kind. If so, the printed
    lengths of step.after and of that subterm go to lengths."""
    start, node = _span(step.before, step.position, lengths)
    end = start + printed_length(node, lengths)
    new_node = subterm_at(step.after, step.position)
    middle = pretty(new_node)
    if not (
        len(text) == len(canon) - (end - start) + len(middle)
        and text.startswith(middle, start)
        and text.startswith(canon[:start])
        and text.endswith(canon[end:])
    ):
        return False
    lengths[id(step.after)], lengths[id(new_node)] = len(text), len(middle)
    return True


def _read_spine(text: str, canon: str, before: Term, q: Position, lengths: dict[int, int]) -> tuple:
    """The term an unflat record's after field, text, reads as, if it is
    canon (before's print) with the node at q printed as a spine: nested
    op(…) nodes of two arguments or more, op the node's root name, whose
    leaves are its argument objects, each the leftmost unused one whose print,
    sliced from canon, is there before a "," or ")", as the parser reads
    and `acmatch._pair` pairs it; and the step's move map, each leaf's
    argument index in path order (`TraceStep.moves`), when every argument
    is a leaf, else None. Else (None, None): the caller parses the field."""
    span = _span(before, q, lengths)
    if span is None or not text.startswith(canon[: span[0]]):
        return None, None
    (start, node), prints = span, []
    op, at = node.root.name + "(", start + len(node.root.name) + 1  # at each argument's print, then at the end
    for a in node.args:
        prints.append(canon[at : at + printed_length(a, lengths)])
        at += len(prints[-1]) + 1
    ends = [(s + ",", s + ")") for s in prints]
    free, built, moves, p = list(range(len(prints))), [], [], start  # the unused arguments; the open nodes' arguments
    while True:
        for k, i in enumerate(free if built else ()):
            if text.startswith(ends[i], p):
                moves.append(free.pop(k))
                built[-1].append(node.args[i])
                p += len(prints[i])
                break
        else:  # no argument's print here: a spine node, or no spine
            if not text.startswith(op, p):
                return None, None
            built.append([])
            p += len(op)
            continue
        while text.startswith(")", p) and len(built[-1]) > 1:  # close the spine nodes that end here
            spine, p = Term(node.root, tuple(built.pop())), p + 1
            if not built:
                return (replace_at(before, q, spine), None if free else tuple(moves)) if text[p:] == canon[at:] else (None, None)
            built[-1].append(spine)
        if not text.startswith(",", p):
            return None, None
        p += 1


def load_trace(path: str | Path, theory: RewriteTheory) -> InstrumentedTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"), theory)
