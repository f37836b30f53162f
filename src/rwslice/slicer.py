"""Backward trace slicing.

The labeling calculus (`labeling.py`) defines the origin relation of a
step: a position of the step's source term is an origin of a position w of
its target term when its label lies inside a label on the root path of w.
`origin_positions` and `relevant_positions` compute that relation from
labeled steps, and `slice_term` keeps the root paths of a set of
positions and replaces everything else by the opaque symbol `•`; together
they are the reference semantics.

`slice_back` computes the same relation for one step, locally around its
position q, without labeling. The context labels of a step are fresh
singletons, equal on both sides, so a target off q has exactly its own
prefixes as origins, and a target at or below q has the prefixes of q plus
origins under q that depend on the redex and the contractum only. Every
relevant set but the criterion is prefix-closed up to one builtin call
position, so the backward pass records slices alone: `trace_slice`
applies `slice_back` step by step, each step rebuilds the slice at q
alone, and consecutive slices share everything else. A step whose origins
at q are what the later slice keeps there returns that slice itself; its
sliced sides coincide, so it is dropped from the trace slice. A term's
relevant set is read off its slice, as the positions that slice keeps,
only when a caller reads it (`RelevantSets`), and each distinct slice
object is printed once (`TraceSlice.texts`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .acmatch import regrouping_paths
from .engine import InstrumentedTrace, MalformedStep, RewriteTheory, TraceStep, apply_step
from .labeling import LabeledStep
from .terms import (
    BULLET_TERM,
    Position,
    PositionOutOfRange,
    RwsliceError,
    Substitution,
    Term,
    is_bullet,
    match,
    preorder,
    pretty,
    replace_at,
    subterm_at,
)


class InvalidCriterion(RwsliceError):
    pass


class ReplayFailure(Exception):
    """A sliced step did not reproduce on a concretization; carries the
    index of the failing sliced step."""

    def __init__(self, index: int, message: str):
        super().__init__(f"sliced step {index}: {message}")
        self.index = index


def origin_positions(ls: LabeledStep, w: Position) -> frozenset[Position]:
    """Positions of the step's source term whose labels are contained in
    some label on the root-to-w path of the target term."""
    return _origins(ls, (w,))


def _origins(ls: LabeledStep, targets: Iterable[Position]) -> frozenset[Position]:
    """The union of origin_positions(ls, w) over the targets, in one sweep.
    A singleton label inside the union of the path labels lies in one of
    them, so only composite labels need the subset scan."""
    after = ls.step.after
    path: set[Position] = set()
    for w in targets:
        subterm_at(after, w)  # PositionOutOfRange for a bad w
        path.update(w.prefixes())
    labels = {ls.after_labeling[p] for p in path if p in ls.after_labeling}
    covered = frozenset().union(*labels)
    return frozenset(
        v
        for v, lv in ls.before_labeling.items()
        if lv <= covered and (len(lv) == 1 or any(lv <= lp for lp in labels))
    )


def relevant_positions(
    trace: InstrumentedTrace,
    labeled: list[LabeledStep],
    criterion: Iterable[Position],
) -> list[frozenset[Position]]:
    """Backward pass: the relevant positions of each trace term, ending
    with the criterion on the final term."""
    crit = frozenset(criterion)
    if len(labeled) != len(trace.steps):
        raise InvalidCriterion("labeled steps do not cover the trace")
    _check_criterion(trace.final(), crit)
    sets = [crit]
    for ls in reversed(labeled):
        sets.append(_origins(ls, sets[-1]))
    return sets[::-1]


def _check_criterion(final: Term, crit: frozenset[Position]) -> None:
    bad = _not_positions(final, crit)
    if bad:
        raise InvalidCriterion(f"criterion positions {bad} are not positions of {pretty(final)}")


def _not_positions(t: Term, items: Iterable[Position]) -> str:
    """The items that are not positions of t, in order, as the CLI reads them."""
    bad = []
    for p in items:
        try:
            subterm_at(t, p)
        except PositionOutOfRange:
            bad.append(p)
    return ",".join(map(str, sorted(bad)))


def slice_term(t: Term, relevant: Iterable[Position]) -> Term:
    """Keep exactly the symbols on paths from the root to some relevant
    position; everything else becomes the opaque leaf."""
    rel = set(relevant)
    bad = _not_positions(t, rel)
    if bad:
        raise PositionOutOfRange(f"{bad} are not positions of {pretty(t)}")
    return _union([_path_slice(t, w.path) for w in rel])


def _path_slice(t: Term, path: tuple[int, ...]) -> Term:
    """The slice of t that keeps the root path of `path`, a position of t."""
    nodes = [t]
    for i in path:
        nodes.append(nodes[-1].args[i - 1])
    cut = Term(nodes[-1].root, (BULLET_TERM,) * len(nodes[-1].args))
    for node, i in zip(reversed(nodes[:-1]), reversed(path)):
        cut = Term(node.root, (BULLET_TERM,) * (i - 1) + (cut,) + (BULLET_TERM,) * (len(node.args) - i))
    return cut


def _union(slices: list[Term]) -> Term:
    """The slice that keeps every symbol kept by one of `slices`, all
    slices of the same term. A subtree kept by one slice alone is shared."""
    top = [s for s in slices if not is_bullet(s)]
    if len(top) <= 1:
        return top[0] if top else BULLET_TERM
    # each entry: the slices alive at one node, and its rebuilt arguments
    stack: list[tuple[list[Term], list[Term]]] = [(top, [])]
    while True:
        alive, built = stack[-1]
        i = len(built)
        if i < len(alive[0].args):
            kids = [s.args[i] for s in alive if not is_bullet(s.args[i])]
            if len(kids) > 1:
                stack.append((kids, []))
            else:
                built.append(kids[0] if kids else BULLET_TERM)
            continue
        stack.pop()
        node = Term(alive[0].root, tuple(built))
        if not stack:
            return node
        stack[-1][1].append(node)


def _kept_at(s: Term, path: tuple[int, ...]) -> Term:
    """The subtree of slice s at `path`, or `•` if the path leaves what s
    keeps."""
    for i in path:
        if is_bullet(s):
            break
        s = s.args[i - 1]
    return s


def _kept_positions(s: Term) -> frozenset[Position]:
    """The positions of the symbols slice s keeps, a prefix-closed set."""
    return frozenset(Position(path) for path, node in preorder(s) if not is_bullet(node))


def slice_back(step: TraceStep, th: RewriteTheory, after: Term) -> Term:
    """The slice of the step's source term that keeps the origins of what
    `after`, a slice of its target term, keeps (prefix-closed). The origins
    of the kept positions off the step's position q are their prefixes, so
    only the subtree at q is rebuilt. `after` itself is returned when it
    keeps nothing at or under q, or when the origins at q are what it keeps
    there: the two slices are then equal everywhere."""
    q = step.position
    kept = _kept_at(after, q.path)
    if is_bullet(kept):
        return after
    local = _local_origins(step, th, kept)
    return after if local == kept else replace_at(after, q, local)


def _local_origins(step: TraceStep, th: RewriteTheory, kept: Term) -> Term:
    """The slice of the redex at the step's position q that keeps the
    origins under q of what `kept`, a slice of the contractum at q, keeps.
    Every target at or under q has q on its root path, whose label joins
    the redex pattern (rule, equation), the call's arguments (builtin),
    the node and its merged children (flat) or the flattened node
    (unflat); the labels below q come from the subterms the step moves."""
    node = subterm_at(step.before, step.position)
    if step.kind in ("rule", "equation"):
        rule = th.find_rule(step.rule_name or "")
        repeated = rule.repeated_variables()
        # the binding of each variable, cut to its kept occurrences in the
        # contractum; a repeated variable's binding joins the root label
        image = dict.fromkeys(rule.lhs_occurrences, BULLET_TERM)
        for v, value in step.matcher.items():
            image[v] = value if v in repeated else _union(
                [_kept_at(kept, occ) for occ in rule.rhs_occurrences.get(v, ())]
            )
        return Substitution(image).apply(rule.lhs)
    if step.kind == "builtin":
        return node if node.args else BULLET_TERM
    # flat, unflat: each moved subterm's slice goes back to its source path,
    # and the node and the merged children of a flat step keep their symbols
    paths = regrouping_paths(step.kind, step.moves, node, subterm_at(step.after, step.position))
    back = {src: _kept_at(kept, dst) for dst, src in paths}
    return Term(node.root, tuple(
        back[i,] if (i,) in back else Term(a.root, tuple(back[i, j] for j in range(1, len(a.args) + 1)))
        for i, a in enumerate(node.args, 1)
    ))


def concretizes(ts: Term, t: Term) -> bool:
    """True iff t is an instance of the slice, each opaque leaf matching
    any subterm (`match`)."""
    return match(ts, t) is not None


@dataclass(frozen=True)
class SlicedStep:
    """A step of a trace slice whose sliced sides differ."""

    index: int  # index of the originating step in the expanded trace
    kind: str
    rule_name: str | None
    position: Position
    before_slice: Term
    after_slice: Term


class RelevantSets(Sequence):
    """The relevant sets of a trace slice, read off its slices. The last
    set is the criterion; set j before it is the set of positions slice j
    keeps, less the call position when step j is a builtin step, since a
    builtin call's symbol is no origin of its value. A set is built each
    time it is read."""

    def __init__(self, steps: tuple[TraceStep, ...], slices: list[Term], criterion: frozenset[Position]):
        self._steps = steps
        self._slices = slices
        self._criterion = criterion

    def __len__(self) -> int:
        return len(self._slices)

    def __getitem__(self, j: int) -> frozenset[Position]:
        j = range(len(self._slices))[j]  # IndexError past either end
        if j == len(self._steps):
            return self._criterion
        kept = _kept_positions(self._slices[j])
        step = self._steps[j]
        return kept - {step.position} if step.kind == "builtin" else kept

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, RelevantSets)):
            return list(self) == list(other)
        return NotImplemented


@dataclass
class TraceSlice:
    """The slice of a trace for a criterion (`trace_slice`), with its sizes."""

    trace: InstrumentedTrace
    criterion: frozenset[Position]
    relevant: Sequence[frozenset[Position]]
    slices: list[Term]
    # steps whose sliced sides differ; a step's sides are slices[index]
    # and slices[index + 1]
    steps: list[SlicedStep]
    original_size: int
    sliced_size: int
    reduction_percent: float

    @cached_property
    def texts(self) -> list[str]:
        """The printed slices, one per trace term; a slice object that
        occurs more than once is printed once."""
        printed: dict[int, str] = {}
        for s in self.slices:
            if id(s) not in printed:
                printed[id(s)] = pretty(s)
        return [printed[id(s)] for s in self.slices]

    def glued_terms(self) -> list[Term]:
        out: list[Term] = []
        for s in self.slices:
            if not out or out[-1] != s:
                out.append(s)
        return out


def trace_string(terms: list[Term]) -> str:
    return " -> ".join(pretty(t) for t in terms)


def trace_slice(trace: InstrumentedTrace, criterion: Iterable[Position]) -> TraceSlice:
    """Backward slice of the whole trace with respect to the criterion.

    Each slice is `slice_back` of the next one, without labeling, and a
    step is kept when that is a new object, its sides differing at its
    position; otherwise the two slices are one object. The relevant sets
    are those of `relevant_positions`, read off the slices when read
    (`RelevantSets`). Sizes are the lengths of the canonically printed
    original (`InstrumentedTrace.printed_size`) and sliced traces."""
    crit = frozenset(criterion)
    _check_criterion(trace.final(), crit)
    after = slice_term(trace.final(), crit)
    slices, kept = [after], []
    for i in range(len(trace.steps) - 1, -1, -1):
        step = trace.steps[i]
        before = slice_back(step, trace.theory, after)
        if before is not after:
            kept.append(SlicedStep(i, step.kind, step.rule_name, step.position, before, after))
        slices.append(before)
        after = before
    slices.reverse()
    kept.reverse()
    result = TraceSlice(
        trace=trace,
        criterion=crit,
        relevant=RelevantSets(trace.steps, slices, crit),
        slices=slices,
        steps=kept,
        original_size=trace.printed_size,
        sliced_size=0,
        reduction_percent=0.0,
    )
    texts = result.texts
    glued = [t for j, t in enumerate(texts) if j == 0 or slices[j] is not slices[j - 1]]
    result.sliced_size = len(" -> ".join(glued))
    if result.original_size:
        result.reduction_percent = 100.0 * (1.0 - result.sliced_size / result.original_size)
    return result


def check_soundness(ts: TraceSlice, th: RewriteTheory, concretization: Term) -> bool:
    """Replay the sliced steps on a concretization of the first slice and
    verify that every intermediate slice stays a slice of the replayed
    term. Returns True; raises ReplayFailure on the first mismatch, which
    indicates a slicer defect rather than a user error."""
    if not concretizes(ts.slices[0], concretization):
        raise ValueError("term is not a concretization of the initial slice")
    current = concretization
    for k, sliced in enumerate(ts.steps):
        if not concretizes(sliced.before_slice, current):
            raise ReplayFailure(k, "replayed term escaped the before slice")
        try:
            current = apply_step(ts.trace.steps[sliced.index], th, current)
        except MalformedStep as exc:
            raise ReplayFailure(k, str(exc)) from None
        if not concretizes(sliced.after_slice, current):
            raise ReplayFailure(k, "replayed term escaped the after slice")
    return True
