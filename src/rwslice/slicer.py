"""Backward trace slicing.

Given an instrumented trace and a set of observed positions of its final
term, the slicer labels every step, propagates the observed positions
backwards through the origin relation, and replaces everything outside
the relevant paths by the opaque symbol. Steps whose sliced sides
coincide are dropped from the resulting trace slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import InstrumentedTrace, MalformedStep, RewriteTheory, apply_step
from .labeling import LabeledStep, LabelSupply, label_step
from .terms import (
    BULLET_TERM,
    Position,
    PositionOutOfRange,
    Term,
    Variable,
    is_bullet,
    match,
    positions,
    pretty,
    subterm_at,
)


class InvalidCriterion(Exception):
    pass


class ReplayFailure(Exception):
    """A sliced step did not reproduce on a concretization; carries the
    index of the failing sliced step."""

    def __init__(self, index: int, message: str):
        super().__init__(f"sliced step {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class SlicingCriterion:
    """Observed positions of the final trace term."""

    positions: frozenset[Position]

    @staticmethod
    def of(items: Iterable[Position]) -> "SlicingCriterion":
        return SlicingCriterion(frozenset(items))


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
    criterion: SlicingCriterion | Iterable[Position],
) -> list[frozenset[Position]]:
    """Backward pass: the relevant positions of each trace term, ending
    with the criterion on the final term."""
    crit = _criterion_set(criterion)
    if len(labeled) != len(trace.steps):
        raise InvalidCriterion("labeled steps do not cover the trace")
    final_positions = set(positions(trace.final()))
    bad = [p for p in crit if p not in final_positions]
    if bad:
        raise InvalidCriterion(
            f"criterion positions {sorted(bad)} are not positions of {pretty(trace.final())}"
        )
    sets = [crit]
    for ls in reversed(labeled):
        sets.append(_origins(ls, sets[-1]))
    return sets[::-1]


def _criterion_set(criterion) -> frozenset[Position]:
    if isinstance(criterion, SlicingCriterion):
        return criterion.positions
    return frozenset(criterion)


def slice_term(t: Term, relevant: Iterable[Position]) -> Term:
    """Keep exactly the symbols on paths from the root to some relevant
    position; everything else becomes the opaque leaf."""
    rel = set(relevant)
    all_positions = set(positions(t))
    bad = rel - all_positions
    if bad:
        raise PositionOutOfRange(f"{sorted(bad)} are not positions of {pretty(t)}")
    keep = {prefix for w in rel for prefix in w.prefixes()}

    def rec(node: Term, pos: Position) -> Term:
        if pos not in keep:
            return BULLET_TERM
        return Term(node.root, tuple(rec(a, pos.child(i)) for i, a in enumerate(node.args, 1)))

    return rec(t, Position())


def generalize(ts: Term) -> Term:
    """The term slice with each opaque leaf replaced by a distinct fresh
    variable."""
    counter = 0

    def rec(node: Term) -> Term:
        nonlocal counter
        if is_bullet(node):
            counter += 1
            return Term(Variable(f"#{counter}"))
        return Term(node.root, tuple(rec(a) for a in node.args))

    return rec(ts)


def concretizes(ts: Term, t: Term) -> bool:
    """True iff t is an instance of the slice once opaque leaves are read
    as fresh variables."""
    return match(generalize(ts), t) is not None


@dataclass(frozen=True)
class SlicedStep:
    index: int  # index of the originating step in the expanded trace
    kind: str
    rule_name: str | None
    position: Position
    before_slice: Term
    after_slice: Term


@dataclass
class TraceSlice:
    trace: InstrumentedTrace
    criterion: frozenset[Position]
    relevant: list[frozenset[Position]]
    slices: list[Term]
    steps: list[SlicedStep]  # steps whose sliced sides differ
    original_size: int
    sliced_size: int
    reduction_percent: float

    def glued_terms(self) -> list[Term]:
        out: list[Term] = []
        for s in self.slices:
            if not out or out[-1] != s:
                out.append(s)
        return out


def trace_string(terms: list[Term]) -> str:
    return " -> ".join(pretty(t) for t in terms)


def trace_slice(
    trace: InstrumentedTrace,
    criterion: SlicingCriterion | Iterable[Position],
    seed: int = 0,
) -> TraceSlice:
    """Backward slice of the whole trace with respect to the criterion.

    Each step is labeled independently with a supply starting at `seed`,
    so repeated runs produce identical slices. Sizes are the lengths of
    the canonically printed original and sliced traces."""
    crit = _criterion_set(criterion)
    labeled = [label_step(s, trace.theory, LabelSupply(seed)) for s in trace.steps]
    sets = relevant_positions(trace, labeled, crit)
    terms = trace.terms()
    slices = [slice_term(t, p) for t, p in zip(terms, sets)]
    kept: list[SlicedStep] = []
    for i, step in enumerate(trace.steps):
        if slices[i] != slices[i + 1]:
            kept.append(
                SlicedStep(i, step.kind, step.rule_name, step.position, slices[i], slices[i + 1])
            )
    result = TraceSlice(
        trace=trace,
        criterion=crit,
        relevant=sets,
        slices=slices,
        steps=kept,
        original_size=len(trace_string(terms)),
        sliced_size=0,
        reduction_percent=0.0,
    )
    result.sliced_size = len(trace_string(result.glued_terms()))
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
