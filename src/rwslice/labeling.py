"""Position labelings for rewrite steps.

Composite labels are finite sets of atomic labels drawn from a monotone
supply. A labeled rewrite step decorates both of its terms: context
symbols keep their labels across the step, the contractum carries the
join of all redex-pattern labels, and substitution-introduced subterms
are labeled identically on both sides. Collapsing rules, rules with
repeated left-hand-side variables, builtin calls, and the flat/unflat
transformations of assoc-comm operators each extend this scheme so that
every symbol of the target term traces back to its true origins.
"""

from __future__ import annotations

from .acmatch import regrouping_paths
from .engine import MalformedStep, RewriteTheory, Rule, TraceStep
from .terms import (
    HOLE_TERM,
    Position,
    ROOT,
    Substitution,
    Term,
    Variable,
    _Record,
    positions,
    replace_at,
    subterm_at,
)

Label = frozenset  # of atom ids


class LabelSupply:
    """Monotone source of fresh atomic labels."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> int:
        value = self._next
        self._next += 1
        return value


_GREEK = "αβγδεζηθικλμ" \
         "νξοπρστυφχψω"


def atom_text(atom: int) -> str:
    """Display name of an atomic label (Greek letters, then numbered)."""
    base = _GREEK[atom % len(_GREEK)]
    round_no = atom // len(_GREEK)
    return base + (str(round_no + 1) if round_no else "")


def label_text(label: Label) -> str:
    return "".join(atom_text(a) for a in sorted(label))


class Labeling(dict):
    """Partial map from positions to composite labels."""

    def cod(self) -> frozenset:
        out: frozenset = frozenset()
        for l in self.values():
            out |= l
        return out


class LabeledStep(_Record):
    """A trace step with the labelings of its two sides (`label_step`)."""

    _fields = ("step", "before_labeling", "after_labeling")

    def __init__(self, step: TraceStep, before_labeling: Labeling, after_labeling: Labeling):
        super().__init__(step, before_labeling, after_labeling)


def initial_labeling(t: Term, supply: LabelSupply) -> Labeling:
    """Distinct fresh singleton labels on every non-hole position of t,
    assigned in preorder."""
    return Labeling({p: frozenset({supply.fresh()}) for p in positions(t)})


def label_rule(rule: Rule, supply: LabelSupply) -> tuple[Labeling, Labeling]:
    """Labelings for the rule's redex and contractum patterns: the redex
    pattern gets an initial labeling, every contractum-pattern symbol gets
    the join of all redex labels. Variables are never labeled; a collapsing
    rule therefore yields an empty contractum labeling."""
    lhs_lab = initial_labeling(rule.redex_pattern(), supply)
    joined = lhs_lab.cod()
    rhs_lab = Labeling({p: joined for p in positions(rule.contractum_pattern())})
    return lhs_lab, rhs_lab


def label_substitution(
    sub: Substitution, supply: LabelSupply, order: list[Variable] | None = None
) -> dict[Variable, Labeling]:
    """One initial labeling per binding; codomains are pairwise disjoint
    because they draw from the same monotone supply."""
    if order is None:
        order = sorted(sub.domain(), key=lambda v: v.name)
    out: dict[Variable, Labeling] = {}
    for v in order:
        bound = sub.get(v)
        if bound is not None:
            out[v] = initial_labeling(bound, supply)
    return out


def label_step(step: TraceStep, th: RewriteTheory, supply: LabelSupply) -> LabeledStep:
    """Labeled version of one elementary trace step, taken from a trace:
    the trace checked it against the theory when it was built."""
    if step.kind in ("rule", "equation"):
        return _label_contraction(step, th, supply)
    if step.kind == "builtin":
        return _label_builtin(step, supply)
    if step.kind in ("flat", "unflat"):
        before_lab = initial_labeling(step.before, supply)
        return LabeledStep(step, before_lab, _derive_regrouping(step, before_lab))
    raise MalformedStep(f"unknown step kind {step.kind}")


def _label_contraction(step: TraceStep, th: RewriteTheory, supply: LabelSupply) -> LabeledStep:
    rule = th.find_rule(step.rule_name or "")
    q = step.position
    sub = step.matcher
    # supply order: rule first, then context, then bindings in order of
    # first occurrence in the left-hand side
    lhs_lab, rhs_lab = label_rule(rule, supply)
    context = replace_at(step.before, q, HOLE_TERM)
    ctx_lab = initial_labeling(context, supply)
    sub_labs = label_substitution(sub, supply, list(rule.lhs_occurrences))

    before_lab = Labeling()
    after_lab = Labeling()
    for p, l in ctx_lab.items():
        before_lab[p] = l
        after_lab[p] = l
    for w, l in lhs_lab.items():
        before_lab[q.concat(w)] = l
    for w, l in rhs_lab.items():
        after_lab[q.concat(w)] = l
    for side_lab, occurrences in ((before_lab, rule.lhs_occurrences), (after_lab, rule.rhs_occurrences)):
        for v, paths in occurrences.items():
            for w, l in sub_labs.get(v, {}).items():
                for occ in paths:
                    side_lab[Position(q.path + occ + w.path)] = l

    if rule.is_collapsing():
        # the binding placed at the rewrite position keeps the joined
        # redex-pattern labels on its root
        after_lab[q] = lhs_lab.cod() | after_lab[q]
    for v in rule.repeated_variables():
        after_lab[q] = after_lab[q] | sub_labs[v].cod()
    return LabeledStep(step, before_lab, after_lab)


def _label_builtin(step: TraceStep, supply: LabelSupply) -> LabeledStep:
    q = step.position
    call = subterm_at(step.before, q)
    before_lab = initial_labeling(step.before, supply)
    joined: frozenset = frozenset()
    for i in range(1, len(call.args) + 1):
        arg_pos = q.child(i)
        for w in positions(call.args[i - 1]):
            joined |= before_lab[arg_pos.concat(w)]
    after_lab = Labeling()
    for p in positions(step.after):
        after_lab[p] = joined if q.is_prefix_of(p) else before_lab[p]
    return LabeledStep(step, before_lab, after_lab)


def _derive_regrouping(step: TraceStep, before_lab: Labeling) -> Labeling:
    """One flattening or unflattening transformation (`regrouping_paths`):
    every operator of the after node's spine gets the join of the labels of
    the before node's spine, so the collapsed occurrences join into the
    flattened root and a created spine copies the flattened node's label;
    every moved argument keeps its labels, equal ones assigned in
    lexicographic position order."""
    q = step.position
    moves = list(regrouping_paths(step.kind, step.moves, subterm_at(step.before, q), subterm_at(step.after, q)))
    # the proper prefixes of the source and target paths are the two spines
    joined = frozenset().union(*(
        before_lab[Position(q.path + src[:k])] for _, src in moves for k in range(len(src))
    ))
    after_lab = Labeling({p: l for p, l in before_lab.items() if not q.is_prefix_of(p)})
    for dst, src in moves:
        for k in range(len(dst)):
            after_lab[Position(q.path + dst[:k])] = joined
        src_pos, dst_pos = Position(q.path + src), Position(q.path + dst)
        for w in positions(subterm_at(step.before, src_pos)):
            after_lab[dst_pos.concat(w)] = before_lab[src_pos.concat(w)]
    return after_lab


def label_ac_segment(steps: list[TraceStep], supply: LabelSupply) -> list[LabeledStep]:
    """Chained labeling of a flat/unflat transformation sequence: the first
    term gets an initial labeling and each step's result labeling feeds the
    next step."""
    out: list[LabeledStep] = []
    current: Labeling | None = None
    prev_after: Term | None = None
    for step in steps:
        if step.kind not in ("flat", "unflat"):
            raise MalformedStep(f"segment step has kind {step.kind}")
        if prev_after is not None and step.before != prev_after:
            raise MalformedStep("segment steps are not chained")
        if current is None:
            current = initial_labeling(step.before, supply)
        after_lab = _derive_regrouping(step, current)
        out.append(LabeledStep(step, current, after_lab))
        current = after_lab
        prev_after = step.after
    return out


def render_labeled(t: Term, labeling: Labeling, pos: Position = ROOT) -> str:
    """Debug rendering of a labeled term, t at position pos: singleton
    labels as sym^a, composite ones as sym^{ab}. Printed as `pretty`
    prints, from a stack of iterators over (node, position), not by
    recursion; every node is followed by a comma, and a node's last comma
    becomes its ")"."""
    parts: list[str] = []
    stack = [iter([(t, pos)])]
    while stack:
        for node, p in stack[-1]:
            name, label = node.root.name, labeling.get(p)
            if label:
                text = label_text(label)
                name += "^" + (text if len(label) == 1 else "{" + text + "}")
            parts.append(name)
            if node.args:
                parts.append("(")
                stack.append(iter([(a, p.child(i)) for i, a in enumerate(node.args, 1)]))
                break
            parts.append(",")
        else:
            stack.pop()
            if stack:
                parts[-1] = ")"
                parts.append(",")
    return "".join(parts[:-1])
