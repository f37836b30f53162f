import copy
import dataclasses
import random
import sys

import pytest

from rwslice.acmatch import flatten, plan_unflat
from rwslice.engine import InstrumentedTrace, RewriteTheory, Rule, TraceStep, run
from rwslice.labeling import Labeling, LabelSupply, label_ac_segment, label_step
from rwslice.slicer import (
    InvalidCriterion,
    ReplayFailure,
    check_soundness,
    concretizes,
    origin_positions,
    relevant_positions,
    slice_term,
    trace_slice,
)
from rwslice.terms import (
    BULLET_TERM,
    EMPTY_SUBST,
    Position,
    PositionOutOfRange,
    Signature,
    Symbol,
    Term,
    Variable,
    positions,
    pretty,
)
from rwslice.theoryfile import parse_term

from genutil import category_seed, random_criterion, seeded_traces, soundness_case


def P(text):
    return Position.parse(text)


def T(text, sig=None, variables=None):
    return parse_term(text, sig, variables or set(), allow_bullet=True)


@pytest.fixture
def step_theory():
    sig = Signature()
    for name, arity in [("f", 2), ("g", 2), ("d", 2), ("s", 1), ("h", 1), ("a", 0), ("b", 0), ("c", 0), ("j", 1)]:
        sig.declare(name, arity)
    r = Rule("r", T("f(g(x,y),a)", sig, {"x", "y"}), T("d(s(y),y)", sig, {"x", "y"}))
    return RewriteTheory(sig, rules=[r])


@pytest.fixture
def labeled_step(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    return trace, label_step(trace.steps[0], step_theory, LabelSupply())


def independent_origin_scan(ls, w):
    """The origin relation recomputed directly from the two labelings."""
    out = set()
    path_labels = [ls.after_labeling[p] for p in w.prefixes() if p in ls.after_labeling]
    for v, lv in ls.before_labeling.items():
        if any(lv <= lp for lp in path_labels):
            out.add(v)
    return out


def independent_backward_pass(labeled, criterion):
    """relevant_positions recomputed step by step as the union of the
    in-test scan over every relevant position."""
    expect = [frozenset(criterion)]
    for ls in reversed(labeled):
        acc = set()
        for w in expect[0]:
            acc |= independent_origin_scan(ls, w)
        expect.insert(0, frozenset(acc))
    return expect


def test_origin_positions_golden(labeled_step):
    _, ls = labeled_step
    assert origin_positions(ls, P("1.2")) == {P("1.1.2"), P("1"), P("1.1"), P("1.2"), P("^")}


def test_origin_positions_context_only(labeled_step):
    _, ls = labeled_step
    # a context position traces back to exactly its own prefixes in the context
    assert origin_positions(ls, P("2")) == {P("^"), P("2")}


def test_origin_positions_out_of_range(labeled_step):
    _, ls = labeled_step
    with pytest.raises(PositionOutOfRange):
        origin_positions(ls, P("3.7"))


def test_origin_positions_composite_label_needs_one_containing_label(labeled_step):
    # {1,2} lies inside the union of the path labels {1} and {2}, but in
    # neither of them
    _, ls = labeled_step
    ls = dataclasses.replace(
        ls,
        before_labeling=Labeling({P("^"): frozenset({1, 2}), P("1"): frozenset({2})}),
        after_labeling=Labeling({P("^"): frozenset({1}), P("1"): frozenset({2})}),
    )
    assert origin_positions(ls, P("1")) == independent_origin_scan(ls, P("1")) == {P("1")}


def test_origin_positions_collapsing_brute_force():
    sig = Signature()
    sig.declare("f", 3)
    sig.declare("h", 2)
    sig.declare("a", 0)
    sig.declare("b", 0)
    rule = Rule("fxyx", T("f(x,y,x)", sig, {"x", "y"}), Term(Variable("y")))
    th = RewriteTheory(sig, rules=[rule])
    trace = run(T("h(f(a,b,a),b)", sig), th, 1)
    ls = label_step(trace.steps[0], th, LabelSupply())
    got = origin_positions(ls, P("1"))
    assert got == independent_origin_scan(ls, P("1"))
    assert got == {P("^"), P("1"), P("1.1"), P("1.2"), P("1.3")}


def test_origin_monotonic_in_position(labeled_step):
    _, ls = labeled_step
    for w in positions(ls.step.after):
        for prefix in w.prefixes():
            assert origin_positions(ls, prefix) <= origin_positions(ls, w)


def test_relevant_positions_empty_criterion(labeled_step):
    trace, ls = labeled_step
    sets = relevant_positions(trace, [ls], frozenset())
    assert sets == [frozenset(), frozenset()]


def test_relevant_positions_single_step(labeled_step):
    trace, ls = labeled_step
    sets = relevant_positions(trace, [ls], {P("1.2")})
    assert sets[1] == {P("1.2")}
    assert sets[0] == {P("1.1.2"), P("1"), P("1.1"), P("1.2"), P("^")}


def test_relevant_positions_two_step_chain():
    sig = Signature()
    for name, arity in [("f", 1), ("g", 1), ("m", 1), ("a", 0), ("b", 0)]:
        sig.declare(name, arity)
    r1 = Rule("r1", T("f(x)", sig, {"x"}), T("b", sig))
    r2 = Rule("r2", T("g(b)", sig), T("m(a)", sig))
    th = RewriteTheory(sig, [], [r1, r2])
    trace = run(T("g(f(a))", sig), th, 10)
    labeled = [label_step(s, th, LabelSupply()) for s in trace.steps]
    sets = relevant_positions(trace, labeled, frozenset({Position()}))
    assert sets == independent_backward_pass(labeled, frozenset({Position()}))
    assert sets[2] == {P("^")}
    # m's join carries both redex labels, so all of g(b) is relevant
    assert sets[1] == {P("^"), P("1")}
    assert sets[0] == {P("^"), P("1")}


def test_relevant_positions_equals_scan_on_generated_traces():
    rng = random.Random(5)
    for th, trace in seeded_traces():
        labeled = [label_step(s, th, LabelSupply()) for s in trace.steps]
        final = positions(trace.final())
        criteria = [{Position()}, {final[-1]}, set(final), random_criterion(rng, trace.final())]
        for crit in criteria:
            got = relevant_positions(trace, labeled, crit)
            assert got == independent_backward_pass(labeled, crit), (trace.initial, crit)


def test_relevant_positions_equals_scan_on_chained_ac_segment():
    # chained labels are joins, so the subset test behind `covered` decides
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    for name in "abc":
        sig.declare(name, 0)
    t0 = T("f(b,f(b,f(a,c)))", sig)
    canon, flat_events = flatten(t0, sig)
    _, unflat_events = plan_unflat(canon, Position(), T("f(f(b,c),f(a,b))", sig), sig)
    steps = [TraceStep("flat", None, p, EMPTY_SUBST, b, a) for p, b, a in flat_events]
    steps += [TraceStep("unflat", None, p, EMPTY_SUBST, b, a) for p, b, a in unflat_events]
    trace = InstrumentedTrace(RewriteTheory(sig), t0, steps)
    labeled = label_ac_segment(steps, LabelSupply())
    assert any(len(l) > 1 for ls in labeled for l in ls.before_labeling.values())
    final = positions(trace.final())
    for crit in [{w} for w in final] + [set(final)]:
        assert relevant_positions(trace, labeled, crit) == independent_backward_pass(labeled, crit)


def test_relevant_positions_invalid_criterion(labeled_step):
    trace, ls = labeled_step
    with pytest.raises(InvalidCriterion):
        relevant_positions(trace, [ls], frozenset({P("9.9")}))


def test_relevant_positions_refuses_labeled_steps_short_of_the_trace(labeled_step):
    trace, _ = labeled_step
    with pytest.raises(InvalidCriterion, match="labeled steps do not cover the trace"):
        relevant_positions(trace, [], {P("1.2")})


def test_slice_golden(step_theory):
    t = T("d(f(g(a,h(b)),a),a)", step_theory.signature)
    got = slice_term(t, {P("1.1.2"), P("1.2")})
    assert pretty(got) == "d(f(g(•,h(•)),a),•)"


def test_slice_full_and_empty(step_theory):
    t = T("d(f(g(a,h(b)),a),a)", step_theory.signature)
    assert slice_term(t, positions(t)) == t
    assert slice_term(t, set()) == BULLET_TERM
    with pytest.raises(PositionOutOfRange):
        slice_term(t, {P("4")})


def test_slice_term_names_bad_positions_as_the_cli_reads_them(step_theory):
    t = T("d(f(g(a,h(b)),a),a)", step_theory.signature)
    with pytest.raises(PositionOutOfRange, match=r"^1\.3,4 are not positions of d\(f\(g\(a,h\(b\)\),a\),a\)$"):
        slice_term(t, {P("4"), P("1.3"), P("1.1")})


def test_slice_prefix_closure(step_theory):
    t = T("d(f(g(a,h(b)),a),a)", step_theory.signature)
    p = {P("1.1.2"), P("1.2")}
    closed = {prefix for w in p for prefix in w.prefixes()}
    assert slice_term(t, p) == slice_term(t, closed)


def test_concretizes_examples(step_theory):
    sig = step_theory.signature
    sl = T("d(f(g(•,h(•)),a),•)", sig)
    assert concretizes(sl, T("d(f(g(c,h(c)),a),j(b))", sig))
    t = T("d(f(g(a,h(b)),a),a)", sig)
    assert concretizes(t, t)
    assert not concretizes(sl, T("d(f(g(c,c),a),b)", sig))
    # variables inside a slice bind consistently
    assert concretizes(T("f(X,X,•)", None, {"X"}), T("f(a,a,b)"))
    assert not concretizes(T("f(X,X,•)", None, {"X"}), T("f(a,b,b)"))


def test_concretizes_deep_slice_without_recursion():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    s = Symbol("s", 1)
    sl, t = BULLET_TERM, T("z")
    for _ in range(depth):
        sl, t = Term(s, (sl,)), Term(s, (t,))
    assert concretizes(sl, t)
    assert not concretizes(t, sl)


def test_trace_slice_single_step(step_theory, labeled_step):
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    assert [pretty(t) for t in ts.glued_terms()] == [
        "d(f(g(•,h(•)),a),•)",
        "d(d(•,h(•)),•)",
    ]
    assert len(ts.steps) == 1 and ts.steps[0].rule_name == "r"
    assert ts.sliced_size <= ts.original_size
    assert 0 <= ts.reduction_percent <= 100


def test_trace_slice_full_criterion_keeps_everything():
    # non-erasing elementary theory: a full criterion keeps every symbol
    sig = Signature()
    sig.declare("p", 1)
    sig.declare("q", 2)
    sig.declare("a", 0)
    r = Rule("r", T("p(x)", sig, {"x"}), T("q(x,x)", sig, {"x"}))
    th = RewriteTheory(sig, rules=[r])
    trace = run(T("p(p(a))", sig), th, 10)
    ts = trace_slice(trace, positions(trace.final()))
    assert ts.slices == trace.terms()
    assert len(ts.steps) == len(trace.steps)
    assert ts.reduction_percent == 0.0


def test_trace_slice_collapsing_nonlinear():
    sig = Signature()
    sig.declare("f", 3)
    sig.declare("h", 2)
    sig.declare("a", 0)
    sig.declare("b", 0)
    rule = Rule("fxyx", T("f(x,y,x)", sig, {"x", "y"}), Term(Variable("y")))
    th = RewriteTheory(sig, rules=[rule])
    trace = run(T("h(f(a,b,a),b)", sig), th, 1)
    ts = trace_slice(trace, {P("1")})
    assert [pretty(t) for t in ts.glued_terms()] == ["h(f(a,b,a),•)", "h(b,•)"]


def test_trace_slice_drops_context_only_steps():
    # two independent redexes; observing one side drops the other side's step
    sig = Signature()
    sig.declare("pair", 2)
    sig.declare("p", 1)
    sig.declare("a", 0)
    sig.declare("b", 0)
    r = Rule("r", T("p(x)", sig, {"x"}), T("b", sig))
    th = RewriteTheory(sig, rules=[r])
    trace = run(T("pair(p(a),p(a))", sig), th, 2)
    assert len(trace.steps) == 2
    ts = trace_slice(trace, {P("1")})
    kept = [s.index for s in ts.steps]
    assert kept == [0]
    # the dropped step's slices coincide
    assert ts.slices[1] == ts.slices[2]


def test_redex_pattern_preserved_in_retained_rule_steps(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    ts = trace_slice(trace, {P("1.2")})
    rule = step_theory.find_rule("r")
    for s in ts.steps:
        if s.kind != "rule":
            continue
        for w in positions(rule.redex_pattern()):
            node = s.before_slice
            for i in s.position.concat(w).path:
                node = node.args[i - 1]
            assert not (hasattr(node.root, "kind") and node.root.kind == "bullet")


def test_check_soundness_fig_style(step_theory, labeled_step):
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    conc = T("d(f(g(c,h(c)),a),j(b))", step_theory.signature)
    assert check_soundness(ts, step_theory, conc) is True


def test_check_soundness_minimal_concretization(step_theory, labeled_step):
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    # replace opaque leaves by fresh constants
    sig2 = Signature()
    fresh = Term(sig2.declare("z0", 0))

    def fill(t):
        if hasattr(t.root, "kind") and t.root.kind == "bullet":
            return fresh
        return Term(t.root, tuple(fill(a) for a in t.args))

    assert check_soundness(ts, step_theory, fill(ts.slices[0])) is True


def test_check_soundness_rejects_non_concretization(step_theory, labeled_step):
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    with pytest.raises(ValueError):
        check_soundness(ts, step_theory, T("a", step_theory.signature))


def test_check_soundness_names_a_replay_that_escapes_its_slices(step_theory, labeled_step):
    """A slice whose kept step has a before or an after slice that the
    replayed term does not concretize fails at that step."""
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    conc = T("d(f(g(c,h(c)),a),j(b))", step_theory.signature)
    b = T("b", step_theory.signature)
    for side in ("before", "after"):
        tampered = dataclasses.replace(ts, steps=[dataclasses.replace(ts.steps[0], **{f"{side}_slice": b})])
        with pytest.raises(ReplayFailure, match=f"sliced step 0: replayed term escaped the {side} slice"):
            check_soundness(tampered, step_theory, conc)


def test_producer_consumer_twenty_steps_sliceable():
    from rwslice import bundled_example_path
    from rwslice.theoryfile import parse_theory
    from genutil import random_concretization

    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text())
    trace = run(T("cfg(tok,prod(0),cons(0,0))", th.signature), th, 20)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 20
    ts = trace_slice(trace, {P("1.2")})
    assert ts.reduction_percent > 0
    rng = random.Random(0)
    conc = random_concretization(rng, th.signature, ts.slices[0])
    assert check_soundness(ts, th, conc) is True


def test_check_soundness_randomized_smoke():
    rng = random.Random(42)
    for category in ("elementary", "collapsing", "nonlinear", "builtin", "ac"):
        for _ in range(25):
            th, ts, conc = soundness_case(rng, category)
            assert check_soundness(ts, th, conc) is True


def test_check_soundness_names_failing_step():
    # a case whose last kept rule step is not the first kept step
    rng = random.Random(category_seed("elementary"))
    for _ in range(100):
        th, ts, conc = soundness_case(rng, "elementary")
        k = max((i for i, s in enumerate(ts.steps) if s.kind == "rule"), default=0)
        if k > 0:
            break
    assert k > 0
    steps = list(ts.trace.steps)
    j = ts.steps[k].index
    steps[j] = dataclasses.replace(steps[j], rule_name="unknown")
    # a broken trace cannot be built: corrupt a copy of a built one
    trace = copy.copy(ts.trace)
    object.__setattr__(trace, "steps", tuple(steps))
    broken = dataclasses.replace(ts, trace=trace)
    with pytest.raises(ReplayFailure) as info:
        check_soundness(broken, th, conc)
    assert info.value.index == k
    assert check_soundness(ts, th, conc) is True


def test_stats_metrics(step_theory, labeled_step):
    trace, _ = labeled_step
    ts = trace_slice(trace, {P("1.2")})
    original = " -> ".join(pretty(t) for t in trace.terms())
    assert ts.original_size == len(original)
    glued = " -> ".join(pretty(t) for t in ts.glued_terms())
    assert ts.sliced_size == len(glued)
    assert ts.reduction_percent == pytest.approx(
        100.0 * (1 - ts.sliced_size / ts.original_size)
    )
