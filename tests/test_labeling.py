import pytest

from rwslice.engine import InstrumentedTrace, MalformedStep, RewriteTheory, Rule, TraceStep, run
from rwslice.labeling import (
    LabelSupply,
    Labeling,
    initial_labeling,
    label_ac_segment,
    label_rule,
    label_step,
    label_substitution,
    render_labeled,
)
from rwslice.terms import (
    EMPTY_SUBST,
    HOLE_TERM,
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    positions,
    pretty,
)
from rwslice.theoryfile import parse_term
from rwslice.acmatch import flatten, plan_unflat


def P(text):
    return Position.parse(text)


def T(text, sig=None, variables=None):
    return parse_term(text, sig, variables or set())


@pytest.fixture
def step_theory():
    sig = Signature()
    for name, arity in [("f", 2), ("g", 2), ("d", 2), ("s", 1), ("h", 1), ("a", 0), ("b", 0)]:
        sig.declare(name, arity)
    r = Rule("r", T("f(g(x,y),a)", sig, {"x", "y"}), T("d(s(y),y)", sig, {"x", "y"}))
    return RewriteTheory(sig, rules=[r])


@pytest.fixture
def ac_sig():
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    for name in "abc":
        sig.declare(name, 0)
    return sig


def ac_segment_steps(sig):
    t0 = T("f(b,f(b,f(a,c)))", sig)
    canon, flat_events = flatten(t0, sig)
    target = T("f(f(b,c),f(a,b))", sig)
    _, unflat_events = plan_unflat(canon, Position(), target, sig)
    steps = [TraceStep("flat", None, p, EMPTY_SUBST, b, a) for p, b, a in flat_events]
    steps += [TraceStep("unflat", None, p, EMPTY_SUBST, b, a) for p, b, a in unflat_events]
    return steps


def test_initial_labeling_context():
    g2 = Symbol("g", 2)
    f2 = Symbol("f", 2)
    a0 = Symbol("a", 0)
    t = Term(f2, (Term(g2, (Term(a0), Term(a0))), HOLE_TERM))
    lab = initial_labeling(t, LabelSupply())
    assert lab == {P("^"): {0}, P("1"): {1}, P("1.1"): {2}, P("1.2"): {3}}
    assert render_labeled(t, lab) == "f^α(g^β(a^γ,a^δ),□)"


def test_initial_labeling_sizes(step_theory):
    sig = step_theory.signature
    assert len(initial_labeling(T("a", sig), LabelSupply())) == 1
    lab = initial_labeling(T("d(f(g(a,h(b)),a),a)", sig), LabelSupply())
    assert len(lab) == 8
    assert all(len(l) == 1 for l in lab.values())
    assert len(lab.cod()) == 8


def test_label_rule_golden(step_theory):
    rule = step_theory.find_rule("r")
    supply = LabelSupply()
    lhs_lab, rhs_lab = label_rule(rule, supply)
    assert lhs_lab == {P("^"): {0}, P("1"): {1}, P("2"): {2}}
    assert rhs_lab == {P("^"): {0, 1, 2}, P("1"): {0, 1, 2}}
    assert render_labeled(rule.lhs, lhs_lab) == "f^α(g^β(x,y),a^γ)"
    assert render_labeled(rule.rhs, rhs_lab) == "d^{αβγ}(s^{αβγ}(y),y)"


def test_label_rule_single_symbol_pattern():
    sig = Signature()
    sig.declare("a", 0)
    sig.declare("b", 0)
    r = Rule("ab", T("a", sig), T("b", sig))
    lhs_lab, rhs_lab = label_rule(r, LabelSupply())
    assert lhs_lab == {P("^"): {0}} and rhs_lab == {P("^"): {0}}


def test_label_rule_variables_unlabeled():
    r = Rule("n", T("f(x,y,x)", None, {"x", "y"}), T("g(x,y)", None, {"x", "y"}))
    lhs_lab, rhs_lab = label_rule(r, LabelSupply())
    assert lhs_lab == {P("^"): {0}}
    assert rhs_lab == {P("^"): {0}}


def test_label_rule_collapsing_has_empty_contractum():
    r = Rule("c", T("f(x)", None, {"x"}), Term(Variable("x")))
    _, rhs_lab = label_rule(r, LabelSupply())
    assert rhs_lab == {}


def test_label_substitution_golden(step_theory):
    sig = step_theory.signature
    x, y = Variable("x"), Variable("y")
    sub = Substitution({x: T("a", sig), y: T("h(b)", sig)})
    labs = label_substitution(sub, LabelSupply(5), order=[x, y])
    assert labs[x] == {P("^"): {5}}
    assert labs[y] == {P("^"): {6}, P("1"): {7}}
    cods = [labs[x].cod(), labs[y].cod()]
    assert cods[0] & cods[1] == frozenset()


def test_label_substitution_empty_and_sizes():
    assert label_substitution(EMPTY_SUBST, LabelSupply()) == {}
    x = Variable("x")
    sub = Substitution({x: T("f(a,b)")})
    labs = label_substitution(sub, LabelSupply())
    assert len(labs[x].cod()) == 3


def test_label_step_golden(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    assert len(trace.steps) == 1
    ls = label_step(trace.steps[0], step_theory, LabelSupply())
    before_txt = render_labeled(ls.step.before, ls.before_labeling)
    after_txt = render_labeled(ls.step.after, ls.after_labeling)
    assert before_txt == "d^δ(f^α(g^β(a^ζ,h^η(b^θ)),a^γ),a^ε)"
    assert (
        after_txt
        == "d^δ(d^{αβγ}(s^{αβγ}(h^η(b^θ)),h^η(b^θ)),a^ε)"
    )


def test_label_step_disjointness_and_context(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    ls = label_step(trace.steps[0], step_theory, LabelSupply())
    q = ls.step.position
    # context symbols carry identical labels on both sides
    for p in positions(ls.step.before):
        if not q.is_prefix_of(p):
            assert ls.before_labeling[p] == ls.after_labeling[p]
    # redex pattern, context, and binding codomains are pairwise disjoint
    rule_cod = frozenset().union(*(ls.before_labeling[q.concat(w)] for w in [P("^"), P("1"), P("2")]))
    ctx_cod = ls.before_labeling[P("^")] | ls.before_labeling[P("2")]
    bind_cod = ls.before_labeling[P("1.1.1")] | ls.before_labeling[P("1.1.2")] | ls.before_labeling[P("1.1.2.1")]
    assert rule_cod & ctx_cod == frozenset()
    assert rule_cod & bind_cod == frozenset()
    assert ctx_cod & bind_cod == frozenset()
    # contractum uniformity: both contractum positions carry the same join
    assert ls.after_labeling[P("1")] == ls.after_labeling[P("1.1")] == rule_cod
    # substitution parts are preserved at corresponding positions
    assert ls.before_labeling[P("1.1.2")] == ls.after_labeling[P("1.1.1")] == ls.after_labeling[P("1.2")]


def test_label_step_collapsing_nonlinear_golden():
    sig = Signature()
    sig.declare("f", 3)
    sig.declare("h", 2)
    sig.declare("a", 0)
    sig.declare("b", 0)
    rule = Rule("fxyx", T("f(x,y,x)", sig, {"x", "y"}), Term(Variable("y")))
    th = RewriteTheory(sig, rules=[rule])
    trace = run(T("h(f(a,b,a),b)", sig), th, 1)
    ls = label_step(trace.steps[0], th, LabelSupply())
    # supply order: rule (0), context (1, 2), x/a (3), y/b (4)
    assert ls.before_labeling == {
        P("^"): {1},
        P("1"): {0},
        P("1.1"): {3},
        P("1.2"): {4},
        P("1.3"): {3},
        P("2"): {2},
    }
    # the surviving b keeps the joined redex label, its own label, and the
    # repeated binding's labels
    assert ls.after_labeling == {P("^"): {1}, P("1"): {0, 3, 4}, P("2"): {2}}
    assert render_labeled(ls.step.after, ls.after_labeling) == "h^β(b^{αδε},b^γ)"


def test_label_step_collapsing_only():
    sig = Signature()
    sig.declare("p", 1)
    sig.declare("g", 1)
    sig.declare("a", 0)
    rule = Rule("c", T("p(x)", sig, {"x"}), Term(Variable("x")))
    th = RewriteTheory(sig, rules=[rule])
    trace = run(T("g(p(a))", sig), th, 1)
    ls = label_step(trace.steps[0], th, LabelSupply())
    # binding root at the rewrite position keeps redex labels joined in
    assert ls.after_labeling[P("1")] == ls.before_labeling[P("1")] | ls.before_labeling[P("1.1")]


def test_label_step_builtin_golden():
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    th = RewriteTheory(sig)
    from rwslice.engine import normalize

    _, steps = normalize(T("+(7,8)", sig), th)
    ls = label_step(steps[0], th, LabelSupply())
    assert render_labeled(ls.step.before, ls.before_labeling) == "+^α(7^β,8^γ)"
    assert render_labeled(ls.step.after, ls.after_labeling) == "15^{βγ}"


def test_label_step_builtin_under_context():
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    sig.declare("g", 1)
    th = RewriteTheory(sig)
    from rwslice.engine import normalize

    _, steps = normalize(T("g(+(2,3))", sig), th)
    ls = label_step(steps[0], th, LabelSupply())
    # context root inherits its own label; the value carries the arg join
    assert ls.after_labeling[P("^")] == ls.before_labeling[P("^")]
    assert ls.after_labeling[P("1")] == ls.before_labeling[P("1.1")] | ls.before_labeling[P("1.2")]


def test_label_ac_segment_golden(ac_sig):
    steps = ac_segment_steps(ac_sig)
    labeled = label_ac_segment(steps, LabelSupply())
    rendered = [render_labeled(labeled[0].step.before, labeled[0].before_labeling)]
    rendered += [render_labeled(ls.step.after, ls.after_labeling) for ls in labeled]
    assert rendered[0] == "f^α(b^β,f^γ(b^δ,f^ε(a^ζ,c^η)))"
    assert rendered[-2] == "f^{αγε}(a^ζ,b^β,b^δ,c^η)"
    assert (
        rendered[-1]
        == "f^{αγε}(f^{αγε}(b^β,c^η),f^{αγε}(a^ζ,b^δ))"
    )


def test_label_ac_segment_stability(ac_sig):
    # the two occurrences of b keep their relative lexicographic order in
    # every term of the labeled sequence
    steps = ac_segment_steps(ac_sig)
    labeled = label_ac_segment(steps, LabelSupply())
    beta, delta = frozenset({1}), frozenset({3})
    chain = [(labeled[0].step.before, labeled[0].before_labeling)]
    chain += [(ls.step.after, ls.after_labeling) for ls in labeled]
    for term, lab in chain:
        pos_beta = [p for p, l in lab.items() if l == beta]
        pos_delta = [p for p, l in lab.items() if l == delta]
        assert len(pos_beta) == 1 and len(pos_delta) == 1
        assert pos_beta[0] < pos_delta[0]


def test_label_ac_segment_single_flat(ac_sig):
    t = T("f(a,f(b,c))", ac_sig)
    _, events = flatten(t, ac_sig)
    steps = [TraceStep("flat", None, p, EMPTY_SUBST, b, a) for p, b, a in events]
    labeled = label_ac_segment(steps, LabelSupply())
    assert len(labeled) == 1
    ls = labeled[0]
    # root joins the two operator labels, constants inherit
    assert ls.after_labeling[P("^")] == ls.before_labeling[P("^")] | ls.before_labeling[P("2")]
    assert ls.after_labeling[P("1")] == ls.before_labeling[P("1")]


def test_label_ac_segment_empty(ac_sig):
    assert label_ac_segment([], LabelSupply()) == []


def test_labeling_refuses_an_unknown_kind_and_a_segment_of_other_steps(step_theory, ac_sig):
    sig = step_theory.signature
    a = T("a", sig)
    with pytest.raises(MalformedStep, match="unknown step kind swap"):
        label_step(TraceStep("swap", None, Position(), EMPTY_SUBST, a, a), step_theory, LabelSupply())
    rule_step = run(T("f(g(a,b),a)", sig), step_theory, 1).steps[0]
    with pytest.raises(MalformedStep, match="segment step has kind rule"):
        label_ac_segment([rule_step], LabelSupply())
    steps = ac_segment_steps(ac_sig)
    with pytest.raises(MalformedStep, match="segment steps are not chained"):
        label_ac_segment([steps[-1], steps[0]], LabelSupply())


def test_label_step_rejects_malformed(step_theory):
    sig = step_theory.signature
    bogus = TraceStep(
        "rule", "r", Position(), EMPTY_SUBST, T("a", sig), T("b", sig)
    )
    # label_step takes its steps from a trace, and no trace can hold this one
    with pytest.raises(MalformedStep, match="step 0: rule step at . does not replay"):
        InstrumentedTrace(step_theory, bogus.before, [bogus])


def test_labeling_deterministic(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    ls1 = label_step(trace.steps[0], step_theory, LabelSupply(3))
    ls2 = label_step(trace.steps[0], step_theory, LabelSupply(3))
    assert ls1.before_labeling == ls2.before_labeling
    assert ls1.after_labeling == ls2.after_labeling
