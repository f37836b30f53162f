import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from rwslice import acmatch, bundled_example_path, engine
from rwslice.acmatch import flatten_term, match_modulo_ac, needs_flat
from rwslice.engine import (
    InstrumentedTrace,
    MalformedStep,
    NoRuleApplicable,
    RewriteTheory,
    Rule,
    StepBudgetExceeded,
    TheoryError,
    TraceStep,
    apply_step,
    check_step,
    normalize,
    rewrite_step_modulo_E,
    run,
    run_until,
)
from rwslice.slicer import trace_slice, trace_string
from rwslice.terms import (
    BULLET_TERM,
    EMPTY_SUBST,
    ROOT,
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    match,
    positions,
    preorder,
    pretty,
    replace_at,
    subterm_at,
)
from rwslice.theoryfile import parse_term, parse_theory
from rwslice.tracefile import parse_trace, render_trace

from genutil import BANK, BUNDLED_RUNS, WIDE_STATE, all_sizes_candidates, postorder_scan, random_soup, replaced, seeded_traces, wide_tree


def T(text, sig, variables=None):
    return parse_term(text, sig, variables or set())


@pytest.fixture
def basic_theory():
    # r1: f(x) -> b, r2: g(b) -> m(a)
    sig = Signature()
    for name, arity in [("f", 1), ("g", 1), ("m", 1), ("a", 0), ("b", 0)]:
        sig.declare(name, arity)
    r1 = Rule("r1", T("f(x)", sig, {"x"}), T("b", sig))
    r2 = Rule("r2", T("g(b)", sig), T("m(a)", sig))
    return RewriteTheory(sig, [], [r1, r2])


@pytest.fixture
def ac_theory():
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    for name in "abc":
        sig.declare(name, 0)
    return RewriteTheory(sig)


@pytest.fixture
def builtin_theory():
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    return RewriteTheory(sig)


def test_rule_invariants():
    sig = Signature()
    sig.declare("f", 1)
    with pytest.raises(TheoryError):
        Rule("bad", Term(Variable("x")), T("f(x)", sig, {"x"}))
    with pytest.raises(TheoryError):
        Rule("bad", T("f(x)", sig, {"x"}), T("f(y)", sig, {"y"}))
    r = Rule("ok", T("f(x)", sig, {"x"}), Term(Variable("x")))
    assert r.is_collapsing() and r.is_left_linear()
    nl = Rule("nl", parse_term("f(x,y,x)", None, {"x", "y"}), Term(Variable("y")))
    assert [v.name for v in nl.repeated_variables()] == ["x"]


def test_theory_validation():
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    sig.declare("g", 1)
    plus = T("+(x,y)", sig, {"x", "y"})
    with pytest.raises(TheoryError):
        RewriteTheory(sig, rules=[Rule("r", plus, T("g(x)", sig, {"x"}))])
    g = T("g(x)", sig, {"x"})
    with pytest.raises(TheoryError):
        RewriteTheory(sig, rules=[Rule("r", g, g), Rule("r", g, g)])


def test_rule_and_theory_refuse_a_kind_out_of_place():
    sig = Signature()
    sig.declare("g", 1)
    g = T("g(x)", sig, {"x"})
    with pytest.raises(TheoryError, match="^ax: bad kind axiom$"):
        Rule("ax", g, g, kind="axiom")
    with pytest.raises(TheoryError, match="^r: equations list holds kind rule$"):
        RewriteTheory(sig, equations=[Rule("r", g, g)])
    with pytest.raises(TheoryError, match="^e: rules list holds kind equation$"):
        RewriteTheory(sig, rules=[Rule("e", g, g, kind="equation")])


def test_trace_constructor_refuses_steps_off_the_initial_term(basic_theory):
    sig = basic_theory.signature
    trace = run(T("g(f(a))", sig), basic_theory, 10)
    with pytest.raises(MalformedStep, match="^step 0: steps do not chain$"):
        InstrumentedTrace(basic_theory, T("g(f(b))", sig), trace.steps)


def test_normalize_fixpoint(basic_theory):
    t = T("m(a)", basic_theory.signature)
    result, steps = normalize(t, basic_theory)
    assert result == t and steps == []


def test_normalize_builtin(builtin_theory):
    t = T("+(7,8)", builtin_theory.signature)
    result, steps = normalize(t, builtin_theory)
    assert pretty(result) == "15"
    assert [s.kind for s in steps] == ["builtin"]


def test_normalize_flattening(ac_theory):
    t = T("f(b,f(b,f(a,c)))", ac_theory.signature)
    result, steps = normalize(t, ac_theory)
    assert pretty(result) == "f(a,b,b,c)"
    assert {s.kind for s in steps} == {"flat"}


def test_normalize_result_is_fixpoint(basic_theory):
    sig = Signature()
    sig.declare("g", 1)
    sig.declare("a", 0)
    eq = Rule("e1", T("g(g(x))", sig, {"x"}), T("g(x)", sig, {"x"}), kind="equation")
    th = RewriteTheory(sig, [eq])
    result, steps = normalize(T("g(g(g(g(a))))", sig), th)
    assert pretty(result) == "g(a)"
    again, more = normalize(result, th)
    assert again == result and more == []


def test_rewrite_step_examples(basic_theory):
    sig = basic_theory.signature
    result, steps = rewrite_step_modulo_E(T("g(f(a))", sig), basic_theory)
    assert pretty(result) == "g(b)"
    assert [(s.kind, str(s.position)) for s in steps] == [("rule", "1")]

    result2, steps2 = rewrite_step_modulo_E(T("g(b)", sig), basic_theory)
    assert pretty(result2) == "m(a)"
    assert [(s.kind, str(s.position)) for s in steps2] == [("rule", "^")]

    with pytest.raises(NoRuleApplicable):
        rewrite_step_modulo_E(T("m(a)", sig), basic_theory)


def test_rewrite_step_is_pure_rule_without_equations(basic_theory):
    # no equations, no AC, no builtins: exactly one step, kind rule
    _, steps = rewrite_step_modulo_E(T("g(f(a))", basic_theory.signature), basic_theory)
    assert len(steps) == 1 and steps[0].kind == "rule"


def test_run_two_step_trace(basic_theory):
    trace = run(T("g(f(a))", basic_theory.signature), basic_theory, 10)
    assert pretty(trace.final()) == "m(a)"
    assert [s.rule_name for s in trace.steps] == ["r1", "r2"]


def test_run_zero_steps(basic_theory):
    sig = Signature()
    sig.declare("g", 1)
    sig.declare("a", 0)
    eq = Rule("e1", T("g(g(x))", sig, {"x"}), T("g(x)", sig, {"x"}), kind="equation")
    th = RewriteTheory(sig, [eq])
    trace = run(T("g(g(a))", sig), th, 0)
    assert [s.kind for s in trace.steps] == ["equation"]
    assert pretty(trace.final()) == "g(a)"


def test_run_is_deterministic(basic_theory):
    t = T("g(f(a))", basic_theory.signature)
    first = run(t, basic_theory, 10)
    second = run(t, basic_theory, 10)
    assert first.steps == second.steps


def test_budget_guard():
    sig = Signature()
    sig.declare("g", 1)
    sig.declare("a", 0)
    loop = Rule("e1", T("g(x)", sig, {"x"}), T("g(x)", sig, {"x"}), kind="equation")
    th = RewriteTheory(sig, [loop])
    with pytest.raises(StepBudgetExceeded):
        normalize(T("g(a)", sig), th, max_steps=50)


def test_producer_consumer_run_chains_and_replays():
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    init = T("cfg(tok,prod(0),cons(0,0))", th.signature)
    trace = run(init, th, 5)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 5
    kinds = {s.kind for s in trace.steps}
    assert {"rule", "equation", "flat", "unflat", "builtin"} <= kinds
    for step in trace.steps:
        assert check_step(step, th)
    # after make,eat,make,eat,make the token is held by the producer side
    assert pretty(trace.final()) == "cfg(cons(2,1),item(2),prod(3))"


@pytest.fixture(scope="module")
def generated_traces():
    return seeded_traces()


@pytest.fixture(scope="module")
def generated_steps(generated_traces):
    steps = [(th, s) for th, trace in generated_traces for s in trace.steps]
    assert {s.kind for _, s in steps} == {"rule", "equation", "builtin", "flat", "unflat"}
    return steps


def test_apply_step_reproduces_every_step(generated_steps):
    for th, s in generated_steps:
        assert apply_step(s, th, s.before) == s.after, s
        assert check_step(s, th), s


def test_check_step_rejects_single_field_tampering(generated_steps):
    swapped_kind = {"flat": "unflat", "unflat": "flat"}
    for th, s in generated_steps:
        tampered = [
            replaced(s, after=replace_at(s.after, positions(s.after)[-1], BULLET_TERM)),
            *(replaced(s, position=p) for p in positions(s.before) if p != s.position),
        ]
        if s.kind in ("rule", "equation"):
            others = [r.name for r in th.equations + th.rules if r.name != s.rule_name]
            tampered += [replaced(s, rule_name=n) for n in others + ["unknown"]]
        if s.kind in swapped_kind:
            tampered.append(replaced(s, kind=swapped_kind[s.kind]))
        for v, _ in s.matcher.items():
            rebound = Substitution({**dict(s.matcher.items()), v: BULLET_TERM})
            tampered.append(replaced(s, matcher=rebound))
        if s.kind in ("rule", "equation"):
            # a binding of a variable the left-hand side does not have
            extra = Substitution({**dict(s.matcher.items()), Variable("Zextra"): subterm_at(s.before, s.position)})
            tampered.append(replaced(s, matcher=extra))
        if s.kind == "flat":
            # the flattened node with its last argument dropped, or another root
            node = subterm_at(s.after, s.position)
            if len(node.args) > 2:
                tampered.append(replaced(s, after=replace_at(s.after, s.position, Term(node.root, node.args[:-1]))))
            tampered.append(replaced(s, after=replace_at(s.after, s.position, Term(Symbol("zz", 2), node.args))))
        if s.kind in ("flat", "unflat", "builtin"):
            # only a builtin step has a name, its own operator's, and none binds
            tampered += [replaced(s, rule_name=n) for n in ("serve", "+", "-") if n != s.rule_name]
            tampered.append(replaced(s, matcher=Substitution({Variable("X"): s.before})))
        for bad in tampered:
            assert not check_step(bad, th), bad


def test_apply_step_rejects_a_node_of_another_shape(generated_steps):
    """A flat or unflat step replays only on a node with the before node's
    root and argument count, and, for flat, those of each merged child."""
    other = Symbol("zz", 2)
    merged_cases = 0
    for th, s in generated_steps:
        if s.kind not in ("flat", "unflat"):
            continue
        node = subterm_at(s.before, s.position)
        wrong = [Term(other, node.args), Term(node.root, node.args + node.args[:1])]
        if s.kind == "flat":
            for i, arg in enumerate(node.args):
                if arg.root == node.root:
                    wrong.append(Term(node.root, node.args[:i] + (Term(other, arg.args),) + node.args[i + 1:]))
                    merged_cases += 1
        for w in wrong:
            with pytest.raises(MalformedStep):
                apply_step(s, th, replace_at(s.before, s.position, w))
    assert merged_cases > 10


def test_sub_multiset_rewriting_keeps_rest():
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text())
    init = T("cfg(tok,prod(0),cons(0,0))", th.signature)
    trace = run(init, th, 1)
    assert pretty(trace.final()) == "cfg(cons(0,0),item(0),prod(1))"


def test_instrumented_trace_terms(basic_theory):
    t = T("g(f(a))", basic_theory.signature)
    trace = run(t, basic_theory, 10)
    terms = trace.terms()
    assert terms[0] == t and terms[-1] == trace.final()
    assert len(terms) == len(trace.steps) + 1


def test_constructor_accepts_copies_of_engine_steps():
    """The engine makes each step by its replay and skips the constructor's
    check; the constructor accepts copies of those steps, which carry no
    move map until its check computes one."""
    cases = list(seeded_traces())
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        cases.append((th, run(T(init, th.signature), th, rule_steps)))
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text(), name="cs")
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 9))
    cases.append((cs, run(T(f"net(srv(0),{clients})", cs.signature), cs, 24)))
    assert {s.kind for _, trace in cases for s in trace.steps} == {"rule", "equation", "builtin", "flat", "unflat"}
    for th, trace in cases:
        copies = [replaced(s) for s in trace.steps]
        assert InstrumentedTrace(th, trace.initial, copies).steps == trace.steps


def test_seeded_traces_are_unchanged(generated_traces):
    """The sha256 of the `render_trace` texts of the seeded traces, in
    order. Every step of every run is pinned by it, so it changes only
    with a deliberate change of the strategy or of a step's meaning,
    which CHANGES.md names with the new value."""
    digest = hashlib.sha256()
    for _, trace in generated_traces:
        digest.update(render_trace(trace).encode())
    assert digest.hexdigest() == "016a3be4c385206bbb12783a874ca9cb0738b746f0bac499923a973c0654a92b"


def test_runs_make_steps_without_check_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run called check_step")

    monkeypatch.setattr(engine, "check_step", refuse)
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        trace = run(T(init, th.signature), th, rule_steps)
        assert run_until(trace.initial, trace.final(), th).steps == trace.steps


def test_a_run_refuses_a_candidate_matcher_other_than_the_replays(monkeypatch, basic_theory):
    """`_Steps.take` compares a rule or equation candidate's matcher with
    the one its step's replay binds (`_Steps.add`): a candidate search that
    yields another matcher stops the run at the step's position."""
    sig = basic_theory.signature
    real = engine._candidates_at

    def off(node, rules, sig, joins):
        for rule, sub, target, rel in real(node, rules, sig, joins):
            yield rule, Substitution({Variable("x"): T("b", sig)}), target, rel

    init = T("g(f(a))", sig)
    assert run(init, basic_theory, 1).steps[0].position == Position((1,))
    monkeypatch.setattr(engine, "_candidates_at", off)
    with pytest.raises(MalformedStep, match="the matcher at 1 is "):
        run(init, basic_theory, 1)


def test_apply_step_refuses_a_term_without_the_step_position(basic_theory):
    sig = basic_theory.signature
    step = run(T("g(f(a))", sig), basic_theory, 1).steps[0]
    assert step.position == Position((1,))
    with pytest.raises(MalformedStep, match="no position 1 in a"):
        apply_step(step, basic_theory, T("a", sig))


def test_check_step_rejects_identity_unflat():
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    t = flatten_term(T("net(srv(0),cli(1,3,none),cli(2,4,none))", th.signature), th.signature)
    assert len(t.args) == 3
    assert not check_step(TraceStep("unflat", None, ROOT, EMPTY_SUBST, t, t), th)


def test_replay_rejects_an_unflat_whose_leaves_are_not_the_arguments():
    """The spine leaves of a regrouping are the node's arguments: a spine
    with a leaf that only flattens to one, as a change below the spine
    makes, is no regrouping, though the spine flattens to the node."""
    th = parse_theory("op f : 2 [assoc comm] .\nop g : 1 .\nop a : 0 .\nop b : 0 .\nop c : 0 .\nop d : 0 .\n")
    before = T("f(d,g(f(a,b,c)))", th.signature)
    after = T("f(d,g(f(f(a,b),c)))", th.signature)
    assert flatten_term(after, th.signature) == before
    step = TraceStep("unflat", None, ROOT, EMPTY_SUBST, before, after)
    with pytest.raises(MalformedStep, match=r"no regrouping at \^"):
        engine.replay_step("unflat", None, ROOT, before, th, spine=after)
    assert not check_step(step, th)


def test_apply_step_rejects_an_unchecked_unflat_whose_leaves_are_not_the_arguments():
    """A step never checked computes its move map when first read
    (`TraceStep.moves`); with no map, `apply_step` names the step as
    `replay_step` does."""
    th = parse_theory("op f : 2 [assoc comm] .\nop g : 1 .\nop a : 0 .\nop b : 0 .\nop c : 0 .\nop d : 0 .\n")
    before = T("f(d,g(f(a,b,c)))", th.signature)
    step = TraceStep("unflat", None, ROOT, EMPTY_SUBST, before, T("f(d,g(f(f(a,b),c)))", th.signature))
    with pytest.raises(MalformedStep, match=r"no regrouping at \^"):
        apply_step(step, th, before)


def test_flat_precondition_is_needs_flat(generated_traces):
    """A flat step's precondition, "an AC node with arguments whose
    `one_level_flat` map is not the identity", holds exactly where
    `needs_flat` does: at every node of the seeded traces and of random
    soups."""
    soups = RewriteTheory(_soup_signature())
    rng = random.Random(21)
    cases = [(th, t) for th, trace in generated_traces for t in trace.terms()]
    cases += [(soups, random_soup(rng, soups.signature)) for _ in range(200)]
    seen, flat = set(), 0
    for th, t in cases:
        for p in positions(t):
            node = subterm_at(t, p)
            if id(node) in seen:
                continue
            seen.add(id(node))
            try:
                engine.replay_step("flat", None, ROOT, node, th)
                holds = True
            except MalformedStep as exc:
                holds = exc.reason != "nothing to flatten at ^"
            assert holds == needs_flat(node, th.signature), pretty(node)
            flat += holds
    assert flat > 50


def test_flat_replay_builds_the_one_level_flat_node(generated_traces):
    """A flat step's replay builds its node from the move map alone: on
    every flat step of the seeded traces, the node at its position is
    `one_level_flat`'s of the before node, from a replay of the step's
    kind, position and before term, which returns the step's move map, and
    from `apply_step` on the step's own before term."""
    flats = 0
    for th, trace in generated_traces:
        for step in trace.steps:
            if step.kind != "flat":
                continue
            q = step.position
            expected = acmatch.one_level_flat(subterm_at(step.before, q))[0]
            sub, after, moves = engine.replay_step("flat", None, q, step.before, th)
            assert sub == EMPTY_SUBST and subterm_at(after, q) == expected and after == step.after and moves == step.moves
            assert subterm_at(apply_step(step, th, step.before), q) == expected
            flats += 1
    assert flats > 100


def test_replay_returns_each_steps_matcher_after_term_and_kept_moves():
    """`replay_step`, given what a step is made from (its kind, name,
    position and before term, and for an unflat step its after term as the
    spine, with no move map), returns the step's matcher, its after term and
    the move map the step keeps: on every step of the bundled runs and of a
    load of each one's `render_trace`."""
    kinds = Counter()
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        trace = run(T(init, th.signature), th, rule_steps)
        for steps in (trace.steps, parse_trace(render_trace(trace), th).steps):
            for s in steps:
                spine = s.after if s.kind == "unflat" else None
                sub, after, moves = engine.replay_step(s.kind, s.rule_name, s.position, s.before, th, spine=spine)
                assert sub == s.matcher and after == s.after and moves == vars(s)["moves"], s
                kinds[s.kind] += 1
    assert kinds["flat"] > 50 and kinds["unflat"] > 10 and kinds["rule"] == 2 * (12 + 6)


def _soup_signature():
    s = Signature()
    s.declare("cfg", 2, assoc=True, comm=True)
    for name, arity in (("u", 1), ("w", 1), ("k", 0), ("a", 0), ("b", 0)):
        s.declare(name, arity)
    return s


def test_unflat_step_keeps_one_entry_per_leaf():
    """Checking and slicing a step that unflattens a 500-argument node into
    a right comb keeps one map entry per leaf on the step, not a path."""
    sig = Signature()
    cfg = sig.declare("cfg", 2, assoc=True, comm=True)
    leaves = [Term(sig.declare(f"c{i:03d}", 0)) for i in range(500)]
    flat = Term(cfg, tuple(leaves))
    comb = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        comb = Term(cfg, (leaf, comb))
    th = RewriteTheory(sig)
    step = TraceStep("unflat", None, ROOT, EMPTY_SUBST, flat, comb)
    # the check compares the comb with its replay without recursion (`Term.__eq__`)
    trace = InstrumentedTrace(th, flat, [step])
    ts = trace_slice(trace, [Position((2,) * 10 + (1,))])
    assert ts.slices[0].args[10] == leaves[10] and ts.steps[0].index == 0
    assert set(vars(step)) == set(TraceStep._fields) | {"moves"}
    assert step.moves == tuple(range(500)) and all(type(i) is int for i in step.moves)


def test_candidates_at_equals_all_sizes_reference():
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    sig.declare("g", 1)
    sig.declare("h", 1)  # a root of patterns only
    sig.declare("k", 1)  # a root of leaves only
    sig.declare("e", 2)
    for name in "abc":
        sig.declare(name, 0)
    xy = {"x", "y"}
    pool = [
        Rule("ground", T("f(a,g(b))", sig), T("a", sig)),
        Rule("sameroot", T("f(g(x),g(y))", sig, xy), T("a", sig)),
        Rule("sameroot3", T("f(g(x),f(g(a),b))", sig, xy), T("a", sig)),
        Rule("noleafroot", T("f(h(x),a)", sig, xy), T("a", sig)),
        Rule("noleafroot_var", T("f(h(x),y)", sig, xy), T("a", sig)),
        Rule("ground3", T("f(a,f(b,c))", sig), T("a", sig)),
        Rule("onevar", T("f(x,g(a))", sig, xy), T("a", sig)),
        Rule("twovars", T("f(x,f(y,g(a)))", sig, xy), T("a", sig)),
        Rule("twovars3", T("f(x,f(y,b))", sig, xy), T("a", sig)),
        Rule("repeated", T("f(x,x)", sig, xy), T("a", sig)),
        Rule("boundvar", T("f(g(x),x)", sig, xy), T("a", sig)),
        Rule("nested", T("f(f(x,a),b)", sig, xy), T("a", sig)),
        Rule("nonac", T("g(x)", sig, xy), T("a", sig)),
        # spine variables that occur once in the left-hand side, last or not
        Rule("lastvar", T("f(g(x),y)", sig, xy), T("a", sig)),
        Rule("linear2", T("f(x,y)", sig, xy), T("a", sig)),
        Rule("linearnested", T("f(e(x,a),y)", sig, xy), T("a", sig)),
        Rule("mixed", T("f(g(x),f(x,y))", sig, xy), T("a", sig)),
        # a spine variable that occurs again below the spine
        Rule("nestedvar", T("f(e(x,y),y)", sig, xy), T("a", sig)),
        Rule("boundvar2", T("f(x,g(x))", sig, xy), T("a", sig)),
        # spines the engine matches by joining each argument's standalone match
        Rule("oneroot", T("f(g(a),g(x))", sig, xy), T("a", sig)),
        Rule("shared", T("f(e(x,y),g(x))", sig, xy), T("a", sig)),
        Rule("shared3", T("f(g(y),f(e(x,y),g(x)))", sig, xy), T("a", sig)),
        Rule("constant", T("f(b,e(x,x))", sig, xy), T("a", sig)),
    ]
    leaves = [T(text, sig) for text in ("a", "b", "c", "g(a)", "g(b)", "g(g(a))", "k(a)", "k(g(b))", "e(a,a)", "e(b,g(a))")]
    rng = random.Random(7)
    matched = 0
    joins = {}  # one memo for every node, as in a run
    # equal arguments that are distinct objects, each matched alone
    fixed = [(T("f(g(a),g(a),g(b),e(a,a),e(a,a))", sig), pool[-4:] + pool[1:2])]
    # spine subpatterns that hold an AC symbol, matched with the binding
    acleaves = [
        Rule("acleaf", T("f(k(f(x,a)),y)", sig, xy), T("a", sig)),
        Rule("acleafjoin", T("f(k(f(x,y)),g(x))", sig, xy), T("a", sig)),
        Rule("acleaves", T("f(k(f(a,x)),k(f(x,y)))", sig, xy), T("a", sig)),
    ]
    fixed += [(flatten_term(T("f(k(f(a,b)),g(a),k(f(a,b,c)),g(b),k(f(b,c)),c)", sig), sig), acleaves)]
    for node, rules in fixed + [(None, None)] * 120:
        if node is None:
            args = tuple(rng.choice(leaves) for _ in range(rng.randint(3, 7)))
            node = flatten_term(Term(sig.lookup("f", 2).symbol, args), sig)
            rules = rng.sample(pool, k=rng.randint(1, 4))
        expected = all_sizes_candidates(node, rules, sig)
        assert list(engine._candidates_at(node, rules, sig, joins)) == expected, (node, rules)
        matched += bool(expected)
    assert matched > 50


def _count_match_calls(monkeypatch, bound):
    """Replace the engine's matcher by one that counts its calls and fails
    the test as soon as the count passes the bound."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] > bound:
            pytest.fail(f"more than {bound} match_modulo_ac calls")
        return match_modulo_ac(*args)

    monkeypatch.setattr(engine, "match_modulo_ac", counted)
    return calls


@pytest.mark.parametrize("b_arg, rule_steps", [(15, 1), (16, 0)])
def test_a_spine_variable_that_occurs_once_takes_the_rest_at_once(monkeypatch, b_arg, rule_steps):
    """`c(c(a(X),b(X)),R)` on sixteen a's and one b, whose argument one of
    them matches or none does: the last spine variable R takes every
    argument left in one binding, and when the whole soup has no matcher
    no smaller group is searched. Each search took time exponential in the
    width of the soup."""
    th = parse_theory("op c : 2 [assoc comm] .\nop a : 1 .\nop b : 1 .\nop d : 0 .\nrl [r] : c(c(a(X),b(X)),R) => d .\n")
    soup = T("c(" + ",".join(f"a({i})" for i in range(16)) + f",b({b_arg}))", th.signature)
    calls = _count_match_calls(monkeypatch, 5)
    spine_calls = [0]
    real = acmatch._ac_args_match

    def counted(*args):
        spine_calls[0] += 1
        if spine_calls[0] > 100:
            pytest.fail("more than 100 _ac_args_match calls")
        return real(*args)

    monkeypatch.setattr(acmatch, "_ac_args_match", counted)
    trace = run(soup, th, 1)
    assert sum(s.kind == "rule" for s in trace.steps) == rule_steps
    assert calls[0] == 1 and spine_calls[0] > 0


def test_match_calls_on_wide_soup(monkeypatch):
    th = parse_theory("op c : 2 [assoc comm] .\nop a : 1 .\nop b : 1 .\nrl [r] : c(a(X),b(X)) => b(X) .\n")
    soup = T("c(" + ",".join(f"a({i})" for i in range(20)) + ",b(19))", th.signature)
    calls = _count_match_calls(monkeypatch, 1_000)
    trace = run(soup, th, 1)
    assert [s.rule_name for s in trace.steps if s.kind == "rule"] == ["r"]
    assert calls[0] > 0


def test_match_calls_on_eight_clients(monkeypatch):
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 9))
    calls = _count_match_calls(monkeypatch, 20_000)
    trace = run(T(f"net(srv(0),{clients})", th.signature), th, 24)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 24
    assert calls[0] > 0


def test_match_calls_only_on_groups_with_the_spine_roots(monkeypatch):
    """Without a spine variable, a group is matched only when its roots are
    the roots of the spine, one argument each."""
    th = parse_theory("op c : 2 [assoc comm] .\nop a : 1 .\nop b : 1 .\nrl [r] : c(a(X),b(X)) => b(X) .\n")
    soup = T("c(" + ",".join(f"a({i})" for i in range(20)) + ",b(19))", th.signature)
    calls = _count_match_calls(monkeypatch, 50)
    assert [s.rule_name for s in run(soup, th, 1).steps if s.kind == "rule"] == ["r"]
    assert calls[0] > 0
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 9))
    calls = _count_match_calls(monkeypatch, 600)
    trace = run(T(f"net(srv(0),{clients})", th.signature), th, 24)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 24
    assert calls[0] > 0


def test_candidates_only_at_nodes_with_the_rule_root(monkeypatch):
    def same_root(pattern, subject, sig, memo=None):
        assert pattern.root == subject.root, (pattern, subject)
        return match_modulo_ac(pattern, subject, sig, memo)

    monkeypatch.setattr(engine, "match_modulo_ac", same_root)
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    trace = run(T("net(srv(0),cli(1,3,none),cli(2,4,none))", th.signature), th, 6)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 6
    th = parse_theory(WIDE_STATE)
    trace = run(T(wide_tree(3, 0), th.signature), th, 3)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 3


def _count_node_tests(monkeypatch):
    """Count each scan's node tests by kind, and the walks (`_Steps.first`),
    of every `_Steps` the engine makes."""
    calls = Counter()

    def counting(kind, test):
        def counted_test(node):
            calls[kind] += 1
            return test(node)
        return counted_test

    class Counted(engine._Steps):
        def __init__(self, *args):
            super().__init__(*args)
            self.tests = {kind: counting(kind, test) for kind, test in self.tests.items()}

        def first(self, t, wanted):
            calls["walk"] += 1
            return super().first(t, wanted)

    monkeypatch.setattr(engine, "_Steps", Counted)
    return calls


def test_scans_skip_searched_subtrees(monkeypatch):
    """On the AC-free tree, a node is tested only for the kinds its root
    admits, and only once per kind while it is shared: no flat test, a
    builtin test at each new + node, a rule test at each new node."""
    th = parse_theory(WIDE_STATE)
    init = T(wide_tree(6, 0), th.signature)
    assert len(positions(init)) == 255
    calls = _count_node_tests(monkeypatch)
    trace = run(init, th, 24)
    kinds = [s.kind for s in trace.steps]
    assert kinds.count("rule") == kinds.count("builtin") == 24
    # a full rescan before every step makes 9,371 rule tests, and one
    # scan per kind, each with its own memo, made 180
    assert 0 < calls["rule"] <= 78
    assert calls["builtin"] == 24 and calls["flat"] == calls["equation"] == 0


def test_one_walk_per_elementary_step(monkeypatch):
    """Each step takes one walk that tests every kind, and the run one more
    walk to find it is done. One walk per scan kind made 122 walks for the
    tree's 48 elementary steps."""
    th = parse_theory(WIDE_STATE)
    calls = _count_node_tests(monkeypatch)
    trace = run(T(wide_tree(6, 0), th.signature), th, 24)
    assert len(trace.steps) == 48
    assert calls["walk"] <= len(trace.steps) + 1


def test_one_walk_finds_the_first_kind_of_a_full_scan(generated_traces):
    """On every term of the seeded traces, one walk for every kind
    (`_Steps.first`) finds the first kind, in priority order, that a full
    scan of its node test hits, at that scan's hit. The memo is carried
    from term to term, as in a run."""
    found = Counter()
    for th, trace in generated_traces:
        steps = engine._Steps(th, 0)
        assert list(steps.tests) == list(engine.KINDS)
        for t in trace.terms():
            expected = None
            for kind, test in steps.tests.items():
                hit = postorder_scan(t, test)
                if hit is not None:
                    expected = (kind, *hit)
                    break
            assert steps.first(t, steps.simplify | steps.rewrite) == expected, (t, trace.steps)
            found[expected and expected[0]] += 1
    assert min(found[kind] for kind in ("flat", "builtin", "rule", None)) > 100 and found["equation"] > 0


def test_ac_free_rules_match_syntactically(generated_traces):
    """A left-hand side with no AC symbol has at most one matcher modulo AC,
    and it is the syntactic one (`match`), with the node itself as the
    regrouped subtree (`_candidates_at`)."""
    matched = 0
    for th, trace in generated_traces:
        sig = th.signature
        rules = [r for r in th.equations + th.rules if r.lhs_symbols.isdisjoint(sig.ac_symbols)]
        seen = set()
        for t in trace.terms():
            for p in positions(t):
                node = subterm_at(t, p)
                if id(node) in seen:
                    continue
                seen.add(id(node))
                for rule in rules:
                    sub = match(rule.lhs, node)
                    assert match_modulo_ac(rule.lhs, node, sig) == ([] if sub is None else [(sub, node)]), (rule, node)
                    matched += sub is not None
    assert matched > 200


def test_matching_work_on_client_server_is_unchanged(monkeypatch):
    """Every rule of client_server.rwt has the AC root net, so the scan
    matches modulo AC, and syntactic matching of AC-free rules changes
    nothing here. The count was 16 until `ac_groups` dropped each argument
    that no spine subpattern matches on its own: each of the 6 rule steps
    now matches one group, the one its rule applies to."""
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    calls = _count_match_calls(monkeypatch, 16)
    trace = run(T("net(srv(0),cli(1,3,none),cli(2,4,none))", th.signature), th, 6)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 6
    assert calls[0] == 6


def test_unflat_maps_of_equal_arguments_are_the_pairings():
    """A run reads each unflat step's move map off its AC match where that
    is the leftmost pairing `_pair` makes, and pairs it otherwise: with one
    client twice in the soup, once as the one object the parser shares and
    once as equal distinct objects, every unflat step's map is the
    `regrouping_map` of its before and after nodes, and the trace's printed
    size (from the move maps) is the length of its print."""
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    shared = parse_term("net(srv(0),cli(1,3,none),cli(1,3,none),cli(2,4,none))", th.signature)
    distinct = Term(shared.root, tuple(parse_term(pretty(a), th.signature) for a in shared.args))
    assert shared.args[1] is shared.args[2] and distinct.args[1] is not distinct.args[2]
    for init in (shared, distinct):
        trace = run(init, th, 9)
        unflat = [s for s in trace.steps if s.kind == "unflat"]
        assert len(unflat) == 9
        for s in unflat:
            before, after = subterm_at(s.before, s.position), subterm_at(s.after, s.position)
            assert s.moves == acmatch.regrouping_map("unflat", before, after), pretty(after)
        assert trace.printed_size == len(trace_string(trace.terms()))


def test_a_flat_step_settles_its_node_only_where_exact():
    """`_Steps.take` records the node a flat step builds as flat-settled in
    the walk's memo only when no argument has its root and each is a leaf
    that admits no flat or a node with the flat bit there; then a flat walk
    of the node ends at once. A merged argument that is an AC node nobody
    searched, here an unsorted g node, leaves the node unmarked, and the
    walk still finds that argument's flat step."""
    sig = Signature()
    for name in "fg":
        sig.declare(name, 2, assoc=True, comm=True)
    for name in "abc":
        sig.declare(name, 0)
    steps = engine._Steps(RewriteTheory(sig), 10)
    settled = steps.take(T("f(f(b,a),c)", sig), "flat", ROOT, True)
    assert steps.searched[id(settled)] == (settled, engine.FLAT, None)
    assert steps.first(settled, engine.FLAT) is None
    built = steps.take(T("f(f(a,b),g(b,a))", sig), "flat", ROOT, True)
    assert pretty(built) == "f(a,b,g(b,a))" and id(built) not in steps.searched
    assert steps.first(built, engine.FLAT) == ("flat", Position((3,)), True)


def test_the_theory_decides_which_subpatterns_hold_an_ac_symbol(monkeypatch):
    """`RewriteTheory.holds_ac` keeps `acmatch._holds_ac`'s answer for every
    subpattern of each left-hand side with an AC symbol, and none for the
    others; each run's memo starts with it, so a run whose spine
    subpatterns hold AC symbols decides none of them again."""
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    for name, arity in (("k", 1), ("g", 1), ("a", 0), ("b", 0), ("c", 0)):
        sig.declare(name, arity)
    xy = {"x", "y"}
    th = RewriteTheory(sig, rules=[
        Rule("acleaf", T("f(k(f(x,a)),y)", sig, xy), T("g(y)", sig, xy)),
        Rule("plain", T("g(k(x))", sig, xy), T("x", sig, xy)),
    ])
    acleaf = th.rules[0]
    nodes = [node for _, node in preorder(acleaf.lhs)]
    assert th.holds_ac == {id(p): (p, acmatch._holds_ac(p, sig, {})) for p in nodes}
    assert [p for p in nodes if th.holds_ac[id(p)][1]] == [acleaf.lhs, nodes[1], nodes[2]]
    decided = []
    monkeypatch.setattr(acmatch, "preorder", lambda t: decided.append(t) or preorder(t))
    trace = run(T("f(k(f(a,b,c)),b,c)", sig), th, 1)
    assert pretty(trace.final()) == "g(f(b,c))" and decided == []


def test_run_memo_gives_the_candidates_of_a_fresh_one(monkeypatch):
    """Each rule and equation test of a run reads the run's memo of
    standalone argument matches (`_Steps.joins`), filled over earlier
    steps; its candidates are those a fresh memo gives, so no kept binding
    goes stale. On both bundled theories, a wider client_server soup and a
    bank soup whose debit and credit groups often fail to join."""
    real = engine._candidates_at
    checked = Counter()

    def compared(node, rules, sig, joins):
        found = list(real(node, rules, sig, joins))
        assert found == list(real(node, rules, sig, {})), node
        checked["filled" if joins else "empty"] += 1
        checked["candidates"] += len(found)
        yield from found

    monkeypatch.setattr(engine, "_candidates_at", compared)
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 7))
    accounts = ",".join(f"acc({i},10)" for i in range(6))
    transfers = ",".join(f"tr({i % 6},{(i * 5 + 1) % 6},{i})" for i in range(10))
    cases = [(bundled_example_path(theory).read_text(), init, rule_steps) for theory, init, rule_steps in BUNDLED_RUNS]
    cases += [(bundled_example_path("client_server.rwt").read_text(), f"net(srv(0),{clients})", 18)]
    cases += [(BANK, f"net({accounts},{transfers})", 20)]
    for text, init, rule_steps in cases:
        th = parse_theory(text)
        trace = run(T(init, th.signature), th, rule_steps)
        assert sum(1 for s in trace.steps if s.kind == "rule") == rule_steps
    assert checked["filled"] > 50 and checked["candidates"] > 100


def _count_spine_matches(monkeypatch, th):
    """Count each match of a spine subpattern of th's rules against an
    argument, by `match` or by `_match_gen`, keyed by the two objects."""
    leaves = {id(p) for r in th.rules for _, p in acmatch.spine_leaves(r.lhs)}
    pairs, held = Counter(), []

    def counting(real):
        def counted(p, s, *rest):
            if id(p) in leaves:
                pairs[id(p), id(s)] += 1
                held.append(s)  # so no id is reused while counting
            return real(p, s, *rest)
        return counted

    monkeypatch.setattr(acmatch, "match", counting(acmatch.match))
    monkeypatch.setattr(acmatch, "_match_gen", counting(acmatch._match_gen))
    return pairs


@pytest.mark.parametrize("k, head_calls", [(2, 16), (8, 264), (16, 1_360)])
def test_one_group_match_per_rule_step_on_client_server(monkeypatch, k, head_calls):
    """With each argument matched alone once per run and groups joined from
    those matches, the scan calls `match_modulo_ac` once per rule step on
    client_server (it called it `head_calls` times before), and matches
    each pair of a spine subpattern and an argument at most once a run."""
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    pairs = _count_spine_matches(monkeypatch, th)
    calls = _count_match_calls(monkeypatch, head_calls)
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, k + 1))
    trace = run(T(f"net(srv(0),{clients})", th.signature), th, 3 * k)
    assert sum(1 for s in trace.steps if s.kind == "rule") == 3 * k
    assert calls[0] == 3 * k
    assert pairs and max(pairs.values()) == 1


SPINE_VAR = "op c : 2 [assoc comm] .\nop a : 1 .\nop b : 1 .\nop d : 0 .\nrl [r] : c(a(X),b(X),R) => c(d,R) .\n"


@pytest.mark.parametrize(
    "theory, init, rule_steps",
    [
        (SPINE_VAR, "c(" + ",".join(f"a({i})" for i in range(8)) + ",b(2),b(5),b(7))", 3),
        (bundled_example_path("client_server.rwt").read_text(), "net(srv(0),cli(1,3,none))", 3),
    ],
    ids=["spine_variable", "whole_node"],
)
def test_each_spine_subpattern_matches_each_argument_once_a_run(monkeypatch, theory, init, rule_steps):
    """Spines with a spine variable and the whole-node group read the run's
    memo too: each spine subpattern is matched against each argument
    object at most once a run, by `match` or by `_match_gen`. The spine
    variable case made 221 matches for its 24 pairs when it matched every
    group anew."""
    th = parse_theory(theory)
    pairs = _count_spine_matches(monkeypatch, th)
    trace = run(T(init, th.signature), th, rule_steps)
    assert sum(1 for s in trace.steps if s.kind == "rule") == rule_steps
    assert pairs and max(pairs.values()) == 1


def test_a_run_frees_its_steps_without_the_collector(monkeypatch):
    """A run's `_Steps`, with its memo of every node it searched, is freed
    by reference counting once `run` returns: nothing it holds refers back
    to it."""
    made = []

    class Tracked(engine._Steps):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(engine, "_Steps", Tracked)
    cases = [(WIDE_STATE, wide_tree(6, 0), 24)]
    cases += [(bundled_example_path(theory).read_text(), init, rule_steps) for theory, init, rule_steps in BUNDLED_RUNS]
    gc.disable()
    try:
        for text, init, rule_steps in cases:
            th = parse_theory(text)
            assert run(T(init, th.signature), th, rule_steps).steps
            assert made[-1]() is None
    finally:
        gc.enable()
    assert len(made) == len(cases)


def test_scans_survive_deep_terms():
    """Every scan, and the whole strategy, walks s^10000(z) without
    recursion, on a theory with a kind of each scan and no hit for any."""
    th = parse_theory(
        "op f : 2 [assoc comm] .\nop + : 2 [builtin] .\nop s : 1 .\nop z : 0 .\n"
        "op h : 1 .\nop a : 0 .\neq h(a) = a .\nrl [r] : h(s(X)) => X .\n"
    )
    t = T("z", th.signature)
    s = th.signature.lookup("s", 1).symbol
    for _ in range(10_000):
        t = Term(s, (t,))
    steps = engine._Steps(th, 0)
    assert steps.first(t, steps.simplify + steps.rewrite) is None
    assert flatten_term(t, th.signature) is t
    assert run(t, th, 1).steps == ()


def test_strategy_order_is_flat_builtin_equation_then_rule():
    """Each step is the first hit of flat, then builtin, then equation,
    over the whole term, though the equation's node comes first in
    postorder; a rule step is taken only on the canonical term."""
    th = parse_theory(
        "op f : 2 [assoc comm] .\nop + : 2 [builtin] .\nop k : 2 .\nop h : 1 .\n"
        "op a : 0 .\nop b : 0 .\nop c : 0 .\neq h(X) = X .\nrl [r] : k(X,Y) => X .\n"
    )
    trace = run(T("k(k(h(a),+(1,2)),f(f(c,b),a))", th.signature), th, 1)
    assert [(s.kind, s.rule_name, str(s.position)) for s in trace.steps] == [
        ("flat", None, "2.1"),
        ("flat", None, "2"),
        ("builtin", "+", "1.2"),
        ("equation", "eq1", "1.1"),
        ("rule", "r", "1"),
    ]
