"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import random
import time

import pytest

from rwslice import bundled_example_path
from rwslice.acmatch import flatten, flatten_term, match_modulo_ac, plan_unflat
from rwslice.cli import main
from rwslice.engine import RewriteTheory, Rule, TraceStep, normalize, run
from rwslice.labeling import (
    LabelSupply,
    label_ac_segment,
    label_rule,
    label_step,
    render_labeled,
)
from rwslice.slicer import (
    ReplayFailure,
    check_soundness,
    concretizes,
    origin_positions,
    slice_term,
    trace_slice,
)
from rwslice.terms import (
    EMPTY_SUBST,
    Position,
    Signature,
    Symbol,
    Term,
    Variable,
    positions,
    pretty,
)
from rwslice.theoryfile import parse_term, parse_theory

from genutil import CATEGORIES, category_seed, oracle_ac_matchers, random_case, soundness_case

GREEK = {name: chr(code) for name, code in [
    ("alpha", 0x3B1), ("beta", 0x3B2), ("gamma", 0x3B3), ("delta", 0x3B4),
    ("epsilon", 0x3B5), ("zeta", 0x3B6), ("eta", 0x3B7), ("theta", 0x3B8),
]}


def reported(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:2d} PASS  {description}  ({elapsed:.3f}s)")

        return wrapper

    return deco


def P(text):
    return Position.parse(text)


def T(text, sig=None, variables=None):
    return parse_term(text, sig, variables or set(), allow_bullet=True)


@pytest.fixture
def step_theory():
    sig = Signature()
    for name, arity in [("f", 2), ("g", 2), ("d", 2), ("s", 1), ("h", 1), ("a", 0), ("b", 0), ("c", 0), ("j", 1)]:
        sig.declare(name, arity)
    rule = Rule("r", T("f(g(x,y),a)", sig, {"x", "y"}), T("d(s(y),y)", sig, {"x", "y"}))
    return RewriteTheory(sig, rules=[rule])


@pytest.fixture
def labeled_example_step(step_theory):
    trace = run(T("d(f(g(a,h(b)),a),a)", step_theory.signature), step_theory, 1)
    return trace, label_step(trace.steps[0], step_theory, LabelSupply())


@reported(1, "rule labeling joins all redex labels onto the contractum")
def test_criterion_1_rule_labeling(step_theory):
    rule = step_theory.find_rule("r")
    # timing: the labeling itself must be far under a millisecond on average
    n = 100
    start = time.perf_counter()
    for _ in range(n):
        lhs_lab, rhs_lab = label_rule(rule, LabelSupply())
    per_call = (time.perf_counter() - start) / n
    assert render_labeled(rule.lhs, lhs_lab) == "f^α(g^β(x,y),a^γ)"
    assert render_labeled(rule.rhs, rhs_lab) == "d^{αβγ}(s^{αβγ}(y),y)"
    assert rhs_lab == {P("^"): {0, 1, 2}, P("1"): {0, 1, 2}}
    assert per_call < 0.001


@reported(2, "labeled rewrite step reproduced exactly under the seeded supply")
def test_criterion_2_labeled_step(labeled_example_step):
    _, ls = labeled_example_step
    assert (
        render_labeled(ls.step.before, ls.before_labeling)
        == "d^δ(f^α(g^β(a^ζ,h^η(b^θ)),a^γ),a^ε)"
    )
    assert (
        render_labeled(ls.step.after, ls.after_labeling)
        == "d^δ(d^{αβγ}(s^{αβγ}(h^η(b^θ)),h^η(b^θ)),a^ε)"
    )
    # full labelings, not just the rendering
    assert ls.before_labeling == {
        P("^"): {3}, P("1"): {0}, P("1.1"): {1}, P("1.1.1"): {5},
        P("1.1.2"): {6}, P("1.1.2.1"): {7}, P("1.2"): {2}, P("2"): {4},
    }
    assert ls.after_labeling == {
        P("^"): {3}, P("1"): {0, 1, 2}, P("1.1"): {0, 1, 2}, P("1.1.1"): {6},
        P("1.1.1.1"): {7}, P("1.2"): {6}, P("1.2.1"): {7}, P("2"): {4},
    }


@reported(3, "origin positions of 1.2 in the example step")
def test_criterion_3_origin_positions(labeled_example_step):
    _, ls = labeled_example_step
    assert origin_positions(ls, P("1.2")) == {
        P("1.1.2"), P("1"), P("1.1"), P("1.2"), P("^"),
    }


@reported(4, "term slice and concretization of the worked figure")
def test_criterion_4_figure_slice(step_theory):
    sig = step_theory.signature
    t = T("d(f(g(a,h(b)),a),a)", sig)
    sl = slice_term(t, {P("1.1.2"), P("1.2")})
    assert pretty(sl) == "d(f(g(•,h(•)),a),•)"
    assert concretizes(sl, T("d(f(g(c,h(c)),a),j(b))", sig)) is True


@reported(5, "collapsing+nonlinear labeling and its trace slice")
def test_criterion_5_collapsing_nonlinear():
    sig = Signature()
    sig.declare("f", 3)
    sig.declare("h", 2)
    sig.declare("a", 0)
    sig.declare("b", 0)
    rule = Rule("fxyx", T("f(x,y,x)", sig, {"x", "y"}), Term(Variable("y")))
    th = RewriteTheory(sig, rules=[rule])
    trace = run(T("h(f(a,b,a),b)", sig), th, 1)
    ls = label_step(trace.steps[0], th, LabelSupply())
    # supply: rule joined label 0, context 1 and 2, x binding 3, y binding 4;
    # the surviving b carries {rule} u {x} u {y}
    assert ls.after_labeling == {P("^"): {1}, P("1"): {0, 3, 4}, P("2"): {2}}
    assert render_labeled(ls.step.after, ls.after_labeling) == "h^β(b^{αδε},b^γ)"
    rule_join = frozenset().union(
        *(ls.before_labeling[P("1")],)
    )
    x_labels = ls.before_labeling[P("1.1")]
    y_labels = ls.before_labeling[P("1.2")]
    assert ls.after_labeling[P("1")] == rule_join | x_labels | y_labels
    ts = trace_slice(trace, {P("1")})
    assert [pretty(t) for t in ts.glued_terms()] == ["h(f(a,b,a),•)", "h(b,•)"]


@reported(6, "builtin call labeling joins the argument labels onto the value")
def test_criterion_6_builtin_labeling():
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    th = RewriteTheory(sig)
    value, steps = normalize(T("+(7,8)", sig), th)
    assert pretty(value) == "15"
    ls = label_step(steps[0], th, LabelSupply())
    assert render_labeled(ls.step.before, ls.before_labeling) == "+^α(7^β,8^γ)"
    assert render_labeled(ls.step.after, ls.after_labeling) == "15^{βγ}"
    assert ls.after_labeling == {P("^"): {1, 2}}


@reported(7, "AC flat/unflat labeled sequence with stable duplicate order")
def test_criterion_7_ac_sequence():
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    for n in "abc":
        sig.declare(n, 0)
    t0 = T("f(b,f(b,f(a,c)))", sig)
    canon, flat_events = flatten(t0, sig)
    assert pretty(canon) == "f(a,b,b,c)"
    target = T("f(f(b,c),f(a,b))", sig)
    final, unflat_events = plan_unflat(canon, Position(), target, sig)
    assert final == target
    steps = [TraceStep("flat", None, p, EMPTY_SUBST, b, a) for p, b, a in flat_events]
    steps += [TraceStep("unflat", None, p, EMPTY_SUBST, b, a) for p, b, a in unflat_events]
    labeled = label_ac_segment(steps, LabelSupply())
    chain = [(labeled[0].step.before, labeled[0].before_labeling)]
    chain += [(ls.step.after, ls.after_labeling) for ls in labeled]
    rendered = [render_labeled(term, lab) for term, lab in chain]
    assert rendered[0] == "f^α(b^β,f^γ(b^δ,f^ε(a^ζ,c^η)))"
    assert rendered[-2] == "f^{αγε}(a^ζ,b^β,b^δ,c^η)"
    assert rendered[-1] == "f^{αγε}(f^{αγε}(b^β,c^η),f^{αγε}(a^ζ,b^δ))"
    # stability: the first b stays lexicographically before the second one
    beta, delta = frozenset({1}), frozenset({3})
    for term, lab in chain:
        (pos_beta,) = [p for p, l in lab.items() if l == beta]
        (pos_delta,) = [p for p, l in lab.items() if l == delta]
        assert pos_beta < pos_delta
    flat_term, flat_lab = chain[-2]
    nested_term, nested_lab = chain[-1]
    assert [p for p, l in flat_lab.items() if l == beta] == [P("2")]
    assert [p for p, l in flat_lab.items() if l == delta] == [P("3")]
    assert [p for p, l in nested_lab.items() if l == beta] == [P("1.1")]
    assert [p for p, l in nested_lab.items() if l == delta] == [P("2.2")]


@reported(8, "soundness: 500 randomized replays per rule category")
def test_criterion_8_soundness_suite():
    start = time.perf_counter()
    cases_per_category = 500
    for category in ("elementary", "collapsing", "nonlinear", "builtin", "ac"):
        seed = category_seed(category)
        rng = random.Random(seed)
        for i in range(cases_per_category):
            th, ts, conc = soundness_case(rng, category)
            try:
                outcome = check_soundness(ts, th, conc)
            except ReplayFailure as exc:
                outcome = exc
            assert outcome is True, f"{category}: seed {seed}, case {i}: {outcome}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"soundness suite took {elapsed:.1f}s"


@reported(9, "invariant suites incl. the exhaustive AC-matching oracle")
def test_criterion_9_invariant_suites():
    start = time.perf_counter()
    sig = Signature()
    f = sig.declare("f", 2, assoc=True, comm=True)
    g = sig.declare("g", 1)
    consts = [sig.declare(n, 0) for n in "abc"]
    rng = random.Random(9)

    # slice prefix-closure and self-concretization over random slices
    for category in CATEGORIES:
        for _ in range(40):
            th, trace, criterion = random_case(rng, category)
            ts = trace_slice(trace, criterion)
            for term, pset, sl in zip(trace.terms(), ts.relevant, ts.slices):
                closed = {prefix for w in pset for prefix in w.prefixes()}
                assert sl == slice_term(term, closed)
                assert concretizes(sl, term)

    # origin monotonicity over labeled steps
    for category in ("elementary", "ac"):
        for _ in range(20):
            th, trace, _ = random_case(rng, category)
            for step in trace.steps[:2]:
                ls = label_step(step, th, LabelSupply())
                for w in positions(step.after)[:8]:
                    for prefix in w.prefixes():
                        assert origin_positions(ls, prefix) <= origin_positions(ls, w)

    # label codomain disjointness
    for _ in range(40):
        th, trace, _ = random_case(rng, "elementary")
        for step in trace.steps:
            if step.kind not in ("rule", "equation"):
                continue
            ls = label_step(step, th, LabelSupply())
            rule = th.find_rule(step.rule_name)
            q = step.position
            pattern_cod = frozenset().union(
                *(ls.before_labeling[q.concat(w)] for w in positions(rule.redex_pattern()))
            )
            outside = [l for p, l in ls.before_labeling.items() if not q.is_prefix_of(p)]
            ctx_cod = frozenset().union(*outside) if outside else frozenset()
            assert pattern_cod & ctx_cod == frozenset()

    # flatten idempotence
    from genutil import random_soup

    soup_sig = Signature()
    soup_sig.declare("cfg", 2, assoc=True, comm=True)
    soup_sig.declare("u", 1)
    soup_sig.declare("w", 1)
    soup_sig.declare("pair", 2)
    soup_sig.declare("k", 0)
    soup_sig.declare("a", 0)
    soup_sig.declare("b", 0)
    for _ in range(200):
        t = random_soup(rng, soup_sig)
        once = flatten_term(t, soup_sig)
        assert flatten_term(once, soup_sig) == once

    # AC matching against the exhaustive oracle: 1000 random cases with
    # subjects of at most 6 leaves; variant sets are shared across cases
    const_terms = [Term(c) for c in consts]
    leaf_sizes = [2, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    variant_memo = {}
    for case in range(1000):
        n = rng.choice(leaf_sizes)
        subject = flatten_term(Term(f, tuple(rng.choice(const_terms) for _ in range(n))), sig)
        pieces = []
        for _ in range(rng.randint(2, 3)):
            roll = rng.random()
            if roll < 0.5:
                pieces.append(Term(Variable(rng.choice("xy"))))
            elif roll < 0.8:
                pieces.append(rng.choice(const_terms))
            else:
                pieces.append(Term(g, (Term(Variable("x")),)))
        pattern = pieces[0]
        for piece in pieces[1:]:
            pattern = Term(f, (pattern, piece))
        ours = {m for m, _ in match_modulo_ac(pattern, subject, sig)}
        assert ours == oracle_ac_matchers(pattern, subject, sig, variant_memo), case

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"invariant suites took {elapsed:.1f}s"


GOLDEN_RUNS = [
    (
        "producer_consumer.rwt",
        "producer_consumer.report.txt",
        ["--init", "cfg(tok,prod(0),cons(0,0))", "--steps", "6", "--criterion", "1.2"],
    ),
    (
        "client_server.rwt",
        "client_server.report.txt",
        ["--init", "net(srv(0),cli(1,3,none),cli(2,4,none))", "--steps", "6", "--criterion", "1.3"],
    ),
]


@reported(10, "bundled example theories reproduce their golden slice reports")
def test_criterion_10_golden_reports(capsys, tmp_path):
    import pathlib

    start = time.perf_counter()
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for theory_name, golden_name, extra in GOLDEN_RUNS:
        theory_path = str(bundled_example_path(theory_name))
        args = ["--theory", theory_path, *extra, "--format", "structured"]
        assert main(args) == 0
        out = capsys.readouterr().out
        golden = (golden_dir / golden_name).read_text(encoding="utf-8")
        assert out == golden, f"structured report for {theory_name} deviates from the golden file"
        sizes = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines()
            if line.startswith(("original-size", "sliced-size", "reduction"))
        }
        assert int(sizes["sliced-size"]) <= int(sizes["original-size"])
        assert float(sizes["reduction"]) > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"golden runs took {elapsed:.1f}s"
