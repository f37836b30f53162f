"""trace_slice's local backward pass against the labeled reference pass:
label_step on every step, relevant_positions over the `_origins` sweep,
then slice_term on every term."""

import random
import sys

import pytest

from rwslice import bundled_example_path, cli, labeling, slicer, terms
from rwslice.acmatch import flatten, plan_unflat
from rwslice.engine import InstrumentedTrace, RewriteTheory, Rule, TraceStep, run
from rwslice.labeling import LabelSupply, label_step
from rwslice.report import SliceReport
from rwslice.slicer import (
    SlicedStep,
    TraceSlice,
    relevant_positions,
    slice_back,
    slice_term,
    trace_slice,
    trace_string,
)
from rwslice.terms import (
    BULLET_TERM,
    EMPTY_SUBST,
    Position,
    Signature,
    Substitution,
    Term,
    Variable,
    positions,
    pretty,
)
from rwslice.theoryfile import parse_term, parse_theory
from rwslice.tracefile import save_trace

from genutil import random_criterion, seeded_traces


def reference_slice(trace, labeled, crit) -> TraceSlice:
    sets = relevant_positions(trace, labeled, crit)
    terms_ = trace.terms()
    slices = [slice_term(t, p) for t, p in zip(terms_, sets)]
    kept = [
        SlicedStep(i, s.kind, s.rule_name, s.position, slices[i], slices[i + 1])
        for i, s in enumerate(trace.steps)
        if slices[i] != slices[i + 1]
    ]
    ts = TraceSlice(trace, frozenset(crit), sets, slices, kept, len(trace_string(terms_)), 0, 0.0)
    ts.sliced_size = len(trace_string(ts.glued_terms()))
    ts.reduction_percent = 100.0 * (1.0 - ts.sliced_size / ts.original_size)
    return ts


def assert_local_equals_labeled(trace, rng):
    """Relevant sets, slices, kept steps and the structured report agree
    on the root, every single final position, all final positions and a
    random set."""
    labeled = [label_step(s, trace.theory, LabelSupply()) for s in trace.steps]
    final = positions(trace.final())
    criteria = [{Position()}] + [{w} for w in final] + [set(final), random_criterion(rng, trace.final())]
    for crit in criteria:
        ref = reference_slice(trace, labeled, crit)
        got = trace_slice(trace, crit)
        assert got.relevant == ref.relevant, (pretty(trace.initial), crit)
        assert got.slices == ref.slices, (pretty(trace.initial), crit)
        assert got.steps == ref.steps, (pretty(trace.initial), crit)
        assert SliceReport(got).render_structured() == SliceReport(ref).render_structured()


def test_local_pass_equals_labeled_pass_on_generated_traces():
    rng = random.Random(11)
    kinds = set()
    for _, trace in seeded_traces():
        kinds.update(s.kind for s in trace.steps)
        assert_local_equals_labeled(trace, rng)
    assert kinds == {"rule", "equation", "builtin", "flat", "unflat"}


def test_local_pass_equals_labeled_pass_on_ac_segment():
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    sig.declare("g", 1)
    for name in "abc":
        sig.declare(name, 0)
    t0 = parse_term("f(g(b),f(b,f(a,c)))", sig)
    canon, flat_events = flatten(t0, sig)
    _, unflat_events = plan_unflat(canon, Position(), parse_term("f(f(b,c),f(a,g(b)))", sig), sig)
    steps = [TraceStep("flat", None, p, EMPTY_SUBST, b, a) for p, b, a in flat_events]
    steps += [TraceStep("unflat", None, p, EMPTY_SUBST, b, a) for p, b, a in unflat_events]
    assert [s.kind for s in steps].count("flat") >= 2 and any(s.kind == "unflat" for s in steps)
    assert_local_equals_labeled(InstrumentedTrace(RewriteTheory(sig), t0, steps), random.Random(3))


@pytest.mark.parametrize(
    "theory, init, rule_steps",
    [
        ("producer_consumer.rwt", "cfg(tok,prod(0),cons(0,0))", 12),
        ("client_server.rwt", "net(srv(0),cli(1,3,none),cli(2,4,none))", 6),
    ],
)
def test_local_pass_equals_labeled_pass_on_bundled_theories(theory, init, rule_steps):
    th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
    trace = run(parse_term(init, th.signature), th, rule_steps)
    assert_local_equals_labeled(trace, random.Random(7))


@pytest.fixture
def bundled_requests(tmp_path):
    """Arguments of one CLI request per way of giving the trace."""
    path = str(bundled_example_path("producer_consumer.rwt"))
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text())
    init = "cfg(tok,prod(0),cons(0,0))"
    trace = run(parse_term(init, th.signature), th, 6)
    save_trace(trace, tmp_path / "run.rwtrace")
    common = ["--theory", path, "--init", init, "--criterion", "1.2", "--format", "structured"]
    return {
        "--steps": common + ["--steps", "6"],
        "--end": common + ["--end", pretty(trace.final())],
        "--trace": common + ["--trace", str(tmp_path / "run.rwtrace")],
    }


@pytest.mark.parametrize("mode", ["--steps", "--end", "--trace"])
def test_cli_request_labels_no_step(mode, bundled_requests, monkeypatch, capsys):
    label_calls = []
    real_label_step = labeling.label_step

    def counted(*args, **kwargs):
        label_calls.append(args)
        return real_label_step(*args, **kwargs)

    monkeypatch.setattr(labeling, "label_step", counted)
    monkeypatch.setattr(slicer, "label_step", counted, raising=False)

    # the terms given to `positions` while trace_slice runs, and its traces
    inside, measured, traces = [False], [], []
    real_positions = terms.positions

    def recorded(t):
        if inside[0]:
            measured.append(t)
        return real_positions(t)

    # every module that binds the name, and slicer should it bind it again
    for module in (terms, labeling, slicer):
        monkeypatch.setattr(module, "positions", recorded, raising=False)
    real_trace_slice = cli.trace_slice

    def watched(trace, *args, **kwargs):
        traces.append(trace)
        inside[0] = True
        try:
            return real_trace_slice(trace, *args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(cli, "trace_slice", watched)
    assert cli.main(bundled_requests[mode]) == 0
    assert "rwslice-report 1" in capsys.readouterr().out
    assert label_calls == []
    assert len(traces) == 1 and len(traces[0].steps) > 0
    whole = {id(t) for t in traces[0].terms()}
    assert not [t for t in measured if id(t) in whole]


def same_term(a: Term, b: Term) -> bool:
    """Structural equality without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.root != y.root or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def test_deep_term_slices_without_recursion():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    sig = Signature()
    s, z, h = sig.declare("s", 1), sig.declare("z", 0), sig.declare("h", 2)
    t = Term(z)
    for _ in range(depth):
        t = Term(s, (t,))
    deepest = Position((1,) * depth)
    x, y = Variable("X"), Variable("Y")
    th = RewriteTheory(sig, rules=[Rule("first", Term(h, (Term(x), Term(y))), Term(x))])
    before = Term(h, (t, Term(z)))
    step = TraceStep("rule", "first", Position(), Substitution({x: t, y: before.args[1]}), before, t)
    InstrumentedTrace(th, before, [step])  # the step replays

    after_slice = slice_term(t, {deepest})
    assert same_term(after_slice, t)
    assert same_term(slice_term(t, {Position((1,) * (depth // 2))}), _chain(s, depth // 2 + 1, BULLET_TERM))
    assert same_term(slice_back(step, th, after_slice), Term(h, (t, BULLET_TERM)))


def _chain(s, n: int, leaf: Term) -> Term:
    for _ in range(n):
        leaf = Term(s, (leaf,))
    return leaf
