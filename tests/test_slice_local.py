"""trace_slice's local backward pass against the labeled reference pass:
label_step on every step, relevant_positions over the `_origins` sweep,
then slice_term on every term."""

import random
import sys
from collections import Counter

import pytest

from rwslice import bundled_example_path, cli, labeling, report, slicer, terms
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
from rwslice.tracefile import parse_trace, render_trace, save_trace

from genutil import BUNDLED_RUNS, random_criterion, seeded_traces


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
        assert_psets_print_relevant_sets(got)


def assert_psets_print_relevant_sets(ts):
    """The report prints each pset from its slice; every pset line must
    read as the relevant set it stands for, sorted and comma-joined.
    `relevant` is read as a list is: length, indexing, iteration and
    equality with a list."""
    lines = SliceReport(ts).render_structured().splitlines()
    psets = [ln.split(" ", 2)[2] for ln in lines if ln.startswith("pset ")]
    sets = ts.relevant
    assert len(sets) == len(psets) == len(ts.slices)
    assert psets == [",".join(str(p) for p in sorted(w)) or "-" for w in sets]
    listed = [sets[j] for j in range(len(sets))]
    assert sets == listed and listed == sets and list(sets) == listed
    assert sets[-1] == ts.criterion
    with pytest.raises(IndexError):
        sets[len(sets)]


def test_local_pass_equals_labeled_pass_on_generated_traces():
    rng = random.Random(11)
    kinds = set()
    for _, trace in seeded_traces():
        kinds.update(s.kind for s in trace.steps)
        assert_local_equals_labeled(trace, rng)
    assert kinds == {"rule", "equation", "builtin", "flat", "unflat"}


def whole_compare_slices(trace, crit):
    """The backward loop with whole slices compared: each step's before
    slice is `slice_back`'s, and it is one object with the after slice when
    the two are equal. The slices and the indices of the kept steps."""
    after = slice_term(trace.final(), crit)
    slices, kept = [after], []
    for i in range(len(trace.steps) - 1, -1, -1):
        before = slice_back(trace.steps[i], trace.theory, after)
        if before == after:
            before = after
        else:
            kept.append(i)
        slices.append(before)
        after = before
    return slices[::-1], kept[::-1]


def test_compare_at_the_position_equals_whole_compare():
    """trace_slice decides each step at its position alone, and keeps the
    same steps and the same slice objects, shared alike, as the
    whole-slice compare."""
    rng = random.Random(21)
    cases = [trace for _, trace in seeded_traces()]
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        cases.append(run(parse_term(init, th.signature), th, rule_steps))
    kept_any = dropped_any = 0
    for trace in cases:
        final = positions(trace.final())
        for crit in ({Position()}, set(final), random_criterion(rng, trace.final())):
            got = trace_slice(trace, crit)
            slices, kept = whole_compare_slices(trace, crit)
            assert [s.index for s in got.steps] == kept, (pretty(trace.initial), crit)
            assert got.slices == slices
            assert [a is b for a, b in zip(got.slices, got.slices[1:])] == [a is b for a, b in zip(slices, slices[1:])]
            kept_any += len(kept)
            dropped_any += len(trace.steps) - len(kept)
    assert kept_any and dropped_any


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


@pytest.mark.parametrize("theory, init, rule_steps", BUNDLED_RUNS)
def test_local_pass_equals_labeled_pass_on_bundled_theories(theory, init, rule_steps):
    th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
    trace = run(parse_term(init, th.signature), th, rule_steps)
    assert_local_equals_labeled(trace, random.Random(7))


def test_hand_built_trace_slices_render_like_trace_slice():
    """A TraceSlice built positionally, or by keyword with a plain list of
    relevant sets, sizes assigned after construction, renders the reports
    of trace_slice's."""
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="producer_consumer.rwt")
    trace = run(parse_term("cfg(tok,prod(0),cons(0,0))", th.signature), th, 6)
    crit = {Position.parse("1.2")}
    positional = reference_slice(trace, [label_step(s, th, LabelSupply()) for s in trace.steps], crit)
    keyword = TraceSlice(trace=trace, criterion=positional.criterion, relevant=list(positional.relevant),
                         slices=list(positional.slices), steps=list(positional.steps),
                         original_size=positional.original_size, sliced_size=0, reduction_percent=0.0)
    keyword.sliced_size = len(trace_string(keyword.glued_terms()))
    keyword.reduction_percent = 100.0 * (1.0 - keyword.sliced_size / keyword.original_size)
    got = trace_slice(trace, crit)
    assert 0 < len(got.steps) < len(trace.steps)
    for ts in (positional, keyword):
        assert type(ts.relevant) is list
        for render in (
            lambda r: r.render_structured(),
            lambda r: r.render_pretty(),
            lambda r: r.render_pretty(full_expansion=True),
        ):
            assert render(SliceReport(ts, "pc", 3)) == render(SliceReport(got, "pc", 3))


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


def test_trace_request_prints_each_slice_once(bundled_requests, monkeypatch, capsys):
    """A --trace request reads no relevant set and prints every distinct
    slice object at most once."""
    kept_calls, printed, results = [], [], []
    monkeypatch.setattr(slicer, "_kept_positions", lambda *args: kept_calls.append(args))
    real_pretty = terms.pretty

    def counted(t):
        printed.append(t)  # holds t, so no other term takes its id
        return real_pretty(t)

    for module in (terms, slicer, report):
        monkeypatch.setattr(module, "pretty", counted, raising=False)
    real_trace_slice = cli.trace_slice

    def kept_result(*args, **kwargs):
        results.append(real_trace_slice(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "trace_slice", kept_result)
    assert cli.main(bundled_requests["--trace"]) == 0
    out = capsys.readouterr().out
    assert kept_calls == []
    (ts,) = results
    assert len(ts.steps) > 0 and f"slice 0 {real_pretty(ts.slices[0])}" in out
    times = Counter(id(t) for t in printed)
    assert all(times[id(s)] <= 1 for s in ts.slices)


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


def _deep_step(depth: int):
    """The theory of rule first: h(X,Y) => X, and its step from
    h(s^depth(z),z) to s^depth(z) at the root."""
    sig = Signature()
    s, z, h = sig.declare("s", 1), sig.declare("z", 0), sig.declare("h", 2)
    t = Term(z)
    for _ in range(depth):
        t = Term(s, (t,))
    x, y = Variable("X"), Variable("Y")
    th = RewriteTheory(sig, rules=[Rule("first", Term(h, (Term(x), Term(y))), Term(x))])
    before = Term(h, (t, Term(z)))
    return th, TraceStep("rule", "first", Position(), Substitution({x: t, y: before.args[1]}), before, t)


def test_deep_term_slices_without_recursion():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    th, step = _deep_step(depth)
    t, s, h = step.after, step.after.root, step.before.root
    deepest = Position((1,) * depth)
    InstrumentedTrace(th, step.before, [step])  # the step replays

    after_slice = slice_term(t, {deepest})
    assert same_term(after_slice, t)
    assert same_term(slice_term(t, {Position((1,) * (depth // 2))}), _chain(s, depth // 2 + 1, BULLET_TERM))
    assert same_term(slice_back(step, th, after_slice), Term(h, (t, BULLET_TERM)))


def test_deep_terms_print_without_recursion():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    th, step = _deep_step(depth)
    trace = InstrumentedTrace(th, step.before, [step])
    chain = "s(" * depth + "z" + ")" * depth
    assert pretty(step.before) == f"h({chain},z)"
    printed = trace_string(trace.terms())
    assert printed == f"h({chain},z) -> {chain}"
    assert f"step rule first ^ X={chain};Y=z h({chain},z) {chain}" in render_trace(trace).splitlines()

    # the root as criterion keeps the slices shallow; the sizes measure the deep terms
    lines = SliceReport(trace_slice(trace, {Position()})).render_structured().splitlines()
    assert f"original-size {len(printed)}" in lines
    assert lines[-5:] == ["pset 0 ^,1", "slice 0 h(s(•),•)", "pset 1 ^", "slice 1 s(•)",
                          "step 0 rule first ^ h(s(•),•) s(•)"]
    # the deepest position keeps the whole chain (its pset would list every prefix)
    deepest = Position((1,) * depth)
    shown = SliceReport(trace_slice(trace, {deepest})).render_pretty().splitlines()
    assert shown[2] == f"  h({chain},•) --[first]--> {chain}"
    lines = SliceReport(trace_slice(InstrumentedTrace(th, step.after), {deepest})).render_structured().splitlines()
    assert lines[-2:] == [f"pset 0 {deepest}", f"slice 0 {chain}"]


def test_printed_length_equals_printed_trace():
    """A trace's printed size, computed from its terms or summed by the
    loader from the fields it accepts, is the length of the printed trace;
    also when the loader reads fields that are not the canonical print."""
    cases = list(seeded_traces())
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        cases.append((th, run(parse_term(init, th.signature), th, rule_steps)))
    th, step = _deep_step(10_000)
    cases.append((th, InstrumentedTrace(th, step.before, [step])))
    for th, trace in cases:
        size = len(trace_string(trace.terms()))
        assert trace.printed_size == size, pretty(trace.initial)
        header, theory, init, *records = render_trace(trace).splitlines()
        # every other after field with a comment, which the next before field lacks
        odd = [r + "---x" if i % 2 else r for i, r in enumerate(records)]
        for lines in ([init, *records], [init.replace("(", "( ", 1), *odd]):
            loaded = parse_trace("\n".join([header, theory, *lines]), th)
            assert "printed_size" in vars(loaded) and loaded.printed_size == size, lines[0]


def _chain(s, n: int, leaf: Term) -> Term:
    for _ in range(n):
        leaf = Term(s, (leaf,))
    return leaf
