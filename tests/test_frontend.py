import gc
from collections import Counter
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from rwslice import acmatch, bundled_example_path, cli, engine, slicer, theoryfile, tracefile
from rwslice.cli import main
from rwslice.engine import InstrumentedTrace, MalformedStep, Rule, TheoryError, apply_step, check_step, run
from rwslice.report import SliceReport
from rwslice.terms import Position, Signature, SignatureError, Term, Variable, pretty, replace_at, subterm_at
from rwslice.theoryfile import (
    ArityMismatchError,
    TheorySyntaxError,
    UnknownSymbolError,
    parse_term,
    parse_theory,
    render_theory,
)
from rwslice.slicer import trace_slice
from rwslice.tracefile import load_trace, parse_trace, render_trace, save_trace

from genutil import BUNDLED_RUNS, WIDE_STATE, replaced, seeded_traces, wide_tree


def test_parse_rule_example():
    th = parse_theory(
        """
        op f : 1 .
        op b : 0 .
        rl [r1] : f(X) => b .
        """
    )
    r1 = th.find_rule("r1")
    assert r1 is not None
    assert pretty(r1.lhs) == "f(X)" and pretty(r1.rhs) == "b"
    assert isinstance(r1.lhs.args[0].root, Variable)


def test_parse_empty_module():
    th = parse_theory("")
    assert th.rules == [] and th.equations == [] and th.signature.ops() == []


def test_attribute_round_trip():
    text = "op f : 2 [assoc comm] .\n"
    th = parse_theory(text)
    decl = th.signature.lookup("f", 2)
    assert decl.assoc and decl.comm and not decl.builtin
    assert render_theory(th) == text


def test_render_parse_identity():
    text = (
        "op cfg : 2 [assoc comm] .\n"
        "op prod : 1 .\n"
        "op + : 2 [builtin] .\n"
        "op obs : 1 [sort(State)] .\n"
        "eq obs(obs(X)) = obs(X) .\n"
        "rl [make] : prod(N) => prod(+(N,1)) .\n"
    )
    th = parse_theory(text)
    assert render_theory(th) == text
    th2 = parse_theory(render_theory(th))
    assert render_theory(th2) == text


def test_lowercase_var_declaration_round_trip():
    text = "op f : 1 .\nvar x .\nrl [r] : f(x) => f(f(x)) .\n"
    th = parse_theory(text)
    assert isinstance(th.find_rule("r").lhs.args[0].root, Variable)
    assert parse_theory(render_theory(th)).find_rule("r") == th.find_rule("r")


def test_syntax_error_carries_location():
    with pytest.raises(TheorySyntaxError) as err:
        parse_theory("op f :\nbroken")
    assert err.value.line == 2


def test_unknown_symbol_and_arity_errors():
    with pytest.raises(UnknownSymbolError):
        parse_theory("op f : 1 .\nrl [r] : f(zz) => f(zz) .")
    with pytest.raises(ArityMismatchError):
        parse_theory("op f : 1 .\nop a : 0 .\nrl [r] : f(a,a) => a .")


def test_duplicate_rule_names_rejected():
    text = "op f : 1 .\nop a : 0 .\nrl [r] : f(X) => a .\nrl [r] : f(X) => a .\n"
    with pytest.raises(Exception):
        parse_theory(text)


def test_ac_requires_binary():
    with pytest.raises(TheorySyntaxError):
        parse_theory("op f : 3 [assoc comm] .")


def test_builtin_headed_rule_rejected():
    with pytest.raises(Exception):
        parse_theory("op + : 2 [builtin] .\nop a : 0 .\nrl [r] : +(X,Y) => a .")


def test_parse_term_modes():
    sig = parse_theory("op f : 2 [assoc comm] .\nop a : 0 .").signature
    t = parse_term("f(a,a,a)", sig)  # variadic use of an AC operator
    assert len(t.args) == 3
    with pytest.raises(UnknownSymbolError):
        parse_term("zz(a)", sig)
    loose = parse_term("foo(Bar,7,true)")
    assert pretty(loose) == "foo(Bar,7,true)"
    sl = parse_term("f(•,_)", sig, allow_bullet=True)
    assert pretty(sl) == "f(•,•)"


_SIG = "op f : 2 [assoc comm] .\nop g : 1 .\nop a : 0 ."


@pytest.mark.parametrize("text, cls, message, line, col", [
    # terms, parsed against _SIG
    ("", TheorySyntaxError, "unexpected end of input", 1, 1),
    ("f(a,", TheorySyntaxError, "unexpected end of input", 1, 4),
    ("f()", TheorySyntaxError, "expected a term, found ')'", 1, 3),
    ("g(,a)", TheorySyntaxError, "expected a term, found ','", 1, 3),
    ("g(a", TheorySyntaxError, "unexpected end of input", 1, 3),
    ("g(a a)", TheorySyntaxError, "expected ')', found 'a'", 1, 5),
    ("g(a) a", TheorySyntaxError, "trailing input 'a'", 1, 6),
    ("g(X(a))", TheorySyntaxError, "variable X cannot take arguments", 1, 3),
    ("7(a)", ArityMismatchError, "7 is a constant", 1, 1),
    ("g(true(a))", ArityMismatchError, "true is a constant", 1, 3),
    ("g(zz(a))", UnknownSymbolError, "unknown operator zz", 1, 3),
    ("g(a,a)", ArityMismatchError, "g used with 2 argument(s)", 1, 1),
    # theories
    ("op f : 1 .\n--- f( is no term\nrl [r] : f(zz) => f(zz) .", UnknownSymbolError,
     "unknown operator zz", 3, 12),
    ("op f : 1 .\nrl [r] : f(X) => f(X) --- the dot is commented out\n", TheorySyntaxError,
     "unexpected end of input", 2, 21),
    ("op f : 1 .\r\nop a : 0 .\r\nrl [r] : f(a,a) => a .\r\n", ArityMismatchError,
     "f used with 2 argument(s)", 3, 10),
    ("op f : 1 .\n\top a : 0 .\n\trl [r] :\tf(\tzz) => a .", UnknownSymbolError,
     "unknown operator zz", 3, 14),
    ("op f :\nbroken", TheorySyntaxError, "expected an arity, found 'broken'", 2, 1),
    ("op f : 1 [foo] .", TheorySyntaxError, "unknown attribute 'foo'", 1, 11),
    ("op f : 3 [assoc comm] .", TheorySyntaxError, "f: AC attributes require a binary operator", 1, 4),
    ("var .", TheorySyntaxError, "empty var declaration", 1, 1),
    # names a trace file could not read back, and an AC operator beside a wider one
    ("op p;q : 0 .", TheorySyntaxError, "operator p;q: ';' separates a trace's bindings", 1, 4),
    ("op f : 1 .\nvar x=y .\nrl [r] : f(x=y) => f(x=y) .", TheorySyntaxError,
     "variable x=y: ';' and '=' separate a trace's bindings", 3, 12),
    ("op f : 1 .\nrl [r] : f(X;Y) => f(X;Y) .", TheorySyntaxError,
     "variable X;Y: ';' and '=' separate a trace's bindings", 2, 12),
    ("op f : 1 .\nrl [-] : f(X) => f(X) .", TheorySyntaxError, "a rule cannot be named '-', a trace's empty name", 2, 5),
    ("op f : 2 [assoc comm] .\nop f : 3 .", TheorySyntaxError,
     "f: an AC f/2 cannot be declared beside an f/n with n > 2", 2, 4),
    ("op f : 3 .\nop f : 2 [assoc comm] .", TheorySyntaxError,
     "f: an AC f/2 cannot be declared beside an f/n with n > 2", 2, 4),
    ("bogus", TheorySyntaxError, "unexpected token 'bogus'", 1, 1),
])
def test_syntax_error_table(text, cls, message, line, col):
    with pytest.raises(TheorySyntaxError) as err:
        if text.startswith(("op", "var", "bogus")):
            parse_theory(text)
        else:
            parse_term(text, parse_theory(_SIG).signature)
    assert type(err.value) is cls
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("text, message, line, col", [
    ("op • : 0 .", "• is reserved", 1, 4),
    ("op a : 0 .\nop □ : 1 .", "□ is reserved", 2, 4),
    ("op 7 : 0 .", "7 is an implicit constant", 1, 4),
    ("op true : 0 .", "true is an implicit constant", 1, 4),
    ("op a : 0 .\nop a : 0 .", "duplicate declaration of a/0", 2, 4),
    ("op f : 2 [assoc] .", "f: assoc and comm are only supported together", 1, 4),
    ("op + : 2 [assoc comm builtin] .", "+: builtin operators cannot be AC", 1, 4),
])
def test_declaration_errors_carry_their_location(text, message, line, col):
    """A declaration `Signature.declare` refuses is reported at its
    operator's name."""
    with pytest.raises(TheorySyntaxError) as err:
        parse_theory(text)
    assert str(err.value) == f"line {line}, column {col}: {message}"


def test_declarations_no_theory_file_can_locate():
    # a token is never empty, and a builtin's arity is checked once the theory is read
    with pytest.raises(SignatureError, match="^operator name must be nonempty$"):
        Signature().declare("", 0)
    with pytest.raises(TheoryError, match="^\\+: builtin arity 2, declared 3$"):
        parse_theory("op + : 3 [builtin] .")


def _basic_theory():
    return parse_theory(
        """
        op f : 1 .
        op g : 1 .
        op m : 1 .
        op a : 0 .
        op b : 0 .
        rl [r1] : f(X) => b .
        rl [r2] : g(b) => m(a) .
        """,
        name="basic",
    )


def test_trace_round_trip(tmp_path):
    th = _basic_theory()
    trace = run(parse_term("g(f(a))", th.signature), th, 10)
    path = tmp_path / "t.rwtrace"
    save_trace(trace, path, theory_ref="basic")
    loaded = load_trace(path, th)
    assert loaded.initial == trace.initial
    assert loaded.steps == trace.steps
    # save(load(x)) is identity on the canonical text
    assert render_trace(loaded, "basic") == path.read_text(encoding="utf-8")


def test_trace_round_trip_with_the_builtin_minus():
    """A builtin step's name field holds its operator, so there `-` names
    the builtin `-`, not the empty name of the other kinds."""
    th = parse_theory("op - : 2 [builtin] .\nop f : 1 .\nrl [r] : f(X) => f(-(X,1)) .\n")
    trace = run(parse_term("f(5)", th.signature), th, 2)
    text = render_trace(trace)
    assert "step builtin - 1 - f(-(5,1)) f(4)\n" in text
    loaded = parse_trace(text, th)
    assert loaded.steps == trace.steps and render_trace(loaded) == text


_DEEP_THEORY = "op h : 1 .\nop s : 1 .\nop z : 0 .\nrl [r] : h(s(X)) => h(X) .\n"


def _deep(d: int) -> str:
    return "h(" + "s(" * d + "z" + ")" * d + ")"


def test_deep_terms_run_slice_report_save_and_load(tmp_path):
    """h(s^10000(z)) through the engine, whose matcher set hashes each
    binding (`Term.__hash__`), the slicer, the structured report, and a save
    and load of the trace, none of which recurses."""
    th = parse_theory(_DEEP_THEORY, name="deep")
    trace = run(parse_term(_deep(10_000), th.signature), th, 3)
    assert [s.kind for s in trace.steps] == ["rule"] * 3
    report = SliceReport(trace_slice(trace, [Position((1, 1))]), theory_name="deep").render_structured()
    assert report.startswith("rwslice-report 1\n") and "\nslice 3 h(s(s(•)))\n" in report
    save_trace(trace, tmp_path / "deep.rwtrace")
    loaded = load_trace(tmp_path / "deep.rwtrace", th)
    assert len(loaded.steps) == 3 and pretty(loaded.final()) == _deep(9_997)


def test_cli_runs_in_its_own_process():
    """`python -m rwslice.cli` in a fresh interpreter, which imports the
    package as every run of the console script does, prints the golden
    client_server report and exits 0; a rejected input exits 1 with its
    message on stderr."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONIOENCODING="utf-8")
    command = [sys.executable, "-m", "rwslice.cli", "--theory", str(bundled_example_path("client_server.rwt"))]
    command += ["--init", "net(srv(0),cli(1,3,none),cli(2,4,none))", "--steps", "6"]
    done = subprocess.run(command + ["--criterion", "1.3", "--format", "structured"], env=env, capture_output=True, timeout=120)
    with open(os.path.join(root, "tests", "golden", "client_server.report.txt"), "rb") as golden:
        assert (done.returncode, done.stdout, done.stderr) == (0, golden.read(), b"")
    rejected = subprocess.run(command + ["--criterion", "9"], env=env, capture_output=True, timeout=120)
    assert rejected.returncode == 1 and rejected.stdout == b"" and rejected.stderr.startswith(b"rwslice: ")


def test_cli_slices_deep_terms(tmp_path, capsys):
    """--steps, --end (`run_until` compares with `Term.__eq__`) and --trace
    on h(s^10000(z)) print one report."""
    theory = tmp_path / "deep.rwt"
    theory.write_text(_DEEP_THEORY, encoding="utf-8")
    th = parse_theory(_DEEP_THEORY, name="deep.rwt")
    save_trace(run(parse_term(_deep(10_000), th.signature), th, 3), tmp_path / "deep.rwtrace")
    common = ["--theory", str(theory), "--init", _deep(10_000), "--criterion", "1.1", "--format", "structured"]
    reports = []
    for end in (["--steps", "3"], ["--end", _deep(9_997)], ["--trace", str(tmp_path / "deep.rwtrace")]):
        assert main(common + end) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2] and "\nslice 3 h(s(s(•)))\n" in reports[0]


def test_deep_bindings_save_load_and_match(tmp_path):
    """A 500-step run of h(X) => h(s(X)) binds X to s^499(z): its trace
    loads, as the loader compares each recorded matcher with the replay's
    without recursion (`Substitution.__eq__`). A repeated variable bound
    to two copies of s^10000(z) matches in the scan and in the replay
    (`match` compares them with `Term.__eq__`)."""
    th = parse_theory("op h : 1 .\nop s : 1 .\nop z : 0 .\nrl [r] : h(X) => h(s(X)) .\n", name="grow")
    trace = run(parse_term("h(z)", th.signature), th, 500)
    save_trace(trace, tmp_path / "grow.rwtrace")
    loaded = load_trace(tmp_path / "grow.rwtrace", th)
    assert render_trace(loaded) == render_trace(trace) and len(loaded.steps) == 500
    th = parse_theory("op k : 2 .\nop s : 1 .\nop z : 0 .\nop d : 0 .\nrl [r] : k(X,X) => d .\n")
    sig = th.signature
    copies = []
    for _ in range(2):
        t = parse_term("z", sig)
        for _ in range(10_000):
            t = Term(sig.lookup("s", 1).symbol, (t,))
        copies.append(t)
    trace = run(Term(sig.lookup("k", 2).symbol, tuple(copies)), th, 1)
    assert [s.kind for s in trace.steps] == ["rule"] and pretty(trace.final()) == "d"


def _nodes(t: Term) -> list[Term]:
    """Every node of t, by an iterative walk (`==` and `pretty` recurse)."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.args)
    return out


@pytest.mark.parametrize(
    "theory, init, rule_steps",
    [
        ("producer_consumer.rwt", "cfg(tok,prod(0),cons(0,0))", 12),
        ("client_server.rwt", "net(srv(0),cli(1,3,none),cli(2,4,none))", 6),
    ],
)
def test_loaded_trace_shares_subterms(theory, init, rule_steps, tmp_path):
    th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
    trace = run(parse_term(init, th.signature), th, rule_steps)
    path = tmp_path / "t.rwtrace"
    save_trace(trace, path)
    loaded = load_trace(path, th)
    assert loaded.initial == trace.initial and loaded.steps == trace.steps
    bindings = 0
    for step in loaded.steps:
        before, after = step.before, step.after
        for i in step.position.path:
            assert len(before.args) == len(after.args)
            assert all(b is a for j, (b, a) in enumerate(zip(before.args, after.args), 1) if j != i)
            before, after = before.args[i - 1], after.args[i - 1]
        # every variable of these theories sits under a free symbol, so it
        # binds a node of the redex
        nodes = {id(node) for node in _nodes(step.before)}
        for _, value in step.matcher.items():
            assert id(value) in nodes
            bindings += 1
    assert bindings > 0


_REDEX_THEORY = "op s : 1 .\nop f : 1 .\nop a : 0 .\nop b : 0 .\nrl [r] : f(a) => f(b) .\n"


def _deep_redex(d: int, leaf: str = "a") -> str:
    return "s(" * d + f"f({leaf})" + ")" * d


def test_deep_redex_slices_without_recursion(tmp_path, capsys):
    """f(a) => f(b) under s^10000, with the criterion at the redex: the
    slicer and `glued_terms` compare the two deep slices (`Term.__eq__`)
    without recursion, and so does the CLI. The structured report lists
    every prefix of the criterion in a pset, a text quadratic in the depth,
    so it is made at depth 2000, still twice the interpreter's stack."""
    theory = tmp_path / "redex.rwt"
    theory.write_text(_REDEX_THEORY, encoding="utf-8")
    th = parse_theory(_REDEX_THEORY, name="redex.rwt")
    for d in (10_000, 2_000):
        assert sys.getrecursionlimit() < d
        trace = run(parse_term(_deep_redex(d), th.signature), th, 1)
        ts = trace_slice(trace, [Position((1,) * d)])
        assert [s.kind for s in trace.steps] == [s.kind for s in ts.steps] == ["rule"]
        assert ts.texts == [_deep_redex(d), _deep_redex(d, "•")] and len(ts.glued_terms()) == 2
    report = SliceReport(ts, theory_name="redex.rwt").render_structured()
    assert f"\nslice 1 {_deep_redex(d, '•')}\n" in report and f"\nstep 0 rule r {Position((1,) * d)} " in report
    d = 10_000
    argv = ["--theory", str(theory), "--init", _deep_redex(d), "--steps", "1", "--criterion", str(Position((1,) * d))]
    assert main(argv) == 0
    assert f"  {_deep_redex(d)} --[r]--> {_deep_redex(d, '•')}\n" in capsys.readouterr().out


def test_deep_tampered_record_is_malformed():
    """A deep record whose after field is not the replay's is read and
    compared with the replay's term without recursion: MalformedStep."""
    th = parse_theory(_REDEX_THEORY, name="redex")
    text = render_trace(run(parse_term(_deep_redex(10_000), th.signature), th, 1))
    assert parse_trace(text, th).final() == parse_term(_deep_redex(10_000, "b"), th.signature)
    tampered = text.replace(_deep_redex(10_000, "b"), _deep_redex(10_000, "a"))
    assert tampered.count(_deep_redex(10_000, "a")) == 3
    with pytest.raises(MalformedStep, match="line 4: rule step at .* does not replay"):
        parse_trace(tampered, th)


def test_deep_ac_arguments_run_and_slice_without_recursion():
    """g(f(s^10000(b),s^10000(a))) with f AC: the flat step orders the two
    deep arguments (`term_cmp`) and the rule g(X) => X drops g; the run and
    a slice at the deepest a neither recurses."""
    th = parse_theory("op g : 1 .\nop f : 2 [assoc comm] .\nop s : 1 .\nop a : 0 .\nop b : 0 .\nrl [r] : g(X) => X .\n")
    d = 10_000
    chain = lambda leaf: "s(" * d + leaf + ")" * d
    trace = run(parse_term(f"g(f({chain('b')},{chain('a')}))", th.signature), th, 1)
    assert [s.kind for s in trace.steps] == ["flat", "rule"]
    assert pretty(trace.final()) == f"f({chain('a')},{chain('b')})"
    ts = trace_slice(trace, [Position((1,) * (d + 1))])
    assert ts.texts[-1] == f"f({chain('a')},•)" and len(ts.steps) == 2


def test_deep_terms_parse_without_recursion():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    decls = "op h : 1 .\nop s : 1 .\nop z : 0 .\n"
    chain = "h(" + "s(" * depth + "{})" + ")" * depth
    t = parse_term(chain.format("z"), parse_theory(decls).signature)
    rule = parse_theory(decls + f"rl [down] : {chain.format('X')} => h(X) .\n").find_rule("down")
    for term, leaf in ((t, "z"), (rule.lhs, "X")):
        path = [node.root.name for node in _nodes(term)]
        assert path == ["h"] + ["s"] * depth + [leaf]


def test_trace_load_warns_on_a_non_canonical_final_term():
    """The loader checks the final term with its one flat walk
    (`_Steps.first`): it warns when the term is not AC canonical, and only
    then."""
    th = parse_theory("op f : 2 [assoc comm] .\nop g : 1 .\nop a : 0 .\nop b : 0 .\n")
    with pytest.warns(UserWarning, match="non-canonical"):
        parse_trace("rwtrace 1\ntheory -\ninit g(f(b,a))\n", th)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pretty(parse_trace("rwtrace 1\ntheory -\ninit g(f(a,b))\n", th).final()) == "g(f(a,b))"


def test_trace_load_rejects_tampering(tmp_path):
    th = _basic_theory()
    trace = run(parse_term("g(f(a))", th.signature), th, 10)
    text = render_trace(trace, "basic")
    broken = text.replace("m(a)", "m(b)")
    with pytest.raises(MalformedStep):
        parse_trace(broken, th)


def test_trace_load_rejects_identity_unflat(tmp_path):
    th = parse_theory(bundled_example_path("client_server.rwt").read_text())
    init = parse_term("net(cli(1,3,none),srv(0))", th.signature)
    lines = render_trace(run(init, th, 3), "client_server").splitlines()
    assert lines[2] == f"init {pretty(init)}"
    lines.insert(3, f"step unflat - ^ - {pretty(init)} {pretty(init)}")
    path = tmp_path / "identity.rwtrace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedStep):
        load_trace(path, th)


def test_trace_load_warns_on_noncanonical_tail(tmp_path):
    th = parse_theory("op f : 2 [assoc comm] .\nop a : 0 .\nop b : 0 .\n")
    text = "rwtrace 1\ntheory x\ninit f(b,a)\n"
    with pytest.warns(UserWarning):
        parse_trace(text, th)


@pytest.fixture
def theory_file(tmp_path):
    path = tmp_path / "basic.rwt"
    path.write_text(
        "op f : 1 .\nop g : 1 .\nop m : 1 .\nop a : 0 .\nop b : 0 .\n"
        "rl [r1] : f(X) => b .\nrl [r2] : g(b) => m(a) .\n",
        encoding="utf-8",
    )
    return str(path)


def test_cli_end_search(theory_file, capsys):
    code = main(
        [
            "--theory", theory_file,
            "--init", "g(f(a))",
            "--end", "m(a)",
            "--criterion", "^",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "--[r1]-->" in out and "--[r2]-->" in out
    assert "reduction:" in out


def test_cli_structured_deterministic(theory_file, capsys):
    args = [
        "--theory", theory_file,
        "--init", "g(f(a))",
        "--steps", "2",
        "--criterion", "^",
        "--format", "structured",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("rwslice-report 1\n")
    fields = {ln.split()[0]: ln.split()[1] for ln in first.splitlines()[1:8]}
    expected = round(100 * (1 - int(fields["sliced-size"]) / int(fields["original-size"])), 2)
    assert float(fields["reduction"]) == expected


def test_cli_full_criterion_no_reduction(tmp_path, capsys):
    path = tmp_path / "ne.rwt"
    path.write_text("op p : 1 .\nop q : 2 .\nop a : 0 .\nrl [r] : p(X) => q(X,X) .\n")
    code = main(
        [
            "--theory", str(path),
            "--init", "p(p(a))",
            "--steps", "2",
            "--criterion", "^,1,1.1,1.2,2,2.1,2.2",
            "--format", "structured",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "reduction 0.00" in out


def test_cli_trace_input(theory_file, tmp_path, capsys):
    th = _basic_theory()
    trace = run(parse_term("g(f(a))", th.signature), th, 10)
    tr_path = tmp_path / "t.rwtrace"
    save_trace(trace, tr_path, theory_ref="basic")
    code = main(
        [
            "--theory", theory_file,
            "--init", "g(f(a))",
            "--trace", str(tr_path),
            "--criterion", "1",
        ]
    )
    assert code == 0
    assert "sliced" in capsys.readouterr().out


def test_cli_error_paths(theory_file, capsys):
    # unreachable end state
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--end", "g(g(a))", "--criterion", "^"]) == 1
    assert "not reached" in capsys.readouterr().err
    # invalid criterion; its positions print as the option reads them
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "2", "--criterion", "5.5"]) == 1
    assert "criterion" in capsys.readouterr().err.lower()
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "2", "--criterion", "9,1.1.1.1"]) == 1
    assert capsys.readouterr().err == "rwslice: criterion positions 1.1.1.1,9 are not positions of m(a)\n"
    # parse error
    assert main(["--theory", theory_file, "--init", "g(", "--steps", "1", "--criterion", "^"]) == 1
    capsys.readouterr()
    # negative step budget; a budget of 0 is valid and runs out at once
    args = ["--theory", theory_file, "--init", "g(f(a))", "--steps", "1", "--criterion", "^", "--max-steps"]
    assert main(args + ["-5"]) == 1
    assert "step budget must be nonnegative, got -5" in capsys.readouterr().err
    assert main(args + ["0"]) == 1
    assert "more than 0 elementary steps" in capsys.readouterr().err


def test_cli_refuses_an_init_off_the_trace_a_negative_step_count_and_an_empty_criterion(theory_file, tmp_path, capsys):
    th = _basic_theory()
    tr_path = tmp_path / "t.rwtrace"
    save_trace(run(parse_term("g(f(a))", th.signature), th, 10), tr_path)
    for args, message in [
        (["--init", "g(f(b))", "--trace", str(tr_path), "--criterion", "^"],
         "--init g(f(b)) does not match the trace's initial term g(f(a))"),
        (["--init", "g(f(a))", "--steps", "-1", "--criterion", "^"], "--steps must be nonnegative"),
        (["--init", "g(f(a))", "--steps", "1", "--criterion", ","], "empty criterion"),
    ]:
        assert main(["--theory", theory_file, *args]) == 1
        assert capsys.readouterr().err == f"rwslice: {message}\n"


def test_pretty_report_without_a_kept_rule_step_prints_the_sliced_trace(tmp_path, capsys):
    """When the slice keeps no rule step, the pretty report prints the
    first slice in place of the sliced steps."""
    path = tmp_path / "pair.rwt"
    path.write_text("op p : 2 .\nop f : 1 .\nop a : 0 .\nop b : 0 .\nrl [r] : f(X) => b .\n", encoding="utf-8")
    assert main(["--theory", str(path), "--init", "p(f(a),a)", "--steps", "1", "--criterion", "2"]) == 0
    assert capsys.readouterr().out == (
        "criterion: 2\nsliced trace: p(•,a)\noriginal size: 19\nsliced size: 6\nreduction: 68.42%\n"
    )


def test_cli_reads_the_criterion_before_any_other_work(theory_file, monkeypatch, capsys):
    """A malformed criterion is reported before the theory is parsed and
    the trace is loaded or run."""
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the criterion was read")

    for name in ("parse_theory", "parse_trace", "run", "run_until"):
        monkeypatch.setattr(cli, name, refuse)
    for source in (["--steps", "1500"], ["--end", "m(a)"], ["--trace", "missing.rwtrace"]):
        assert main(["--theory", theory_file, "--init", "g(f(a))", "--criterion", "1..x", *source]) == 1
        assert capsys.readouterr().err == "rwslice: malformed position '1..x'\n"


def test_cli_reports_unreadable_files(theory_file, tmp_path, capsys):
    args = ["--theory", theory_file, "--init", "g(f(a))", "--criterion", "^", "--trace"]
    missing = tmp_path / "missing.rwtrace"
    assert main(args + [str(missing)]) == 1
    assert capsys.readouterr().err == f"rwslice: {missing}: No such file or directory\n"
    assert main(args + [str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"rwslice: {tmp_path}: Is a directory\n"
    latin1 = tmp_path / "latin1.rwt"
    latin1.write_bytes("op f : 1 .  --- f\u00e9e\nop a : 0 .\n".encode("latin-1"))
    assert main(["--theory", str(latin1), "--init", "f(a)", "--steps", "0", "--criterion", "^"]) == 1
    assert capsys.readouterr().err.startswith(f"rwslice: {latin1}: 'utf-8' codec can't decode byte 0xe9")


def test_cli_lets_internal_errors_through(theory_file, monkeypatch):
    """Only an input error becomes a message; any other exception is a
    defect and keeps its traceback."""

    def broken(*args, **kwargs):
        raise RuntimeError("a defect")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(RuntimeError, match="a defect"):
        main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "1", "--criterion", "^"])


def test_cli_env_budget(theory_file, capsys, monkeypatch):
    monkeypatch.setenv("RWSLICE_MAX_STEPS", "1")
    code = main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "2", "--criterion", "^"])
    assert code == 1
    assert "elementary steps" in capsys.readouterr().err
    monkeypatch.setenv("RWSLICE_MAX_STEPS", "nonsense")
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "1", "--criterion", "^"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("RWSLICE_MAX_STEPS", "-5")
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "1", "--criterion", "^"]) == 1
    assert "step budget must be nonnegative, got -5" in capsys.readouterr().err
    monkeypatch.setenv("RWSLICE_MAX_STEPS", "0")
    assert main(["--theory", theory_file, "--init", "g(f(a))", "--steps", "1", "--criterion", "^"]) == 1
    assert "more than 0 elementary steps" in capsys.readouterr().err


def test_cli_trace_is_loaded_within_the_step_budget(tmp_path, capsys, monkeypatch):
    """A --trace request makes its steps within the elementary step budget,
    as --steps does: a trace of n steps loads under a budget of n, by the
    flag or the environment variable, and is refused under n - 1."""
    path = str(bundled_example_path("producer_consumer.rwt"))
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text())
    trace = run(parse_term("cfg(tok,prod(0),cons(0,0))", th.signature), th, 5)
    n = len(trace.steps)
    save_trace(trace, tmp_path / "pc.rwtrace")
    args = ["--theory", path, "--init", "cfg(tok,prod(0),cons(0,0))", "--trace", str(tmp_path / "pc.rwtrace"), "--criterion", "1"]
    assert n > 20
    assert main(args + ["--max-steps", str(n)]) == 0
    capsys.readouterr()
    assert main(args + ["--max-steps", str(n - 1)]) == 1
    assert capsys.readouterr().err == f"rwslice: more than {n - 1} elementary steps\n"
    monkeypatch.setenv("RWSLICE_MAX_STEPS", str(n - 1))
    assert main(args) == 1
    assert capsys.readouterr().err == f"rwslice: more than {n - 1} elementary steps\n"
    monkeypatch.setenv("RWSLICE_MAX_STEPS", str(n))
    assert main(args) == 0


def test_trace_load_reads_tab_separated_fields():
    """Every line of a trace file, the header, theory and init lines too,
    has whitespace-separated fields: a tab-separated copy of a rendered
    trace loads equal to it, and an init term's error is located from its
    field's start."""
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text())
    text = render_trace(run(parse_term("cfg(tok,prod(0),cons(0,0))", th.signature), th, 6), "pc")
    tabbed = text.replace(" ", "\t")
    assert tabbed.count("\t") == text.count(" ") > 0
    assert parse_trace(tabbed, th) == parse_trace(text, th)
    with pytest.raises(MalformedStep, match=re.escape("line 3, column 12: unknown operator zz")):
        parse_trace("rwtrace\t1\ntheory\tpc\ninit\t \tcfg(zz)\n", th)


def test_cli_full_expansion_flag(capsys):
    path = str(bundled_example_path("producer_consumer.rwt"))
    base = [
        "--theory", path,
        "--init", "cfg(tok,prod(0),cons(0,0))",
        "--steps", "2",
        "--criterion", "1.1",
    ]
    assert main(base) == 0
    short = capsys.readouterr().out
    assert main(base + ["--full-expansion"]) == 0
    full = capsys.readouterr().out
    assert len(full.splitlines()) >= len(short.splitlines())


@pytest.mark.parametrize("lines", [
    # the first step does not start at init
    ["init g(f(b))", "step rule r1 1 X=a g(f(a)) g(b)"],
    # the second step, valid on its own, does not start where the first ends
    ["init g(f(a))", "step rule r1 1 X=a g(f(a)) g(b)", "step rule r1 ^ X=b f(b) b"],
])
def test_trace_load_rejects_unchained_steps(lines):
    with pytest.raises(MalformedStep, match="do not chain"):
        parse_trace("\n".join(["rwtrace 1", "theory basic", *lines]) + "\n", _basic_theory())


@pytest.mark.parametrize("record, message", [
    ("step bogus", "line 6: bad step record"),
    ("step rule r2 ^ - g(f(a)) m(a)", "line 6: steps do not chain"),
    ("step rule r2 ^ - g(b) m(b)", "line 6: rule step at . does not replay"),
    ("step rule r2 ^ X=zz g(b) m(a)", "line 6, column 18: unknown operator zz"),
    ("step rule r2 ^ - g(b) m(a)x", "line 6, column 27: trailing input 'x'"),
    # a binding of a variable the rule does not have
    ("step rule r2 ^ Y=b g(b) m(a)", "line 6: rule step at . does not replay"),
    ("step rule r2 ^ X g(b) m(a)", "line 6: bad binding 'X'"),
    # a variable bound twice, to other or to equal terms
    ("step rule r1 1 X=b;X=a g(f(a)) g(b)", "line 6: variable X bound twice"),
    ("step rule r1 1 X=a;X=a g(f(a)) g(b)", "line 6: variable X bound twice"),
])
def test_trace_load_reports_physical_lines(record, message):
    lines = ["rwtrace 1", "theory basic", "init g(f(a))", "step rule r1 1 X=a g(f(a)) g(b)", "", record]
    with pytest.raises(MalformedStep, match=message):
        parse_trace("\n".join(lines) + "\n", _basic_theory())


@pytest.mark.parametrize("lines, message", [
    # the init term's own column, past the record's keyword, on its physical line
    (["init  g(zz)"], "line 4, column 9: unknown operator zz"),
    (["init g(f(a)) x"], "line 4, column 14: trailing input 'x'"),
    # the second of two binding values, and a before field equal to the after field
    (["init g(f(a))", "step rule r1 1 X=a;Y=zz g(f(a)) g(b)"], "line 5, column 22: unknown operator zz"),
    (["init g(f(a))", "step rule r1 1 X=a g(f(a)) g(b)", "step rule r2 ^ - g(c) g(c)"], "line 6, column 20: unknown operator c"),
])
def test_trace_load_reports_terms_at_their_file_column(lines, message):
    text = "\n".join(["rwtrace 1", "theory basic", "", *lines]) + "\n"
    with pytest.raises(MalformedStep, match=re.escape(message)):
        parse_trace(text, _basic_theory())


@pytest.mark.parametrize("lines", [
    # an after field with a comment suffix, and a before field that repeats it without
    ["init g(f(a))", "step rule r1 1 X=a g(f(a)) g(b)---x", "step rule r2 ^ - g(b) m(a)"],
    # a before field with a comment suffix
    ["init g(f(a))", "step rule r1 1 X=a g(f(a))--- g(b)", "step rule r2 ^ - g(b) m(a)"],
    # an init line with spaces
    ["init g( f( a ) )", "step rule r1 1 X=a g(f(a)) g(b)", "step rule r2 ^ - g(b) m(a)"],
])
def test_trace_load_reads_fields_as_the_parser_does(lines):
    th = _basic_theory()
    loaded = parse_trace("\n".join(["rwtrace 1", "theory basic", *lines]) + "\n", th)
    assert loaded.steps == run(parse_term("g(f(a))", th.signature), th, 10).steps


def test_trace_load_requires_the_header():
    for text in ("", "theory basic\ninit g(f(a))\n", "rwtrace 2\ntheory basic\ninit g(f(a))\n"):
        with pytest.raises(MalformedStep, match="^expected header 'rwtrace 1'$"):
            parse_trace(text, _basic_theory())


def test_trace_load_reports_the_first_bad_line():
    # line 4 does not replay and line 5 does not parse: line 4 is reported
    lines = ["rwtrace 1", "theory basic", "init g(f(a))", "step rule r1 1 X=b g(f(a)) g(b)", "step rule r2 ^ - g(b) m(a)x"]
    with pytest.raises(MalformedStep, match="line 4: rule step at 1 does not replay"):
        parse_trace("\n".join(lines) + "\n", _basic_theory())


def test_trace_load_checks_bindings_by_their_print():
    """A record's bindings are compared with the print of the replay's
    matcher and read only when they differ: bindings in another order
    load, a tampered value does not replay, and the bindings' syntax error
    is reported before that of a later field, even one read before the
    replay, as an unflat record's spine is."""
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text(), name="cs")
    trace = run(parse_term("net(srv(0),cli(1,3,none),cli(2,4,none))", cs.signature), cs, 2)
    lines = render_trace(trace).splitlines()
    unflat, ask = lines[4], lines[5]  # lines 5 and 6 of the file
    assert unflat.split()[1] == "unflat" and ask.split()[4] == "C=1;D=3;S=0"

    def load(at, record):
        return parse_trace("\n".join(lines[:at] + [record] + lines[at + 1 :]) + "\n", cs)

    assert load(5, ask.replace("C=1;D=3;S=0", "S=0;C=1;D=3")).steps == trace.steps
    with pytest.raises(MalformedStep, match=re.escape("line 6: rule step at 1 does not replay")):
        load(5, ask.replace("S=0", "S=1"))
    _, kind, name, pos, _, before, after = unflat.split()
    for at, record in [
        (4, " ".join(["step", kind, name, pos, "C=zz", before, after.replace("none", "qq", 1)])),
        (4, " ".join(["step", kind, name, pos, "C=zz", before, after])),
        (5, ask.replace("C=1", "C=zz").replace("none", "qq")),
        (3, lines[3].replace(" - net", " C=zz net", 1)),
    ]:
        column = record.index("zz") + 1
        with pytest.raises(MalformedStep, match=re.escape(f"line {at + 1}, column {column}: unknown operator zz")):
            load(at, record)


# an AC cfg beside a unary cfg, whose nodes print as "cfg(" too
SPINES = """
op cfg : 2 [assoc comm] .
op cfg : 1 .
op item : 1 .
op box : 1 .
"""


_CFG3 = "cfg(item(0),item(1),item(2))"


def _spine_file(init, pos, after, bind="-"):
    """A trace of an unflat record at pos from init to after, then the flat
    record back to init."""
    return "\n".join([
        "rwtrace 1", "theory spines", f"init {init}",
        f"step unflat - {pos} {bind} {init} {after}", f"step flat - {pos} - {after} {init}",
    ]) + "\n"


# (init, position, after, move map) of unflat records whose spines read by print
_SPINE_CASES = [
    # equal arguments: each leaf is the leftmost unused one, as `_pair` takes it
    ("cfg(item(0),item(0),item(1))", "^", "cfg(cfg(item(0),item(1)),item(0))", (0, 2, 1)),
    ("cfg(item(0),item(0),item(0))", "^", "cfg(item(0),cfg(item(0),item(0)))", (0, 1, 2)),
    # a nested spine below the root
    ("box(cfg(item(0),item(1),item(2)))", "1", "box(cfg(item(2),cfg(item(1),item(0))))", (2, 1, 0)),
    # reordered leaves, one of them a unary cfg node, and a print that starts another
    ("cfg(cfg(item(2)),item(0),item(1))", "^", "cfg(item(1),cfg(cfg(item(2)),item(0)))", (2, 0, 1)),
    ("cfg(1,10,2)", "^", "cfg(cfg(10,1),2)", (1, 0, 2)),
]


@pytest.mark.parametrize("init, pos, after, moves", _SPINE_CASES)
def test_trace_load_reads_unflat_spines_by_print(monkeypatch, init, pos, after, moves):
    """An unflat record's spine is read by print, not parsed: its leaves are
    the before node's own argument objects, paired as `acmatch._pair` pairs
    them, it is the term the parser reads, and the move map read with it is
    `regrouping_map`'s, which the loaded step keeps."""
    th = parse_theory(SPINES, name="spines")
    q, before = Position.parse(pos), parse_term(init, th.signature)
    # equal arguments as distinct objects, which the parser would share
    node = subterm_at(before, q)
    node = Term(node.root, tuple(Term(a.root, a.args) for a in node.args))
    spine, read_moves = tracefile._read_spine(after, init, replace_at(before, q, node), q, {})
    assert spine == parse_term(after, th.signature)
    assert read_moves == moves == acmatch.regrouping_map("unflat", node, subterm_at(spine, q))
    leaves = [leaf for _, leaf in acmatch.spine_leaves(subterm_at(spine, q))]
    assert all(leaf is node.args[i] for leaf, i in zip(leaves, moves, strict=True))
    read = []
    real_term = theoryfile._TermParser.term
    monkeypatch.setattr(theoryfile._TermParser, "term", lambda parser, text: read.append(text) or real_term(parser, text))
    loaded = parse_trace(_spine_file(init, pos, after), th)
    assert read == [init] and loaded.steps[0].moves == moves
    assert pretty(loaded.steps[0].after) == after and loaded.final() == loaded.initial


@pytest.mark.parametrize("init, pos, after, message", [
    # a leaf that is not an argument, an argument used twice, or one left out
    (_CFG3, "^", "cfg(cfg(item(0),item(3)),item(1))", "line 4: unflat step at ^ does not replay"),
    (_CFG3, "^", "cfg(cfg(item(0),item(0)),item(1))", "line 4: unflat step at ^ does not replay"),
    (_CFG3, "^", "cfg(cfg(item(0),item(1)),cfg(item(0),item(2)))", "line 4: unflat step at ^ does not replay"),
    (_CFG3, "^", "cfg(item(0),item(1))", "line 4: unflat step at ^ does not replay"),
    # a spine node of one argument, and the node itself
    (_CFG3, "^", "cfg(cfg(item(0)),item(1),item(2))", "line 4: unflat step at ^ does not replay"),
    (_CFG3, "^", "cfg(item(0),item(1),item(2))", "line 4: unflat step at ^ does not replay"),
    # a valid spine below another root than before's, which the parser reads
    (f"box({_CFG3})", "1", "cfg(cfg(cfg(item(0),item(1)),item(2)))", "line 4: unflat step at 1 does not replay"),
    # syntax errors, each at its column in the file
    (_CFG3, "^", "cfg(cfg(item(0),zz),item(1))", "line 4, column 64: unknown operator zz"),
    (_CFG3, "^", "cfg(cfg(item(0),item(1)),item(2))x", "line 4, column 81: trailing input 'x'"),
    (_CFG3, "^", "cfg(cfg(item(0),item(1)),item(2)", "line 4, column 79: unexpected end of input"),
])
def test_trace_load_rejects_bad_spines_as_the_parser_does(init, pos, after, message):
    """Each message, line and column is the one parsing the field gives,
    with or without the flat record after it."""
    th = parse_theory(SPINES, name="spines")
    for lines in (5, 4):
        with warnings.catch_warnings(), pytest.raises(MalformedStep, match=re.escape(message)):
            warnings.simplefilter("ignore")
            parse_trace("\n".join(_spine_file(init, pos, after).splitlines()[:lines]) + "\n", th)


def test_trace_load_parses_spines_it_cannot_read_by_print():
    """A spine that does not read by print is parsed: with a comment (a
    field holds no blanks) it loads, and the bindings field's syntax error
    comes first, whether the spine reads by print or does not parse."""
    th = parse_theory(SPINES, name="spines")
    init, after = "cfg(item(0),item(1),item(2))", "cfg(cfg(item(0),item(1)),item(2))"
    loaded = parse_trace(_spine_file(init, "^", after + "---x"), th)
    assert pretty(loaded.steps[0].after) == after
    assert loaded.steps == parse_trace(_spine_file(init, "^", after), th).steps
    for spine in (after, after.replace("item(2)", "zz(2)"), after + "x"):
        text = _spine_file(init, "^", spine, bind="X=qq")
        column = text.splitlines()[3].index("qq") + 1
        with pytest.raises(MalformedStep, match=re.escape(f"line 4, column {column}: unknown operator qq")):
            parse_trace(text, th)
    with pytest.raises(MalformedStep, match=re.escape("line 4: unflat step at ^ does not replay")):
        parse_trace(_spine_file(init, "^", after, bind="X=item(0)"), th)


def _load_cases(pc_rule_steps, tree_depth, tree_rule_steps):
    """(theory, trace) pairs: producer_consumer, client_server and a
    wide_state tree."""
    pc = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text(), name="cs")
    wide = parse_theory(WIDE_STATE, name="wide")
    return [
        (pc, run(parse_term("cfg(tok,prod(0),cons(0,0))", pc.signature), pc, pc_rule_steps)),
        (cs, run(parse_term("net(srv(0),cli(1,3,none),cli(2,4,none),cli(5,6,none))", cs.signature), cs, 9)),
        (wide, run(parse_term(wide_tree(tree_depth, 0), wide.signature), wide, tree_rule_steps)),
    ]


def test_loaded_steps_are_their_records():
    """The loader builds each after term by replay; it is the term its
    field reads as, and the step passes the constructor's check."""
    for th, trace in seeded_traces() + _load_cases(40, 6, 24):
        text = render_trace(trace)
        loaded = parse_trace(text, th)
        records = text.splitlines()[3:]
        assert len(loaded.steps) == len(records)
        for step, record in zip(loaded.steps, records):
            assert step.after == parse_term(record.split()[6], th.signature), record
            assert check_step(step, th), record


def test_trace_load_parses_only_the_init_term(monkeypatch):
    """Loading a file as `render_trace` writes it hands the term parser the
    init term alone: an unflat record's spine is read over the prints of
    the arguments it regroups. Of every other record it prints the new
    subterm at the step's position once, whatever the step's kind, and of
    each the values the replay's matcher binds, to compare with the
    bindings field, and nothing else: on a tree of 256 pairs that is under
    5% of the file."""
    read, printed = [], []
    real_term, real_pretty = theoryfile._TermParser.term, tracefile.pretty

    def term(parser, text):
        read.append(text)
        return real_term(parser, text)

    def counted_pretty(t):
        out = real_pretty(t)
        printed.append(len(out))
        return out

    cases = _load_cases(200, 9, 48)
    pc, _, tree = cases
    assert len(pc[1].steps) == 1201 and sum(1 for s in tree[1].steps if s.kind == "rule") == 48
    monkeypatch.setattr(theoryfile._TermParser, "term", term)
    monkeypatch.setattr(tracefile, "pretty", counted_pretty)
    totals = []
    for th, trace in cases:
        text = render_trace(trace)
        read.clear()
        printed.clear()
        assert parse_trace(text, th).steps == trace.steps
        assert read == [text.splitlines()[2][len("init "):]]
        news = sum(len(real_pretty(subterm_at(s.after, s.position))) for s in trace.steps if s.kind != "unflat")
        values = sum(len(real_pretty(v)) for s in trace.steps for _, v in s.matcher.items())
        assert sum(printed) == news + values
        totals.append((news, values))
    assert totals == [(21_735, 1_094), (1_108, 28), (1_701, 240)]
    assert sum(totals[-1]) < 0.05 * len(text)


def test_trace_load_reads_bindings_in_any_order_by_print(monkeypatch):
    """A bindings field is read by print in any order of its bindings: with
    the bindings of each multi-binding record of the 200-rule-step
    producer_consumer trace reversed, the file loads to the same steps and
    hands the term parser the init term alone."""
    pc = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    trace = run(parse_term("cfg(tok,prod(0),cons(0,0))", pc.signature), pc, 200)
    lines = render_trace(trace).splitlines()
    reordered = 0
    for i, record in enumerate(lines[3:], start=3):
        fields = record.split()
        if ";" in fields[4]:
            fields[4] = ";".join(reversed(fields[4].split(";")))
            lines[i], reordered = " ".join(fields), reordered + 1
    assert len(trace.steps) == 1201 and reordered == 100
    read = []
    real_term = theoryfile._TermParser.term
    monkeypatch.setattr(theoryfile._TermParser, "term", lambda parser, text: read.append(text) or real_term(parser, text))
    loaded = parse_trace("\n".join(lines) + "\n", pc)
    assert loaded.steps == trace.steps and loaded.printed_size == trace.printed_size
    assert read == [lines[2][len("init "):]]


def _swap_clients(record: str) -> str:
    """The record with the texts of its after field's two `cli` arguments
    swapped."""
    fields = record.split()
    first, second = re.finditer(r"cli\([^()]*\)", fields[6])
    after = fields[6]
    fields[6] = (
        after[: first.start()] + second.group() + after[first.end() : second.start()] + first.group() + after[second.end() :]
    )
    return " ".join(fields)


def test_trace_load_rejects_tampered_regroupings():
    """Swapping the two client arguments in the after field of any flat or
    unflat record of a client_server run keeps its length and its syntax,
    and the loader rejects the file: the record does not replay, or, when
    the swapped spine is itself a regrouping, the next record does not
    chain."""
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text(), name="cs")
    trace = run(parse_term("net(srv(0),cli(1,3,none),cli(2,4,none))", cs.signature), cs, 9)
    lines = render_trace(trace).splitlines()
    tampered = 0
    for i, record in enumerate(lines[3:], start=3):
        if record.split()[1] not in ("flat", "unflat"):
            continue
        swapped = _swap_clients(record)
        assert swapped != record and len(swapped) == len(record)
        with pytest.raises(MalformedStep):
            parse_trace("\n".join(lines[:i] + [swapped] + lines[i + 1 :]) + "\n", cs)
        tampered += 1
    assert tampered == 16


def _count_calls(monkeypatch, names):
    """A Counter of the calls of each function in names, by (module, name),
    made through each module's own name for it."""
    calls = Counter()
    for module in (acmatch, engine, slicer, tracefile):
        for name in names:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _key=(module.__name__.rpartition(".")[2], name), _real=real, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_regrouping_maps_are_computed_once_by_the_check(monkeypatch):
    """Each flat or unflat step's move map is made once, where it is first
    known, and kept: a flat step's by its replay's `one_level_flat`
    (engine's name), an unflat step's by the run's AC match (`match_moves`,
    over the candidate's own target) or by the loader's `_read_spine`;
    neither calls `regrouping_map`, `_pair` or `rebuild_spine`. So one load of
    the 200-rule-step producer_consumer trace makes 401 `one_level_flat`
    calls and no other. No replay pairs or rebuilds a spine or flattens a
    leaf, slicing computes no map, and a step copied without its map
    computes it when read (`TraceStep.moves`, engine's `regrouping_map`)."""
    calls = _count_calls(monkeypatch, ("regrouping_map", "one_level_flat", "_pair", "rebuild_spine", "flatten_term"))
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text(), name="cs")
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 6))
    pc = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    text = render_trace(run(parse_term("cfg(tok,prod(0),cons(0,0))", pc.signature), pc, 200))
    # (trace, its flat and unflat step counts, the acmatch calls that make its unflat maps)
    for build, counts, unflat_sources in (
        (lambda: run(parse_term(f"net(srv(0),{clients})", cs.signature), cs, 15), (25, 15), ()),
        (lambda: parse_trace(text, pc), (401, 200), ()),
    ):
        calls.clear()
        trace = build()
        kinds = Counter(s.kind for s in trace.steps)
        flat, unflat = counts
        assert (kinds["flat"], kinds["unflat"]) == counts
        assert calls == Counter({("engine", "one_level_flat"): flat, **{("acmatch", name): unflat for name in unflat_sources}})
        calls.clear()
        for criterion in ([Position()], [Position((1,))], [Position((len(trace.final().args),))]):
            trace_slice(trace, criterion)
        assert not calls
        # the constructor's check, on copies of the steps, which keep no map yet
        InstrumentedTrace(trace.theory, trace.initial, [replaced(s) for s in trace.steps])
        lazy = {("engine", "one_level_flat"): flat, ("engine", "regrouping_map"): unflat, ("acmatch", "_pair"): unflat}
        assert calls == Counter(lazy)


def test_regrouping_steps_reuse_what_their_maker_knows(monkeypatch):
    """On a client_server run with 16 distinct clients and 48 rule steps,
    no flat or unflat step works out again what its maker knew (each count
    below was 48 or more before): the run pairs, rebuilds or recomputes no
    unflat map; `needs_flat` compares the arguments (`term_cmp`) of no node
    a flat step of the run built, as the run records it flat-settled;
    `printed_size` measures (`printed_length`) no flat or unflat step; and
    `trace_slice` reads no flat step's map through `regrouping_paths`."""
    calls = _count_calls(monkeypatch, ("_pair", "rebuild_spine", "regrouping_map"))
    compared, testing = [], []
    real_needs, real_cmp = engine.needs_flat, acmatch.term_cmp

    def needs_flat(node, sig):
        testing.append(node)
        try:
            return real_needs(node, sig)
        finally:
            testing.pop()

    def term_cmp(a, b):
        compared.extend(testing[-1:])
        return real_cmp(a, b)

    monkeypatch.setattr(engine, "needs_flat", needs_flat)
    monkeypatch.setattr(acmatch, "term_cmp", term_cmp)
    cs = parse_theory(bundled_example_path("client_server.rwt").read_text())
    clients = ",".join(f"cli({i},{i + 2},none)" for i in range(1, 17))
    trace = run(parse_term(f"net(srv(0),{clients})", cs.signature), cs, 48)
    kinds = Counter(s.kind for s in trace.steps)
    assert kinds["rule"] == 48 and kinds["unflat"] == 48 and not calls
    built = {id(subterm_at(s.after, s.position)) for s in trace.steps if s.kind == "flat"}
    assert compared and not [node for node in compared if id(node) in built]
    measured = _count_calls(monkeypatch, ("printed_length",))
    assert trace.printed_size == len(slicer.trace_string(trace.terms()))
    assert measured[("engine", "printed_length")] == 1 + 2 * (len(trace.steps) - kinds["flat"] - kinds["unflat"])
    read = []
    monkeypatch.setattr(slicer, "regrouping_paths", lambda kind, *args: read.append(kind) or acmatch.regrouping_paths(kind, *args))
    trace_slice(trace, [Position((i,)) for i in range(1, len(trace.final().args) + 1)])
    assert read and set(read) == {"unflat"}


def test_trace_load_replays_a_failing_record_once(monkeypatch):
    """A record that reads as `render_trace` writes it but does not replay
    fails on the print path, and the parse path reports it with no second
    replay: a producer_consumer trace whose first rule record names no rule
    is rejected there after one replay per record read."""
    pc = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    lines = render_trace(run(parse_term("cfg(tok,prod(0),cons(0,0))", pc.signature), pc, 3)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[1] == "rule")
    lines[at] = lines[at].replace(" make ", " nosuch ", 1)
    calls = _count_calls(monkeypatch, ("replay_step",))
    with pytest.raises(MalformedStep, match=re.escape("line 6: rule step at 1 does not replay")):
        parse_trace("\n".join(lines) + "\n", pc)
    assert at == 5 and calls == Counter({("engine", "replay_step"): 3})


def _check_kept_moves(th, trace):
    """Each flat or unflat step of trace keeps a move map, which is
    `regrouping_map` recomputed from its before and after nodes, and the
    node its replay made is the one `apply_step` makes from the map on the
    step's own before term. The number of such steps, by kind."""
    n = Counter()
    for step in trace.steps:
        if step.kind in ("flat", "unflat"):
            q = step.position
            before, after = subterm_at(step.before, q), subterm_at(step.after, q)
            assert "moves" in vars(step), step  # set where it was made, not computed when read
            assert step.moves == acmatch.regrouping_map(step.kind, before, after if step.kind == "unflat" else None)
            assert subterm_at(apply_step(step, th, step.before), q) == after
            n[step.kind] += 1
    return n


def test_kept_move_maps_are_the_recomputed_ones():
    """Every move map a producer keeps (the run's unflat steps, the
    loader's spines read by print, the replay's flat steps) is the one
    `regrouping_map` computes, on seeded traces, the bundled runs, a load
    of each one's `render_trace`, and spines over equal arguments."""
    cases = seeded_traces()
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        cases.append((th, run(parse_term(init, th.signature), th, rule_steps)))
    made, loaded = Counter(), Counter()
    for th, trace in cases:
        made += _check_kept_moves(th, trace)
        loaded += _check_kept_moves(th, parse_trace(render_trace(trace), th))
    assert made == loaded == Counter(flat=157, unflat=57)
    spines = parse_theory(SPINES, name="spines")
    for init, pos, after, moves in _SPINE_CASES:
        trace = parse_trace(_spine_file(init, pos, after), spines)
        assert trace.steps[0].moves == moves and _check_kept_moves(spines, trace) == Counter(flat=1, unflat=1)


def test_parse_path_loads_what_the_print_path_loads(monkeypatch):
    """A record that does not read by print takes the parse path, which
    loads what the print path loads: with `---x` after every step record's
    after field no record reads by print, and each field of every loaded
    step (a flat or unflat step's move map too) and the printed size are
    the plain file's. The commented copy parses each record's before and
    after fields."""
    cases = seeded_traces()
    for theory, init, rule_steps in BUNDLED_RUNS:
        th = parse_theory(bundled_example_path(theory).read_text(), name=theory)
        cases.append((th, run(parse_term(init, th.signature), th, rule_steps)))
    read = []
    real_term = theoryfile._TermParser.term
    monkeypatch.setattr(theoryfile._TermParser, "term", lambda parser, text: read.append(text) or real_term(parser, text))
    fields = ("kind", "rule_name", "position", "matcher", "before", "after")
    for th, trace in cases:
        text = render_trace(trace)
        commented = "".join(line + ("---x\n" if line.startswith("step ") else "\n") for line in text.splitlines())
        printed = parse_trace(text, th)
        read.clear()
        parsed = parse_trace(commented, th)
        records = [line.split()[5:] for line in commented.splitlines() if line.startswith("step ")]
        assert all(before in read and after in read for before, after in records)
        assert len(parsed.steps) == len(printed.steps) == len(trace.steps)
        for a, b in zip(printed.steps, parsed.steps):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields], a
            if a.kind in ("flat", "unflat"):  # the kinds with a move map
                assert a.moves == b.moves, a
        assert parsed.printed_size == printed.printed_size


def test_each_step_is_checked_once(tmp_path, monkeypatch, capsys):
    th_path = bundled_example_path("producer_consumer.rwt")
    th = parse_theory(th_path.read_text(encoding="utf-8"), name="pc")
    init = "cfg(tok,prod(0),cons(0,0))"
    trace = run(parse_term(init, th.signature), th, 5)
    tr_path = tmp_path / "t.rwtrace"
    save_trace(trace, tr_path)
    calls = []
    real = engine.replay_step

    def recorded(kind, name, q, before, theory, **kwargs):
        sub, after, moves = real(kind, name, q, before, theory, **kwargs)
        calls.append((kind, name, q, before, sub, after))
        return sub, after, moves

    # the run and the loader both replay through engine's name, once per step,
    # from the step's kind, name, position and before term to its matcher and after term
    monkeypatch.setattr(engine, "replay_step", recorded)
    base = ["--theory", str(th_path), "--init", init, "--criterion", "1"]
    fields = [(s.kind, s.rule_name, s.position, s.before, s.matcher, s.after) for s in trace.steps]
    for source in (["--trace", str(tr_path)], ["--steps", "5"], ["--end", pretty(trace.final())]):
        calls.clear()
        assert main(base + source) == 0, capsys.readouterr().err
        assert calls == fields, source
    tampered = replaced(trace.steps[-1], after=trace.steps[-1].before)
    with pytest.raises(MalformedStep, match=f"step {len(trace.steps) - 1}: "):
        InstrumentedTrace(th, trace.initial, [*trace.steps[:-1], tampered])
    # a built trace cannot be changed afterwards
    assert isinstance(trace.steps, tuple)
    with pytest.raises(AttributeError, match="^cannot assign to field 'steps'$"):
        trace.steps = [*trace.steps[:-1], tampered]


def test_repeated_requests_retain_no_memory(capsys):
    """Each request parses its theory anew, so whatever is cached per rule
    must go with the request's rules."""
    args = ["--theory", str(bundled_example_path("client_server.rwt")),
            "--init", "net(srv(0),cli(1,3,none),cli(2,4,none))", "--steps", "6",
            "--criterion", "1.3", "--format", "structured"]
    retained = []
    tracemalloc.start()
    try:
        for _ in range(30):
            assert main(args) == 0
            capsys.readouterr()
            sys._clear_type_cache()  # it holds attribute names argparse builds
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[-1] - retained[4] < 8_000, [r - retained[4] for r in retained]
