import copy
import dataclasses
import pickle
import random
import sys

import pytest

from rwslice import bundled_example_path
from rwslice.builtin_ops import REGISTRY, BuiltinOp
from rwslice.engine import InstrumentedTrace, Rule, run
from rwslice.report import SliceReport
from rwslice.slicer import trace_slice
from rwslice.terms import (
    BULLET,
    HOLE,
    HOLE_TERM,
    OpDecl,
    Position,
    PositionOutOfRange,
    Signature,
    SignatureError,
    Substitution,
    Symbol,
    Term,
    Variable,
    match,
    positions,
    pretty,
    replace_at,
    subterm_at,
    term_cmp,
)
from rwslice.theoryfile import parse_term, parse_theory

from genutil import random_ground_term


def P(text):
    return Position.parse(text)


@pytest.fixture
def sig():
    s = Signature()
    for name, arity in [
        ("f", 2), ("g", 2), ("d", 2), ("s", 1), ("h", 1),
        ("a", 0), ("b", 0), ("c", 0), ("j", 1),
    ]:
        s.declare(name, arity)
    return s


def test_position_orders():
    root = Position()
    assert str(root) == "^"
    assert root.is_prefix_of(P("1.2")) and root <= P("1.2")
    assert P("1").is_prefix_of(P("1.2"))
    assert not P("1.2").is_prefix_of(P("1"))
    assert not P("2").is_prefix_of(P("1.2"))
    # lexicographic: shorter prefixes first, then left to right
    assert P("1") < P("1.1") < P("2.1") < P("2.2")
    assert list(P("1.2").prefixes()) == [root, P("1"), P("1.2")]
    assert Position.parse("^") == root
    with pytest.raises(ValueError):
        Position.parse("1..2")


def test_positions_of_context():
    a = Symbol("a", 0)
    g = Symbol("g", 2)
    f = Symbol("f", 2)
    t = Term(f, (Term(g, (Term(a), Term(a))), HOLE_TERM))
    assert set(positions(t)) == {P("^"), P("1"), P("1.1"), P("1.2")}


def test_positions_constant():
    assert positions(Term(Symbol("a", 0))) == [Position()]


def test_positions_nested(sig):
    t = parse_term("d(f(g(a,h(b)),a),a)", sig)
    expected = {"^", "1", "1.1", "1.1.1", "1.1.2", "1.1.2.1", "1.2", "2"}
    assert {str(p) for p in positions(t)} == expected


def test_positions_are_preorder_without_recursion(sig):
    t = parse_term("d(f(g(a,h(b)),a),a)", sig)
    assert [str(p) for p in positions(t)] == ["^", "1", "1.1", "1.1.1", "1.1.2", "1.1.2.1", "1.2", "2"]
    t = Term(Symbol("f", 2), (HOLE_TERM, parse_term("h(a)", sig)))
    assert [str(p) for p in positions(t)] == ["^", "2", "2.1"]
    # h(s^depth(z)), deeper than the recursion limit; its positions hold
    # depth^2/2 path indices (about 400 MB at a depth of 10,000)
    depth = 2_000
    assert sys.getrecursionlimit() < depth
    deep = Term(Symbol("z", 0))
    for _ in range(depth):
        deep = Term(Symbol("s", 1), (deep,))
    found = positions(Term(Symbol("h", 1), (deep,)))
    assert len(found) == depth + 2 and found[-1].path == (1,) * (depth + 1)


def test_subterm_at(sig):
    t = parse_term("d(f(g(a,h(b)),a),a)", sig)
    assert subterm_at(t, P("1.1.2")) == parse_term("h(b)", sig)
    assert subterm_at(t, Position()) == t
    with pytest.raises(PositionOutOfRange):
        subterm_at(parse_term("f(a,b)", sig), P("3"))


def test_replace_at(sig):
    assert replace_at(parse_term("f(a,b)", sig), P("2"), parse_term("c", sig)) == parse_term(
        "f(a,c)", sig
    )
    t = parse_term("d(f(g(a,h(b)),a),a)", sig)
    assert replace_at(t, Position(), parse_term("c", sig)) == parse_term("c", sig)
    contractum = parse_term("d(s(h(b)),h(b))", sig)
    assert replace_at(t, P("1"), contractum) == parse_term("d(d(s(h(b)),h(b)),a)", sig)
    # a bad position fails as subterm_at fails there, with the same message
    context = replace_at(t, P("1.1.2"), HOLE_TERM)
    for term, bad in ((t, "3"), (t, "0"), (t, "1.1.2.1.1"), (context, "1.1.2")):
        with pytest.raises(PositionOutOfRange) as expected:
            subterm_at(term, P(bad))
        with pytest.raises(PositionOutOfRange) as got:
            replace_at(term, P(bad), contractum)
        assert str(got.value) == str(expected.value)


def test_match_examples(sig):
    pat = parse_term("f(g(x,y),a)", sig, {"x", "y"})
    subj = parse_term("f(g(a,h(b)),a)", sig)
    m = match(pat, subj)
    assert m is not None
    assert m.get(Variable("x")) == parse_term("a", sig)
    assert m.get(Variable("y")) == parse_term("h(b)", sig)

    t = parse_term("d(a,b)", sig)
    m2 = match(Term(Variable("x")), t)
    assert m2 is not None and m2.get(Variable("x")) == t

    nonlinear = parse_term("f(x,y,x)", None, {"x", "y"})
    assert match(nonlinear, parse_term("f(a,b,b)", None)) is None
    assert match(nonlinear, parse_term("f(a,b,a)", None)) is not None


def test_substitution_apply_and_identity_drop():
    x, y = Variable("x"), Variable("y")
    a = Term(Symbol("a", 0))
    sub = Substitution({x: a, y: Term(y)})
    assert sub.domain() == [x]
    g = Symbol("g", 2)
    assert sub.apply(Term(g, (Term(x), Term(y)))) == Term(g, (a, Term(y)))


def test_replace_subterm_roundtrip_random(sig):
    rng = random.Random(7)
    for _ in range(200):
        t = random_ground_term(rng, sig, 3)
        for u in positions(t):
            assert replace_at(t, u, subterm_at(t, u)) == t


def test_match_after_instantiation_random(sig):
    rng = random.Random(8)
    x, y = Variable("x"), Variable("y")
    pat = parse_term("d(f(x,b),y)", sig, {"x", "y"})
    for _ in range(100):
        sub = Substitution({x: random_ground_term(rng, sig, 2), y: random_ground_term(rng, sig, 2)})
        instance = sub.apply(pat)
        found = match(pat, instance)
        assert found is not None
        for v in (x, y):
            assert found.get(v) == sub.get(v)


def test_arity_validation():
    with pytest.raises(ValueError):
        Term(Symbol("f", 2), (Term(Symbol("a", 0)),))
    # variadic use of a binary symbol is allowed (flattened AC form)
    Term(Symbol("f", 2), tuple(Term(Symbol("a", 0)) for _ in range(3)))
    with pytest.raises(ValueError):
        Term(Variable("x"), (Term(Symbol("a", 0)),))


def test_term_constructor_errors_read_as_before():
    """The slotted constructor makes the checks, in the order and with the
    messages, of the dataclass it replaced."""
    a = Term(Symbol("a", 0))
    with pytest.raises(ValueError, match=r"^f declared with arity 2, got 1 arguments$"):
        Term(Symbol("f", 2), (a,))
    with pytest.raises(ValueError, match=r"^h declared with arity 1, got 2 arguments$"):
        Term(Symbol("h", 1), (a, a))
    with pytest.raises(ValueError, match=r"^a declared with arity 0, got 1 arguments$"):
        Term(Symbol("a", 0), (a,))
    Term(Symbol("f", 2), tuple(a for _ in range(3)))  # a flattened AC node
    with pytest.raises(ValueError, match=r"^variables take no arguments$"):
        Term(Variable("x"), (a,))
    for leaf in (HOLE, BULLET):
        with pytest.raises(ValueError, match=rf"^{leaf.name} is a leaf symbol$"):
            Term(leaf, (a,))
    # a leaf symbol's check comes before the arity's, keyword arguments read as before
    with pytest.raises(ValueError, match=r"is a leaf symbol$"):
        Term(Symbol("•", 2, "bullet"), (a, a))
    assert Term(root=Symbol("h", 1), args=(a,)) == Term(Symbol("h", 1), (a,))
    assert Term(Variable("x")).args == () and Term(HOLE) == HOLE_TERM


def test_terms_are_slotted_and_immutable(sig):
    """A term has no `__dict__`, and its two fields cannot be assigned or
    deleted, nor can other attributes be added."""
    t = parse_term("f(a,h(b))", sig)
    root, args = t.root, t.args
    assert not hasattr(t, "__dict__") and Term.__slots__ == ("root", "args")
    for name in ("root", "args", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(t, name, root)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(t, name)
    assert t.root is root and t.args is args and pretty(t) == "f(a,h(b))"
    assert repr(t) == "Term<f(a,h(b))>" and hash(t) == hash(parse_term("f(a,h(b))", sig))


def test_records_act_as_frozen_dataclasses():
    """The value and record classes keep the behaviour of the dataclasses
    they were written as: built positionally or by keyword, with their
    defaults; equal field by field, and to no other class; printed as
    `Name(field=value, ...)`; hashed as the tuple of their fields; and,
    but for the mutable, unhashable SliceReport, refusing assignment and
    deletion with the dataclass error; values copy and pickle."""
    th = parse_theory(bundled_example_path("producer_consumer.rwt").read_text(), name="pc")
    trace = run(parse_term("cfg(tok,prod(0),cons(0,0))", th.signature), th, 1)
    rule, plus = th.rules[0], REGISTRY["+"]
    cases = {
        Position: {"path": (1, 2)},
        Symbol: {"name": "f", "arity": 2, "kind": "defined"},
        Variable: {"name": "X"},
        OpDecl: {"symbol": Symbol("f", 2), "assoc": True, "comm": True, "builtin": False, "sort": "Nat"},
        BuiltinOp: {"name": "+", "arity": 2, "func": plus.func},
        Rule: {"name": rule.name, "lhs": rule.lhs, "rhs": rule.rhs, "kind": "rule"},
        InstrumentedTrace: {"theory": th, "initial": trace.initial, "steps": trace.steps},
    }
    for cls, fields in cases.items():
        x, y = cls(*fields.values()), cls(**fields)
        assert x == y and x is not y and not x != y
        assert x.__eq__(object()) is NotImplemented and x != object()
        assert hash(x) == hash(y) == hash(tuple(fields.values())) and len({x, y}) == 1
        assert repr(x) == cls.__name__ + "(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
        for name in list(fields) + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(x, name)
        assert x == y and all(getattr(x, k) is v for k, v in fields.items())
    assert Position() == Position(()) == Position(path=()) and Symbol("f", 2) == Symbol("f", 2, "constructor")
    assert OpDecl(Symbol("f", 2)) == OpDecl(Symbol("f", 2), False, False, False, None)
    assert Rule(rule.name, rule.lhs, rule.rhs).kind == "rule" and InstrumentedTrace(th, trace.initial).steps == ()
    assert Position((1,)) < Position((1, 2)) <= Position((1, 2)) < Position((2,)) and Position((2,)) >= Position((1, 3)) > Position(())
    assert Symbol("X", 0) != Variable("X") and Position((1,)) != (1,)
    with pytest.raises(TypeError):
        Position((1,)) < (2,)
    assert BuiltinOp("+", 2, plus.func) == plus
    for value in (Position((1, 2)), Symbol("f", 2), Variable("X"), OpDecl(Symbol("f", 2)), plus):
        assert copy.copy(value) == copy.deepcopy(value) == value
        assert value is plus or pickle.loads(pickle.dumps(value)) == value
    # a copy of a trace is a trace whose fields can be set past the refusal
    copied = copy.copy(trace)
    assert copied == trace and copied is not trace and copied.steps is trace.steps
    object.__setattr__(copied, "steps", ())
    assert copied.steps == () and copied != trace and len(trace.steps) > 0
    ts = trace_slice(trace, [Position()])
    report = SliceReport(ts, theory_name="pc", seed=3)
    assert report == SliceReport(ts, "pc", 3) != SliceReport(ts, "pc") and SliceReport(ts).seed == 0
    assert repr(report) == f"SliceReport(slice={ts!r}, theory_name='pc', seed=3)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    report.seed = 4
    del report.theory_name
    assert report.seed == 4 and "theory_name" not in vars(report)


def test_pretty_is_canonical(sig):
    t = parse_term("d(f(g(a,h(b)),a),a)", sig)
    assert pretty(t) == "d(f(g(a,h(b)),a),a)"
    assert pretty(parse_term(pretty(t), sig)) == pretty(t)


def test_term_cmp_is_the_key_order(sig):
    def key(t):
        """The order as a sort key, built whole: the reference."""
        if isinstance(t.root, Variable):
            return (t.root.name, 0)
        return (t.root.name, 1, len(t.args), tuple(key(a) for a in t.args))

    rng = random.Random(9)
    a, b, c = (Term(Symbol(n, 0)) for n in "abc")
    # a flattened f/2 node and an f/3 node are equal in the order
    flat_f, f3 = Term(Symbol("f", 2), (a, b, c)), Term(Symbol("f", 3), (a, b, c))
    terms = [random_ground_term(rng, sig, 3) for _ in range(60)] + [
        Term(Variable("a")), Term(Variable("f")), flat_f, f3,
        Term(Symbol("d", 2), (flat_f, a)), Term(Symbol("d", 2), (f3, b)),
    ]
    for s in terms:
        for t in terms:
            ks, kt = key(s), key(t)
            assert term_cmp(s, t) == (ks > kt) - (ks < kt), (pretty(s), pretty(t))


def _same_tree(s, t):
    """Structural equality by recursion: the same root and pairwise equal
    arguments."""
    return s.root == t.root and len(s.args) == len(t.args) and all(map(_same_tree, s.args, t.args))


def test_term_eq_is_equality_without_recursion(sig):
    """`Term.__eq__` is structural equality (`_same_tree`), decided on an
    explicit stack; a non-term is left to its own comparison."""
    rng = random.Random(10)
    a, b = Term(Symbol("a", 0)), Term(Symbol("b", 0))
    f3 = Term(Symbol("f", 3), (a, b, a))
    terms = [random_ground_term(rng, sig, 3) for _ in range(60)] + [
        Term(Variable("a")), a, f3, Term(Symbol("f", 2), (a, b, a)), Term(Symbol("f", 2), (a, b)),
    ]
    for s in terms:
        for t in terms:
            assert (s == t) == _same_tree(s, t) == (not s != t), (pretty(s), pretty(t))
    assert a.__eq__("a") is NotImplemented and a != "a" and not a == None  # noqa: E711
    # chains of depth 10^4, built apart so that no subterm is shared
    chains = []
    for leaf in (a, a, b):
        for _ in range(10_000):
            leaf = Term(Symbol("s", 1), (leaf,))
        chains.append(leaf)
    assert chains[0] == chains[1] and chains[0] != chains[2]
    x = Variable("X")
    assert Substitution({x: chains[0]}) == Substitution({x: chains[1]}) != Substitution({x: chains[2]})
    assert Substitution({x: a}) != {x: a}


def test_term_hash_agrees_with_equality_without_recursion(sig):
    rng = random.Random(11)
    terms = [random_ground_term(rng, sig, 3) for _ in range(80)]
    rebuilt = [parse_term(pretty(t), sig) for t in terms]  # equal, built apart
    for s, t in zip(terms, rebuilt):
        assert s == t and s is not t and hash(s) == hash(t)
    assert len({hash(t) for t in terms}) >= len(set(terms)) - 2
    # chains of depth 10^4 built apart, whose generated hash would recurse
    chains = []
    for _ in range(2):
        leaf = Term(Symbol("z", 0))
        for _ in range(10_000):
            leaf = Term(Symbol("s", 1), (leaf,))
        chains.append(leaf)
    assert hash(chains[0]) == hash(chains[1]) and hash(chains[0]) != hash(chains[0].args[0])
    assert hash(Substitution({Variable("X"): chains[0]})) == hash(Substitution({Variable("X"): chains[1]}))


@pytest.mark.parametrize("first, second", [(2, 3), (3, 2), (2, 5), (5, 2)])
def test_declare_rejects_an_ac_operator_beside_a_wider_one(first, second):
    """A flattened AC f/2 node over n arguments would tie with an f/n node
    in the term order, and print as one, so the two are never declared
    together, in either order."""
    sig = Signature()
    sig.declare("f", first, assoc=first == 2, comm=first == 2)
    with pytest.raises(SignatureError, match=r"an AC f/2 cannot be declared beside an f/n with n > 2"):
        sig.declare("f", second, assoc=second == 2, comm=second == 2)
    # other arities, or a binary f that is not AC, are fine
    sig = Signature()
    for arity in (0, 1, 2, 3):
        sig.declare("f", arity)
    sig = Signature()
    sig.declare("f", 2, assoc=True, comm=True)
    sig.declare("f", 1)
    sig.declare("g", 3)
