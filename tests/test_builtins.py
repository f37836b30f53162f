import random

import pytest

from rwslice.builtin_ops import REGISTRY, BuiltinOp, eval_builtin, register
from rwslice.terms import FALSE, TRUE, Symbol, Term, Variable, bool_term, int_term, pretty


def num(n):
    return int_term(n)


def test_addition_example():
    assert eval_builtin(REGISTRY["+"], [num(7), num(8)]) == num(15)


def test_additive_identity():
    for n in (0, 1, 42, -3):
        assert eval_builtin(REGISTRY["+"], [num(0), num(n)]) == num(n)


def test_if_then_else_against_truth_table():
    a = Term(Symbol("a", 0))
    b = Term(Symbol("b", 0))
    ite = REGISTRY["ite"]
    for cond, expected in ((TRUE, a), (FALSE, b)):
        assert eval_builtin(ite, [cond, a, b]) == expected
    assert eval_builtin(ite, [a, a, b]) is None  # condition not boolean
    assert eval_builtin(ite, [TRUE, Term(Variable("X")), b]) is None  # not ground


def test_registry_refuses_a_name_twice_and_calls_off_their_domain_stay():
    plus = REGISTRY["+"]
    with pytest.raises(ValueError, match="builtin \\+ already registered"):
        register(BuiltinOp("+", 2, plus.func))
    assert REGISTRY["+"] is plus
    assert eval_builtin(REGISTRY["and"], [num(1), TRUE]) is None
    assert eval_builtin(REGISTRY["<"], [TRUE, num(1)]) is None
    assert eval_builtin(REGISTRY["and"], [TRUE, TRUE]) == TRUE


def test_arithmetic_matches_python_semantics():
    rng = random.Random(3)
    table = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
    }
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        for name, fn in table.items():
            assert eval_builtin(REGISTRY[name], [num(a), num(b)]) == num(fn(a, b))


def test_comparisons_match_python_semantics():
    rng = random.Random(4)
    table = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        "==": lambda a, b: a == b,
    }
    for _ in range(200):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        for name, fn in table.items():
            assert eval_builtin(REGISTRY[name], [num(a), num(b)]) == bool_term(fn(a, b))


def test_boolean_connectives():
    for x in (True, False):
        assert eval_builtin(REGISTRY["not"], [bool_term(x)]) == bool_term(not x)
        for y in (True, False):
            assert eval_builtin(REGISTRY["and"], [bool_term(x), bool_term(y)]) == bool_term(x and y)
            assert eval_builtin(REGISTRY["or"], [bool_term(x), bool_term(y)]) == bool_term(x or y)


def test_not_applicable_cases():
    a = Term(Symbol("a", 0))
    assert eval_builtin(REGISTRY["+"], [a, num(1)]) is None
    assert eval_builtin(REGISTRY["+"], [num(1)]) is None  # wrong arity
    assert eval_builtin(REGISTRY["and"], [num(1), num(0)]) is None


def test_eval_is_deterministic():
    args = [num(3), num(4)]
    results = {pretty(eval_builtin(REGISTRY["+"], args)) for _ in range(10)}
    assert results == {"7"}
