"""Ground evaluation of predefined operators.

Numerals and the boolean constants are constructor constants of the term
language; a builtin call evaluates only when every argument is ground and
of the expected shape, otherwise the call is left intact.
"""

from __future__ import annotations

from collections.abc import Callable

from .terms import Term, _Record, bool_term, int_term, is_ground, term_bool, term_int


class BuiltinOp(_Record):
    _fields = ("name", "arity", "func")

    def __init__(self, name: str, arity: int, func: Callable[[tuple[Term, ...]], Term | None]):
        super().__init__(name, arity, func)


def eval_builtin(op: BuiltinOp, args: list[Term] | tuple[Term, ...]) -> Term | None:
    """Value of the call, or None when the arguments are not in the
    operator's domain (the call stays as it is). Arithmetic failures raised
    by an operator (e.g. division by zero in an extension) propagate."""
    args = tuple(args)
    if len(args) != op.arity:
        return None
    return op.func(args)


def _int2(f):
    def run(args):
        a, b = term_int(args[0]), term_int(args[1])
        if a is None or b is None:
            return None
        return int_term(f(a, b))

    return run


def _cmp2(f):
    def run(args):
        a, b = term_int(args[0]), term_int(args[1])
        if a is None or b is None:
            return None
        return bool_term(f(a, b))

    return run


def _bool2(f):
    def run(args):
        a, b = term_bool(args[0]), term_bool(args[1])
        if a is None or b is None:
            return None
        return bool_term(f(a, b))

    return run


def _not(args):
    a = term_bool(args[0])
    return None if a is None else bool_term(not a)


def _ite(args):
    cond = term_bool(args[0])
    if cond is None or not all(is_ground(a) for a in args[1:]):
        return None
    return args[1] if cond else args[2]


REGISTRY: dict[str, BuiltinOp] = {}


def register(op: BuiltinOp) -> BuiltinOp:
    if op.name in REGISTRY:
        raise ValueError(f"builtin {op.name} already registered")
    REGISTRY[op.name] = op
    return op


for _op in (
    BuiltinOp("+", 2, _int2(lambda a, b: a + b)),
    BuiltinOp("-", 2, _int2(lambda a, b: a - b)),
    BuiltinOp("*", 2, _int2(lambda a, b: a * b)),
    BuiltinOp("<", 2, _cmp2(lambda a, b: a < b)),
    BuiltinOp("<=", 2, _cmp2(lambda a, b: a <= b)),
    BuiltinOp("==", 2, _cmp2(lambda a, b: a == b)),
    BuiltinOp("and", 2, _bool2(lambda a, b: a and b)),
    BuiltinOp("or", 2, _bool2(lambda a, b: a or b)),
    BuiltinOp("not", 1, _not),
    BuiltinOp("ite", 3, _ite),
):
    register(_op)
