"""Core term structures: symbols, positions, terms, substitutions, matching.

Every value here is immutable; operations build new terms. Argument
positions are 1-based access paths and the empty path addresses the root.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from functools import total_ordering

_setattr = object.__setattr__  # sets a field past `_Record.__setattr__`


class RwsliceError(Exception):
    """An input that rwslice rejects; any other exception it raises is a defect."""


class PositionOutOfRange(RwsliceError):
    """A position does not address a node of the given term."""


class _Record:
    """Base of the immutable values and records: each compares, hashes and
    prints by the tuple of its `_fields`, as a frozen dataclass does, and
    refuses assignment and deletion. `__init__` takes the fields in order."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"

    def __reduce__(self):  # copies and pickles are built by the constructor, past `__setattr__`
        return type(self), self._values()


@total_ordering
class Position(_Record):
    """Access path in a term, a slotted immutable value. Its order, tuple
    order on paths, is the lexicographic order on positions; the prefix
    order is a separate, partial relation (`is_prefix_of`)."""

    __slots__ = _fields = ("path",)

    def __init__(self, path: tuple[int, ...] = ()):
        _setattr(self, "path", path)

    def __eq__(self, other) -> bool:
        return self is other or (self.path == other.path if other.__class__ is Position else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.path,))

    def __lt__(self, other) -> bool:
        return self.path < other.path if other.__class__ is Position else NotImplemented

    def child(self, i: int) -> "Position":
        return Position(self.path + (i,))

    def concat(self, other: "Position") -> "Position":
        return Position(self.path + other.path)

    def is_prefix_of(self, other: "Position") -> bool:
        return other.path[: len(self.path)] == self.path

    def prefixes(self):
        """Every prefix from the root down to this position, inclusive."""
        for i in range(len(self.path) + 1):
            yield Position(self.path[:i])

    @staticmethod
    def parse(text: str) -> "Position":
        text = text.strip()
        if text in ("^", ""):
            return Position()
        if not re.fullmatch(r"\d+(\.\d+)*", text):
            raise ValueError(f"malformed position {text!r}")
        return Position(tuple(int(part) for part in text.split(".")))

    def __str__(self) -> str:
        return ".".join(str(i) for i in self.path) if self.path else "^"


ROOT = Position()


class Symbol(_Record):
    """Operator symbol, a slotted immutable value; kind distinguishes the two reserved
    leaf symbols (context hole, slice bullet) and builtin operators from ordinary ones."""

    __slots__ = _fields = ("name", "arity", "kind")

    def __init__(self, name: str, arity: int, kind: str = "constructor"):  # constructor | defined | builtin | hole | bullet
        super().__init__(name, arity, kind)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Symbol:
            return NotImplemented
        return self is other or self.name == other.name and self.arity == other.arity and self.kind == other.kind

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.kind))


class Variable(_Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)

    def __eq__(self, other) -> bool:
        return self is other or (self.name == other.name if other.__class__ is Variable else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.name,))


HOLE = Symbol("□", 0, "hole")
BULLET = Symbol("•", 0, "bullet")


class Term(_Record):
    """Ordered tree of symbols and variables, immutable: a slotted class
    whose attributes cannot be assigned or deleted once built.

    Arity is enforced loosely: a binary operator may carry more than two
    arguments (the flattened form used for assoc-comm operators); the
    signature check is the authoritative validation.
    """

    __slots__ = _fields = ("root", "args")

    def __init__(self, root: Symbol | Variable, args: tuple["Term", ...] = ()):
        if isinstance(root, Variable):
            if args:
                raise ValueError("variables take no arguments")
        elif root.kind in ("hole", "bullet") and args:
            raise ValueError(f"{root.name} is a leaf symbol")
        elif len(args) != root.arity and not (root.arity == 2 and len(args) > 2):
            raise ValueError(f"{root.name} declared with arity {root.arity}, got {len(args)} arguments")
        _set_root(self, root)
        _set_args(self, args)

    def __eq__(self, other) -> bool:
        """The same tree, compared pair by pair from an explicit worklist,
        not by recursion; a subterm the two share is not walked."""
        if not isinstance(other, Term):
            return NotImplemented
        pairs = [(self, other)]
        for x, y in pairs:  # the list grows as it is read
            if x is not y:
                if not (x.root is y.root or x.root == y.root) or len(x.args) != len(y.args):
                    return False
                if x.args:  # extending by an empty zip costs more than the test
                    pairs += zip(x.args, y.args)
        return True

    def __hash__(self) -> int:
        """The hash of the preorder sequence of (root, argument count), which
        equal terms share, made on an explicit stack, not by recursion."""
        seq, stack = [], [self]
        while stack:
            node = stack.pop()
            seq.append((node.root, len(node.args)))
            stack += reversed(node.args)
        return hash(tuple(seq))

    def __repr__(self) -> str:
        return f"Term<{pretty(self)}>"


# the slots' own setters, which `Term.__init__` calls past `_Record.__setattr__`
_set_root, _set_args = Term.root.__set__, Term.args.__set__


HOLE_TERM = Term(HOLE)
BULLET_TERM = Term(BULLET)


def is_hole(t: Term) -> bool:
    return isinstance(t.root, Symbol) and t.root.kind == "hole"


def is_bullet(t: Term) -> bool:
    return isinstance(t.root, Symbol) and t.root.kind == "bullet"


def positions(t: Term) -> list[Position]:
    """All positions of t in preorder (ascending lexicographic) order.

    Hole positions are excluded, so for a context this is exactly the set
    of positions carrying a real symbol or variable.
    """
    return [Position(path) for path, node in preorder(t) if not is_hole(node)]


def preorder(t: Term):
    """Each node of t with its argument path, as (path, node) pairs in
    preorder, from an explicit stack, not recursion."""
    stack = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if node.args:
            stack.extend((path + (i,), node.args[i - 1]) for i in range(len(node.args), 0, -1))


def subterm_at(t: Term, u: Position) -> Term:
    node = t
    for i in u.path:
        if not 1 <= i <= len(node.args):
            raise PositionOutOfRange(f"no position {u} in {pretty(t)}")
        node = node.args[i - 1]
    if is_hole(node):
        raise PositionOutOfRange(f"position {u} of {pretty(t)} is a hole")
    return node


def replace_at(t: Term, u: Position, r: Term) -> Term:
    """The term t with the subtree at u replaced by r. Only the nodes on
    the path to u are rebuilt, without recursion; the rest is shared. The
    walk down checks the path as `subterm_at` does."""
    ancestors = [t]
    for i in u.path:
        if not 1 <= i <= len(ancestors[-1].args):
            raise PositionOutOfRange(f"no position {u} in {pretty(t)}")
        ancestors.append(ancestors[-1].args[i - 1])
    if is_hole(ancestors.pop()):
        raise PositionOutOfRange(f"position {u} of {pretty(t)} is a hole")
    for parent, i in zip(reversed(ancestors), reversed(u.path)):
        r = Term(parent.root, parent.args[: i - 1] + (r,) + parent.args[i:])
    return r


def vars_of(t: Term) -> list[Variable]:
    """Variables of t in order of first occurrence."""
    seen: list[Variable] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node.root, Variable):
            if node.root not in seen:
                seen.append(node.root)
        stack.extend(reversed(node.args))
    return seen


def is_ground(t: Term) -> bool:
    return not vars_of(t)


def term_cmp(a: Term, b: Term) -> int:
    """Total order on the terms of one signature (`Signature.declare`),
    negative, zero or positive like a comparison: root name, then node
    class (variables first), then number of arguments, then arguments left
    to right. Decided at the first difference, so most comparisons look at
    the roots only. The walk goes down each first argument at once and
    keeps an iterator over the remaining argument pairs of each open node,
    not recursion."""
    rest = []
    while True:
        if a is not b:
            ra, rb = a.root, b.root
            if ra.name != rb.name:
                return -1 if ra.name < rb.name else 1
            ka, kb = (isinstance(ra, Symbol), len(a.args)), (isinstance(rb, Symbol), len(b.args))
            if ka != kb:
                return -1 if ka < kb else 1
            if a.args:
                pairs = zip(a.args, b.args)
                a, b = next(pairs)
                rest.append(pairs)
                continue
        while rest:
            pair = next(rest[-1], None)
            if pair is not None:
                a, b = pair
                break
            rest.pop()
        else:
            return 0


class Substitution:
    """Finite mapping from variables to terms, applied simultaneously."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: dict[Variable, Term] | None = None):
        items: dict[Variable, Term] = {}
        for v, t in (bindings or {}).items():
            if not (isinstance(t.root, Variable) and t.root == v):
                items[v] = t
        self._bindings = items

    def domain(self) -> list[Variable]:
        return list(self._bindings)

    def get(self, v: Variable) -> Term | None:
        return self._bindings.get(v)

    def items(self):
        return self._bindings.items()

    def apply(self, t: Term) -> Term:
        if isinstance(t.root, Variable):
            return self._bindings.get(t.root, t)
        if not t.args:
            return t
        return Term(t.root, tuple(self.apply(a) for a in t.args))

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}/{pretty(t)}" for v, t in sorted(self._bindings.items(), key=lambda kv: kv[0].name))
        return "{" + inner + "}"


EMPTY_SUBST = Substitution()


def match(pattern: Term, subject: Term) -> Substitution | None:
    """Syntactic matcher: the unique substitution with pattern*s = subject,
    or None. Repeated pattern variables must bind syntactically equal
    subterms, and the opaque leaf `•` matches any subterm. The walk uses an
    explicit stack, not recursion."""
    bindings: dict[Variable, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        root = p.root
        if isinstance(root, Variable):
            seen = bindings.setdefault(root, s)
            if seen is not s and seen != s:
                return None
        elif root.kind != "bullet":
            if root != s.root or len(p.args) != len(s.args):
                return None
            stack.extend(zip(p.args, s.args))
    return Substitution(bindings)


def pretty(t: Term) -> str:
    """Canonical printing: no whitespace, arguments comma-separated."""
    if not t.args:
        return t.root.name
    parts = [t.root.name, "("]
    # the argument iterators of the open nodes; every printed argument is
    # followed by a comma, and a node's last comma becomes its ")"
    stack = [iter(t.args)]
    while stack:
        for a in stack[-1]:
            if a.args:
                parts += (a.root.name, "(")
                stack.append(iter(a.args))
                break
            parts += (a.root.name, ",")
        else:
            stack.pop()
            parts[-1] = ")"
            if stack:
                parts.append(",")
    return "".join(parts)


def printed_length(t: Term, memo: dict[int, int]) -> int:
    """len(pretty(t)) without printing. A node with arguments prints as its
    name, two parentheses, its arguments and a comma between two. `memo`
    maps id(node) to the length of each node with arguments measured so
    far, so a subterm shared by later calls is measured once; the caller
    keeps those nodes alive while it uses the memo, so no id is reused.
    The walk uses an explicit stack, not recursion."""
    if not t.args:
        return len(t.root.name)
    known = memo.get(id(t))
    if known is not None:
        return known
    todo, stack = [], [t]
    while stack:
        node = stack.pop()
        todo.append(node)
        stack += [a for a in node.args if a.args and id(a) not in memo]
    for node in reversed(todo):  # reversed preorder: children first
        size = len(node.root.name) + len(node.args) + 1
        for a in node.args:
            size += memo[id(a)] if a.args else len(a.root.name)
        memo[id(node)] = size
    return memo[id(t)]


_NUMERAL_RE = re.compile(r"-?\d+")


def is_numeral_name(name: str) -> bool:
    return bool(_NUMERAL_RE.fullmatch(name))


def int_term(n: int) -> Term:
    return Term(Symbol(str(n), 0))


def term_int(t: Term) -> int | None:
    if isinstance(t.root, Symbol) and not t.args and is_numeral_name(t.root.name):
        return int(t.root.name)
    return None


TRUE = Term(Symbol("true", 0))
FALSE = Term(Symbol("false", 0))


def bool_term(b: bool) -> Term:
    return TRUE if b else FALSE


def term_bool(t: Term) -> bool | None:
    if t == TRUE:
        return True
    if t == FALSE:
        return False
    return None


class SignatureError(RwsliceError):
    pass


class OpDecl(_Record):
    _fields = ("symbol", "assoc", "comm", "builtin", "sort")  # sort: display only, never checked

    def __init__(self, symbol: Symbol, assoc: bool = False, comm: bool = False, builtin: bool = False, sort: str | None = None):
        super().__init__(symbol, assoc, comm, builtin, sort)

    @property
    def ac(self) -> bool:
        return self.assoc and self.comm


class Signature:
    """Operator declarations keyed by name and arity; `ac_symbols` holds the
    symbols declared AC."""

    def __init__(self):
        self._ops: dict[tuple[str, int], OpDecl] = {}
        self.ac_symbols: set[Symbol] = set()

    def declare(
        self,
        name: str,
        arity: int,
        *,
        assoc: bool = False,
        comm: bool = False,
        builtin: bool = False,
        sort: str | None = None,
    ) -> Symbol:
        if not name:
            raise SignatureError("operator name must be nonempty")
        if name in (HOLE.name, BULLET.name):
            raise SignatureError(f"{name} is reserved")
        if is_numeral_name(name) or name in ("true", "false"):
            raise SignatureError(f"{name} is an implicit constant")
        if (name, arity) in self._ops:
            raise SignatureError(f"duplicate declaration of {name}/{arity}")
        if (assoc or comm) and not (assoc and comm):
            raise SignatureError(f"{name}: assoc and comm are only supported together")
        if assoc and comm and arity != 2:
            raise SignatureError(f"{name}: AC attributes require a binary operator")
        if builtin and (assoc or comm):
            raise SignatureError(f"{name}: builtin operators cannot be AC")
        if assoc and comm and any(n == name and k > 2 for n, k in self._ops) or arity > 2 and self.is_ac(Symbol(name, 2)):
            # a flattened f node over n arguments would tie with, and print as, an f/n node
            raise SignatureError(f"{name}: an AC {name}/2 cannot be declared beside an {name}/n with n > 2")
        sym = Symbol(name, arity, "builtin" if builtin else "constructor")
        self._ops[(name, arity)] = OpDecl(sym, assoc, comm, builtin, sort)
        if assoc and comm:
            self.ac_symbols.add(sym)
        return sym

    def lookup(self, name: str, arity: int) -> OpDecl | None:
        decl = self._ops.get((name, arity))
        if decl is None and arity > 2:
            # flattened AC nodes carry extra arguments over a binary symbol
            cand = self._ops.get((name, 2))
            if cand is not None and cand.ac:
                return cand
        return decl

    def decl_for(self, sym: Symbol) -> OpDecl | None:
        return self._ops.get((sym.name, sym.arity))

    def is_ac(self, sym) -> bool:
        if not isinstance(sym, Symbol):
            return False
        decl = self.decl_for(sym)
        return decl is not None and decl.ac

    def is_builtin(self, sym) -> bool:
        if not isinstance(sym, Symbol):
            return False
        decl = self.decl_for(sym)
        return decl is not None and decl.builtin

    def ops(self) -> list[OpDecl]:
        return list(self._ops.values())
