"""Textual theory format.

    op f : 2 [assoc comm] .
    op a : 0 .
    op + : 2 [builtin] .
    var x y .
    eq g(g(X)) = g(X) .
    rl [r1] : f(X) => b .

Operators must be declared before use. Identifiers starting with an
uppercase letter are variables without declaration; a `var` line forces
other names to be variables as well. Numerals and true/false are implicit
constants. Comments run from `---` to the end of the line. A token is one
of `()[],.` or a maximal run of other non-whitespace characters.
"""

from __future__ import annotations

import bisect
import re

from .engine import RewriteTheory, Rule
from .terms import (
    BULLET_TERM,
    RwsliceError,
    Signature,
    SignatureError,
    Symbol,
    Term,
    Variable,
    is_numeral_name,
    pretty,
    vars_of,
)


class TheorySyntaxError(RwsliceError):
    def __init__(self, message: str, line: int = 0, col: int = 0, text: str = ""):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.message, self.line, self.col, self.text = message, line, col, text  # text: what was read


class UnknownSymbolError(TheorySyntaxError):
    pass


class ArityMismatchError(TheorySyntaxError):
    pass


_PUNCT = frozenset("()[],.")
_TOKEN_RE = re.compile(r"[()\[\],.]|[^\s()\[\],.]+")


def _code_lines(text: str) -> list[str]:
    """The lines of text (as `splitlines` splits them), each cut at `---`."""
    return [line.partition("---")[0] for line in text.splitlines()]


class _Cursor:
    """The tokens of a text, as plain strings. Only a token named in an
    error is located, from its index, by scanning its line again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        self.ends = [0]  # ends[k]: tokens on the first k lines
        for line in _code_lines(text):
            self.tokens += _TOKEN_RE.findall(line)
            self.ends.append(len(self.tokens))
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of input", len(self.tokens) - 1)
        tok = self.tokens[self.i]
        if expect is not None and tok != expect:
            raise self.error(f"expected {expect!r}, found {tok!r}", self.i)
        self.i += 1
        return tok

    def error(self, message: str, i: int, cls: type[TheorySyntaxError] = TheorySyntaxError) -> TheorySyntaxError:
        """cls(message) at the line and column of token i (1:1 if none)."""
        if i < 0:
            return cls(message, 1, 1, self.text)
        k = bisect.bisect_right(self.ends, i)  # token i is on line k
        starts = [m.start() for m in _TOKEN_RE.finditer(_code_lines(self.text)[k - 1])]
        return cls(message, k, starts[i - self.ends[k - 1]] + 1, self.text)


class _TermParser:
    """Reads terms against one signature and variable set, building each
    distinct node once, so all the terms it reads share equal subterms.
    Nodes are kept by head name (which, with the arity, fixes the symbol)
    and child ids, never by `Term`'s own hash, which recurses."""

    def __init__(self, sig: Signature | None, declared_vars: set[str], allow_bullet: bool):
        self.sig = sig
        self.declared_vars = declared_vars
        self._heads: dict[tuple[str, int], Symbol | Variable] = {}
        self._nodes: dict[tuple[str, tuple[int, ...]], Term] = (
            {("•", ()): BULLET_TERM, ("_", ()): BULLET_TERM} if allow_bullet else {}
        )

    def term(self, text: str) -> Term:
        """The term that is the whole of text."""
        cur = _Cursor(text)
        term = self.parse(cur)
        if cur.i < len(cur.tokens):
            raise cur.error(f"trailing input {cur.tokens[cur.i]!r}", cur.i)
        return term

    def parse(self, cur: _Cursor) -> Term:
        """The term that starts at the cursor; leaves the cursor after it."""
        toks, i, n = cur.tokens, cur.i, len(cur.tokens)
        heads, nodes = self._heads, self._nodes
        # open applications, innermost last: head, its token index, arguments so far
        stack: list[tuple[str, int, list[Term]]] = []
        while True:
            if i >= n:
                raise cur.error("unexpected end of input", n - 1)
            name, at, args = toks[i], i, ()
            if name in _PUNCT:
                raise cur.error(f"expected a term, found {name!r}", i)
            if i + 1 < n and toks[i + 1] == "(":
                stack.append((name, at, []))
                i += 2
                continue
            i += 1
            while True:  # build the node name(args), then close what it ends
                key = (name, tuple(map(id, args)))
                term = nodes.get(key)
                if term is None:
                    root = heads.get((name, len(args)))
                    if root is None:
                        root = heads[name, len(args)] = self._head(name, len(args), at, cur)
                    term = nodes[key] = Term(root, tuple(args))
                if not stack:
                    cur.i = i
                    return term
                name, at, args = stack[-1]
                args.append(term)
                if i >= n:
                    raise cur.error("unexpected end of input", n - 1)
                i += 1
                if toks[i - 1] == ",":
                    break
                if toks[i - 1] != ")":
                    raise cur.error(f"expected ')', found {toks[i - 1]!r}", i - 1)
                stack.pop()

    def _head(self, name: str, arity: int, at: int, cur: _Cursor) -> Symbol | Variable:
        sig = self.sig
        if name in self.declared_vars or (
            name[0].isupper() and (sig is None or sig.lookup(name, arity) is None)
        ):
            if arity:
                raise cur.error(f"variable {name} cannot take arguments", at)
            if ";" in name or "=" in name:
                raise cur.error(f"variable {name}: ';' and '=' separate a trace's bindings", at)
            return Variable(name)
        if is_numeral_name(name) or name in ("true", "false"):
            if arity:
                raise cur.error(f"{name} is a constant", at, ArityMismatchError)
            return Symbol(name, 0)
        if sig is None:
            return Symbol(name, arity)
        decl = sig.lookup(name, arity)
        if decl is None:
            if any(op.symbol.name == name for op in sig.ops()):
                raise cur.error(f"{name} used with {arity} argument(s)", at, ArityMismatchError)
            raise cur.error(f"unknown operator {name}", at, UnknownSymbolError)
        return decl.symbol


def parse_term(
    text: str,
    signature: Signature | None = None,
    declared_vars: set[str] | None = None,
    allow_bullet: bool = False,
) -> Term:
    return _TermParser(signature, declared_vars or set(), allow_bullet).term(text)


def parse_theory(text: str, name: str = "") -> RewriteTheory:
    cur = _Cursor(text)
    sig = Signature()
    declared_vars: set[str] = set()
    equations: list[Rule] = []
    rules: list[Rule] = []
    eq_count = 0

    def parse_side() -> Term:
        # a parser per side: declarations between sides change how heads read
        return _TermParser(sig, declared_vars, allow_bullet=False).parse(cur)

    while cur.peek() is not None:
        at = cur.i
        tok = cur.next()
        if tok == "op":
            name_at = cur.i
            op_name = cur.next()
            if ";" in op_name:
                raise cur.error(f"operator {op_name}: ';' separates a trace's bindings", name_at)
            cur.next(":")
            arity = cur.next()
            if not arity.isdigit():
                raise cur.error(f"expected an arity, found {arity!r}", cur.i - 1)
            attrs = {"assoc": False, "comm": False, "builtin": False}
            sort = None
            if cur.peek() == "[":
                cur.next("[")
                while cur.peek() not in (None, "]"):
                    attr = cur.next()
                    if attr in attrs:
                        attrs[attr] = True
                    elif attr == "sort":
                        cur.next("(")
                        sort = cur.next()
                        cur.next(")")
                    else:
                        raise cur.error(f"unknown attribute {attr!r}", cur.i - 1)
                cur.next("]")
            cur.next(".")
            try:
                sig.declare(
                    op_name,
                    int(arity),
                    assoc=attrs["assoc"],
                    comm=attrs["comm"],
                    builtin=attrs["builtin"],
                    sort=sort,
                )
            except SignatureError as exc:
                raise cur.error(str(exc), name_at)
        elif tok == "var":
            if cur.peek() == ".":
                raise cur.error("empty var declaration", at)
            while cur.peek() not in (None, "."):
                declared_vars.add(cur.next())
            cur.next(".")
        elif tok == "eq":
            lhs = parse_side()
            cur.next("=")
            rhs = parse_side()
            cur.next(".")
            eq_count += 1
            equations.append(Rule(f"eq{eq_count}", lhs, rhs, kind="equation"))
        elif tok == "rl":
            cur.next("[")
            rule_name = cur.next()
            if rule_name == "-":
                raise cur.error("a rule cannot be named '-', a trace's empty name", cur.i - 1)
            cur.next("]")
            cur.next(":")
            lhs = parse_side()
            cur.next("=>")
            rhs = parse_side()
            cur.next(".")
            rules.append(Rule(rule_name, lhs, rhs, kind="rule"))
        else:
            raise cur.error(f"unexpected token {tok!r}", at)
    return RewriteTheory(sig, equations, rules, name=name)


def render_theory(th: RewriteTheory) -> str:
    """Canonical text of a theory; parse(render(th)) rebuilds th."""
    lines: list[str] = []
    for decl in th.signature.ops():
        attrs = []
        if decl.assoc:
            attrs.append("assoc")
        if decl.comm:
            attrs.append("comm")
        if decl.builtin:
            attrs.append("builtin")
        if decl.sort:
            attrs.append(f"sort({decl.sort})")
        attr_txt = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"op {decl.symbol.name} : {decl.symbol.arity}{attr_txt} .")
    odd_vars = sorted(
        {
            v.name
            for r in th.equations + th.rules
            for side in (r.lhs, r.rhs)
            for v in vars_of(side)
            if not v.name[0].isupper()
        }
    )
    if odd_vars:
        lines.append("var " + " ".join(odd_vars) + " .")
    for eq in th.equations:
        lines.append(f"eq {pretty(eq.lhs)} = {pretty(eq.rhs)} .")
    for rl in th.rules:
        lines.append(f"rl [{rl.name}] : {pretty(rl.lhs)} => {pretty(rl.rhs)} .")
    return "\n".join(lines) + ("\n" if lines else "")
