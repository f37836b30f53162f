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
constants. Comments run from `---` to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .engine import RewriteTheory, Rule
from .terms import (
    BULLET_TERM,
    Signature,
    SignatureError,
    Symbol,
    Term,
    Variable,
    is_numeral_name,
    pretty,
)


class TheorySyntaxError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


class UnknownSymbolError(TheorySyntaxError):
    pass


class ArityMismatchError(TheorySyntaxError):
    pass


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


_PUNCT = set("()[],.")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        comment = line.find("---")
        if comment >= 0:
            line = line[:comment]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch in _PUNCT:
                tokens.append(Token(ch, lineno, col + 1))
                col += 1
                continue
            start = col
            while col < n and not line[col].isspace() and line[col] not in _PUNCT:
                col += 1
            tokens.append(Token(line[start:col], lineno, start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", 1, 1)
            raise TheorySyntaxError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.text != expect:
            raise TheorySyntaxError(f"expected {expect!r}, found {tok.text!r}", tok.line, tok.col)
        self.i += 1
        return tok


_NAME_RE = re.compile(r"[^\s()\[\],.]+")


def _is_name(text: str) -> bool:
    return bool(_NAME_RE.fullmatch(text))


class _TermParser:
    def __init__(self, cur: _Cursor, sig: Signature | None, declared_vars: set[str], allow_bullet: bool):
        self.cur = cur
        self.sig = sig
        self.declared_vars = declared_vars
        self.allow_bullet = allow_bullet
        self._loose: dict[tuple[str, int], Term] = {}

    def parse(self) -> Term:
        tok = self.cur.next()
        name = tok.text
        if not _is_name(name):
            raise TheorySyntaxError(f"expected a term, found {name!r}", tok.line, tok.col)
        args: list[Term] = []
        nxt = self.cur.peek()
        if nxt is not None and nxt.text == "(":
            self.cur.next("(")
            args.append(self.parse())
            while True:
                sep = self.cur.peek()
                if sep is not None and sep.text == ",":
                    self.cur.next(",")
                    args.append(self.parse())
                else:
                    break
            self.cur.next(")")
        return self._make(name, args, tok)

    def _make(self, name: str, args: list[Term], tok: Token) -> Term:
        if self.allow_bullet and name in ("•", "_") and not args:
            return BULLET_TERM
        if name in self.declared_vars or (name[0].isupper() and not self._is_declared_op(name, len(args))):
            if args:
                raise TheorySyntaxError(f"variable {name} cannot take arguments", tok.line, tok.col)
            return Term(Variable(name))
        if is_numeral_name(name) or name in ("true", "false"):
            if args:
                raise ArityMismatchError(f"{name} is a constant", tok.line, tok.col)
            return Term(Symbol(name, 0))
        if self.sig is None:
            return Term(Symbol(name, len(args)), tuple(args))
        decl = self.sig.lookup(name, len(args))
        if decl is None:
            if any(op.symbol.name == name for op in self.sig.ops()):
                raise ArityMismatchError(
                    f"{name} used with {len(args)} argument(s)", tok.line, tok.col
                )
            raise UnknownSymbolError(f"unknown operator {name}", tok.line, tok.col)
        return Term(decl.symbol, tuple(args))

    def _is_declared_op(self, name: str, arity: int) -> bool:
        return self.sig is not None and self.sig.lookup(name, arity) is not None


def parse_term(
    text: str,
    signature: Signature | None = None,
    declared_vars: set[str] | None = None,
    allow_bullet: bool = False,
) -> Term:
    cur = _Cursor(_tokenize(text))
    parser = _TermParser(cur, signature, declared_vars or set(), allow_bullet)
    term = parser.parse()
    trailing = cur.peek()
    if trailing is not None:
        raise TheorySyntaxError(f"trailing input {trailing.text!r}", trailing.line, trailing.col)
    return term


def parse_theory(text: str, name: str = "") -> RewriteTheory:
    cur = _Cursor(_tokenize(text))
    sig = Signature()
    declared_vars: set[str] = set()
    equations: list[Rule] = []
    rules: list[Rule] = []
    eq_count = 0

    def parse_side() -> Term:
        return _TermParser(cur, sig, declared_vars, allow_bullet=False).parse()

    while cur.peek() is not None:
        tok = cur.next()
        if tok.text == "op":
            name_tok = cur.next()
            cur.next(":")
            arity_tok = cur.next()
            if not arity_tok.text.isdigit():
                raise TheorySyntaxError(
                    f"expected an arity, found {arity_tok.text!r}", arity_tok.line, arity_tok.col
                )
            attrs = {"assoc": False, "comm": False, "builtin": False}
            sort = None
            if cur.peek() is not None and cur.peek().text == "[":
                cur.next("[")
                while cur.peek() is not None and cur.peek().text != "]":
                    attr = cur.next()
                    if attr.text in attrs:
                        attrs[attr.text] = True
                    elif attr.text == "sort":
                        cur.next("(")
                        sort = cur.next().text
                        cur.next(")")
                    else:
                        raise TheorySyntaxError(
                            f"unknown attribute {attr.text!r}", attr.line, attr.col
                        )
                cur.next("]")
            cur.next(".")
            try:
                sig.declare(
                    name_tok.text,
                    int(arity_tok.text),
                    assoc=attrs["assoc"],
                    comm=attrs["comm"],
                    builtin=attrs["builtin"],
                    sort=sort,
                )
            except SignatureError as exc:
                raise TheorySyntaxError(str(exc), name_tok.line, name_tok.col)
        elif tok.text == "var":
            saw = False
            while cur.peek() is not None and cur.peek().text != ".":
                declared_vars.add(cur.next().text)
                saw = True
            cur.next(".")
            if not saw:
                raise TheorySyntaxError("empty var declaration", tok.line, tok.col)
        elif tok.text == "eq":
            lhs = parse_side()
            cur.next("=")
            rhs = parse_side()
            cur.next(".")
            eq_count += 1
            equations.append(Rule(f"eq{eq_count}", lhs, rhs, kind="equation"))
        elif tok.text == "rl":
            cur.next("[")
            rule_name = cur.next().text
            cur.next("]")
            cur.next(":")
            lhs = parse_side()
            cur.next("=>")
            rhs = parse_side()
            cur.next(".")
            rules.append(Rule(rule_name, lhs, rhs, kind="rule"))
        else:
            raise TheorySyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)
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
            for v in _all_vars(side)
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


def _all_vars(t: Term):
    if isinstance(t.root, Variable):
        yield t.root
    for a in t.args:
        yield from _all_vars(a)
