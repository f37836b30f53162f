"""Shared random generators and independent oracles for the test suite.

The AC-matching oracle enumerates every term that flattens to the subject
and matches syntactically; it shares no code with the matcher under test.
"""

from __future__ import annotations

import random
import zlib
from itertools import combinations, product

from rwslice.acmatch import flatten_term, match_modulo_ac, needs_flat, one_level_flat
from rwslice.engine import RewriteTheory, Rule, run
from rwslice.slicer import trace_slice
from rwslice.terms import (
    Position,
    ROOT,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    is_bullet,
    is_hole,
    match,
    positions,
    replace_at,
    subterm_at,
)

V = lambda name: Term(Variable(name))


def replaced(record, **changes):
    """A new record of record's class (`terms._Record`), built by keyword
    from its fields with `changes` applied; it keeps no cached property."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


# ---------------------------------------------------------------- oracles


def ac_variants(t: Term, sig: Signature, memo: dict | None = None) -> frozenset:
    """Every term whose AC canonical form is t (t itself canonical)."""
    if memo is None:
        memo = {}
    cached = memo.get(t)
    if cached is not None:
        return cached
    if isinstance(t.root, Variable) or not t.args:
        result = frozenset({t})
        memo[t] = result
        return result
    if sig.is_ac(t.root) and len(t.args) >= 2:
        out: set[Term] = set()
        args = list(t.args)
        n = len(args)
        for k in range(2, n + 1):
            for assign in product(range(k), repeat=n):
                if len(set(assign)) != k:
                    continue
                groups = [[args[i] for i in range(n) if assign[i] == g] for g in range(k)]
                choices = []
                for grp in groups:
                    if len(grp) == 1:
                        choices.append(ac_variants(grp[0], sig, memo))
                    else:
                        choices.append(ac_variants(Term(t.root, tuple(grp)), sig, memo))
                for combo in product(*choices):
                    out.add(Term(t.root, combo))
        result = frozenset(out)
    else:
        choices = [ac_variants(a, sig, memo) for a in t.args]
        result = frozenset(Term(t.root, combo) for combo in product(*choices))
    memo[t] = result
    return result


def oracle_ac_matchers(
    pattern: Term, subject: Term, sig: Signature, memo: dict | None = None
) -> frozenset:
    """Exhaustive matcher set: syntactic match against every AC variant of
    the subject, with bindings canonicalized."""
    out: set[Substitution] = set()
    for u in ac_variants(subject, sig, memo):
        m = match(pattern, u)
        if m is not None:
            out.add(Substitution({v: flatten_term(t, sig) for v, t in m.items()}))
    return frozenset(out)


def all_sizes_candidates(node: Term, rules: list[Rule], sig: Signature) -> list:
    """The engine's candidate sequence at one node, computed by trying every
    sub-multiset of a flattened AC node from size n-1 down to 2, whatever
    the rule's pattern."""
    out = []
    for rule in rules:
        for sub, shape in match_modulo_ac(rule.lhs, node, sig):
            out.append((rule, sub, shape, ROOT))
        root = rule.lhs.root
        if sig.is_ac(root) and node.root == root and len(node.args) >= 3:
            n = len(node.args)
            for size in range(n - 1, 1, -1):
                for idxs in combinations(range(n), size):
                    group = Term(node.root, tuple(node.args[i] for i in idxs))
                    for sub, shape in match_modulo_ac(rule.lhs, group, sig):
                        rest = tuple(node.args[i] for i in range(n) if i not in idxs)
                        out.append((rule, sub, Term(node.root, (shape,) + rest), Position((1,))))
    return out


def postorder_scan(t: Term, test):
    """First (position, result) with test(node) not None, children before
    their parent, visiting every non-hole position from the root with
    `subterm_at`: the engine's scan before it skipped searched subtrees."""
    out: list[Position] = []

    def walk(node: Term, pos: Position):
        for i, arg in enumerate(node.args, start=1):
            walk(arg, pos.child(i))
        if not is_hole(node):
            out.append(pos)

    walk(t, ROOT)
    for q in out:
        result = test(subterm_at(t, q))
        if result is not None:
            return q, result
    return None


def flatten_reference(t: Term, sig: Signature):
    """`acmatch.flatten` by its definition: flatten the first node, in a
    full postorder scan (`postorder_scan`), that needs it, until none does.
    The canonical form and the events (position, term before, term after)."""
    events = []
    while True:
        hit = postorder_scan(t, lambda node: needs_flat(node, sig) or None)
        if hit is None:
            return t, events
        after = replace_at(t, hit[0], one_level_flat(subterm_at(t, hit[0]))[0])
        events.append((hit[0], t, after))
        t = after


# ------------------------------------------------- random term machinery


def random_ground_term(rng: random.Random, sig: Signature, depth: int = 2) -> Term:
    consts = [d.symbol for d in sig.ops() if d.symbol.arity == 0]
    builders = [d.symbol for d in sig.ops() if d.symbol.arity > 0 and not d.builtin]
    if depth <= 0 or not builders or rng.random() < 0.4:
        return Term(rng.choice(consts))
    sym = rng.choice(builders)
    return Term(sym, tuple(random_ground_term(rng, sig, depth - 1) for _ in range(sym.arity)))


def plant_redex(rng: random.Random, sig: Signature, rule: Rule, depth: int = 2) -> Term:
    """A random ground term containing an instance of the rule's left-hand
    side somewhere, so that runs have something to do."""
    binding = {v: random_ground_term(rng, sig, 1) for v in _vars(rule.lhs)}
    redex = Substitution(binding).apply(rule.lhs)
    host = random_ground_term(rng, sig, depth)
    spots = positions(host)
    return replace_at(host, rng.choice(spots), redex)


def _vars(t: Term):
    seen = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node.root, Variable) and node.root not in seen:
            seen.append(node.root)
        stack.extend(node.args)
    return seen


def random_criterion(rng: random.Random, final: Term) -> frozenset[Position]:
    ps = positions(final)
    size = rng.randint(1, min(3, len(ps)))
    return frozenset(rng.sample(ps, size))


def random_concretization(rng: random.Random, sig: Signature, slice_t: Term) -> Term:
    if is_bullet(slice_t):
        return random_ground_term(rng, sig, rng.randint(0, 2))
    return Term(slice_t.root, tuple(random_concretization(rng, sig, a) for a in slice_t.args))


# -------------------------------------------------- per-category theories


def elementary_theory(rng: random.Random) -> RewriteTheory:
    sig = Signature()
    for name in "abc":
        sig.declare(name, 0)
    g = sig.declare("g", 1)
    p = sig.declare("p", 1)
    q = sig.declare("q", 2)
    d = sig.declare("d", 2)
    X, Y = V("X"), V("Y")
    a = Term(sig.lookup("a", 0).symbol)
    pool = [
        Rule("r1", Term(p, (X,)), Term(q, (X, Term(g, (X,))))),
        Rule("r2", Term(q, (X, Y)), Term(d, (Y, a))),
        Rule("r3", Term(g, (Term(d, (X, Y)),)), Term(p, (Y,))),
        Rule("r4", Term(d, (a, X)), Term(g, (X,))),
    ]
    rules = rng.sample(pool, k=rng.randint(2, len(pool)))
    eqs = []
    if rng.random() < 0.5:
        eqs.append(Rule("e1", Term(g, (Term(g, (X,)),)), Term(g, (X,)), kind="equation"))
    return RewriteTheory(sig, eqs, rules)


def collapsing_theory(rng: random.Random) -> RewriteTheory:
    sig = Signature()
    for name in "abc":
        sig.declare(name, 0)
    g = sig.declare("g", 1)
    p = sig.declare("p", 1)
    d = sig.declare("d", 2)
    X, Y = V("X"), V("Y")
    b = Term(sig.lookup("b", 0).symbol)
    pool = [
        Rule("c1", Term(p, (X,)), X),
        Rule("c2", Term(d, (X, b)), X),
        Rule("r1", Term(g, (X,)), Term(d, (X, b))),
    ]
    rules = rng.sample(pool, k=rng.randint(2, len(pool)))
    return RewriteTheory(sig, [], rules)


def nonlinear_theory(rng: random.Random) -> RewriteTheory:
    sig = Signature()
    for name in "abc":
        sig.declare(name, 0)
    g = sig.declare("g", 1)
    q = sig.declare("q", 2)
    f3 = sig.declare("f3", 3)
    X, Y = V("X"), V("Y")
    pool = [
        Rule("n1", Term(q, (X, X)), Term(g, (X,))),
        Rule("n2", Term(f3, (X, Y, X)), Term(q, (Y, X))),
        Rule("n3", Term(f3, (X, X, Y)), Y),  # collapsing and nonlinear
    ]
    rules = rng.sample(pool, k=rng.randint(2, len(pool)))
    return RewriteTheory(sig, [], rules)


def builtin_theory(rng: random.Random) -> RewriteTheory:
    sig = Signature()
    sig.declare("+", 2, builtin=True)
    sig.declare("*", 2, builtin=True)
    sig.declare("acc", 2)
    sig.declare("cnt", 1)
    sig.declare("a", 0)
    X = V("N")
    S = V("S")
    plus = sig.lookup("+", 2).symbol
    times = sig.lookup("*", 2).symbol
    acc = sig.lookup("acc", 2).symbol
    cnt = sig.lookup("cnt", 1).symbol
    one = Term(Symbol("1", 0))
    two = Term(Symbol("2", 0))
    pool = [
        Rule("b1", Term(cnt, (X,)), Term(cnt, (Term(plus, (X, one)),))),
        Rule("b2", Term(acc, (X, S)), Term(acc, (Term(plus, (X, one)), Term(times, (S, two))))),
    ]
    rules = rng.sample(pool, k=rng.randint(1, len(pool)))
    return RewriteTheory(sig, [], rules)


def ac_theory(rng: random.Random) -> RewriteTheory:
    sig = Signature()
    sig.declare("cfg", 2, assoc=True, comm=True)
    sig.declare("u", 1)
    sig.declare("w", 1)
    sig.declare("pair", 2)
    sig.declare("k", 0)
    for name in "ab":
        sig.declare(name, 0)
    X, Y = V("X"), V("Y")
    cfg = sig.lookup("cfg", 2).symbol
    u = sig.lookup("u", 1).symbol
    w = sig.lookup("w", 1).symbol
    pair = sig.lookup("pair", 2).symbol
    k = Term(sig.lookup("k", 0).symbol)
    pool = [
        Rule("a1", Term(cfg, (Term(u, (X,)), k)), Term(cfg, (Term(w, (X,)), k))),
        Rule("a2", Term(cfg, (Term(w, (X,)), Term(w, (Y,)))), Term(w, (Term(pair, (X, Y)),))),
        Rule("a3", Term(cfg, (k, X)), X),  # collapsing over the soup
        Rule("a4", Term(cfg, (Term(u, (X,)), Term(u, (X,)))), Term(u, (X,))),  # nonlinear
    ]
    rules = rng.sample(pool, k=rng.randint(2, len(pool)))
    return RewriteTheory(sig, [], rules)


def random_soup(rng: random.Random, sig: Signature) -> Term:
    cfg = sig.lookup("cfg", 2).symbol
    u = sig.lookup("u", 1).symbol
    w = sig.lookup("w", 1).symbol
    k = Term(sig.lookup("k", 0).symbol)
    a = Term(sig.lookup("a", 0).symbol)
    b = Term(sig.lookup("b", 0).symbol)
    leaves = [k, Term(u, (a,)), Term(u, (b,)), Term(w, (a,)), Term(w, (b,)), Term(u, (Term(u, (a,)),))]
    n = rng.randint(2, 5)
    picked = [rng.choice(leaves) for _ in range(n)]
    if n == 1:
        return picked[0]
    soup = picked[0]
    for item in picked[1:]:
        soup = Term(cfg, (soup, item))
    return soup


CATEGORIES = {
    "elementary": elementary_theory,
    "collapsing": collapsing_theory,
    "nonlinear": nonlinear_theory,
    "builtin": builtin_theory,
    "ac": ac_theory,
}


def random_case(rng: random.Random, category: str):
    """One randomized (theory, trace, criterion) triple for a category."""
    th = CATEGORIES[category](rng)
    if category == "ac":
        init = random_soup(rng, th.signature)
    elif category == "builtin":
        sig = th.signature
        head = rng.choice([r for r in th.rules])
        binding = {v: Term(Symbol(str(rng.randint(0, 9)), 0)) for v in _vars(head.lhs)}
        init = Substitution(binding).apply(head.lhs)
    else:
        init = plant_redex(rng, th.signature, rng.choice(th.rules))
    trace = run(init, th, rng.randint(1, 3), max_steps=4000)
    criterion = random_criterion(rng, trace.final())
    return th, trace, criterion


def soundness_case(rng: random.Random, category: str):
    """Case plus a random concretization of the initial slice."""
    th, trace, criterion = random_case(rng, category)
    ts = trace_slice(trace, criterion)
    conc = random_concretization(rng, th.signature, ts.slices[0])
    return th, ts, conc


def category_seed(category: str) -> int:
    """Seed for a category's randomized cases; unlike hash(), the same in
    every process."""
    return zlib.crc32(category.encode()) & 0xFFFF


def seeded_traces(per_category: int = 50):
    """(theory, trace) pairs drawn from every category's seed. Together
    their steps cover all five step kinds; equation steps first show up
    in the 45th elementary case."""
    out = []
    for category in CATEGORIES:
        rng = random.Random(category_seed(category))
        for _ in range(per_category):
            th, trace, _ = random_case(rng, category)
            out.append((th, trace))
    return out


# (bundled theory, initial term, rule steps) of a short run of each
BUNDLED_RUNS = [
    ("producer_consumer.rwt", "cfg(tok,prod(0),cons(0,0))", 12),
    ("client_server.rwt", "net(srv(0),cli(1,3,none),cli(2,4,none))", 6),
]


# a bank soup, whose debit and credit groups join on the account id and
# often fail to join
BANK = (
    "op net : 2 [assoc comm] .\nop acc : 2 .\nop tr : 3 .\nop cr : 2 .\n"
    "op + : 2 [builtin] .\nop - : 2 [builtin] .\n"
    "rl [debit] : net(acc(I,B),tr(I,J,A)) => net(acc(I,-(B,A)),cr(J,A)) .\n"
    "rl [credit] : net(acc(J,B),cr(J,A)) => acc(J,+(B,A)) .\n"
)


# the bench/wide_state.rwt theory: a pair whose left cell is on absorbs
# the value of its right cell and switches off
WIDE_STATE = """
op node : 2 .
op cell : 2 .
op on : 0 .
op off : 0 .
op + : 2 [builtin] .
rl [absorb] : node(cell(N,on),cell(M,F)) => node(cell(+(N,M),off),cell(M,F)) .
"""


def wide_tree(depth, index):
    """Balanced tree of 2^(depth-1) cell pairs; every fourth pair is off."""
    if depth == 1:
        mark = "off" if index % 4 == 3 else "on"
        return f"node(cell({index % 10},{mark}),cell({index * 7 % 10},off))"
    return f"node({wide_tree(depth - 1, 2 * index)},{wide_tree(depth - 1, 2 * index + 1)})"
