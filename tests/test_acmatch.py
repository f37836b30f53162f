import itertools
import random
from functools import cmp_to_key

import pytest

from collections import Counter

from rwslice import acmatch
from rwslice.acmatch import (
    flatten,
    flatten_term,
    match_modulo_ac,
    plan_unflat,
    rebuild_spine,
    regrouping_map,
    spine_leaves,
)
from rwslice.engine import MalformedStep, RewriteTheory, _Steps, replay_step
from rwslice.terms import ROOT, Position, Signature, Substitution, Symbol, Term, Variable, pretty, replace_at, subterm_at, term_cmp
from rwslice.theoryfile import parse_term

from genutil import ac_variants, flatten_reference, oracle_ac_matchers, random_soup, seeded_traces


@pytest.fixture
def sig():
    s = Signature()
    s.declare("f", 2, assoc=True, comm=True)
    s.declare("g", 1)
    s.declare("h", 2)
    for name in "abcd":
        s.declare(name, 0)
    return s


def T(text, sig, variables=None):
    return parse_term(text, sig, variables or set())


def test_flatten_nested(sig):
    t = T("f(b,f(b,f(a,c)))", sig)
    canon, events = flatten(t, sig)
    assert pretty(canon) == "f(a,b,b,c)"
    # innermost first: the inner pair collapses before the root
    assert [str(p) for p, _, _ in events] == ["2", "^"]
    for _, before, after in events:
        assert flatten_term(before, sig) == canon and flatten_term(after, sig) == canon


def _nested(t, sig):
    """t with every AC node's arguments regrouped into a right comb, in
    reverse order, so that flattening it takes an event per comb node."""
    args = [_nested(a, sig) for a in t.args]
    if not sig.is_ac(t.root) or len(args) < 2:
        return Term(t.root, tuple(args))
    comb = args[0]
    for a in args[1:]:
        comb = Term(t.root, (a, comb))
    return comb


def test_flatten_equals_repeated_first_scan():
    """`flatten`'s one walk gives the canonical form and the events of
    flattening the first node of a full scan again and again
    (`flatten_reference`), on every term of the seeded traces, on each
    with its AC nodes nested, and on random soups."""
    rng = random.Random(12)
    soup_sig = _soup_sig()
    cases = [(random_soup(rng, soup_sig), soup_sig) for _ in range(100)]
    for th, trace in seeded_traces():
        sig = th.signature
        cases += [(t, sig) for t in trace.terms()] + [(_nested(t, sig), sig) for t in trace.terms()]
    events = 0
    for t, sig in cases:
        expected = flatten_reference(t, sig)
        assert flatten(t, sig) == expected, pretty(t)
        events += len(expected[1])
    assert events > 1_000


def test_flatten_fixpoint(sig):
    t = T("f(a,b)", sig)
    canon, events = flatten(t, sig)
    assert canon == t and events == []


def test_flatten_left_nested(sig):
    t = T("f(b,f(f(b,a),c))", sig)
    assert pretty(flatten_term(t, sig)) == "f(a,b,b,c)"


def test_flatten_idempotent(sig):
    rng = random.Random(5)
    soup_sig = _soup_sig()
    for _ in range(100):
        t = random_soup(rng, soup_sig)
        once = flatten_term(t, soup_sig)
        assert flatten_term(once, soup_sig) == once
        assert flatten(once, soup_sig)[1] == []


def _soup_sig():
    s = Signature()
    s.declare("cfg", 2, assoc=True, comm=True)
    s.declare("u", 1)
    s.declare("w", 1)
    s.declare("pair", 2)
    s.declare("k", 0)
    for name in "ab":
        s.declare(name, 0)
    return s


def test_flatten_preserves_leaf_multiset(sig):
    rng = random.Random(6)
    soup_sig = _soup_sig()
    for _ in range(100):
        t = random_soup(rng, soup_sig)
        canon = flatten_term(t, soup_sig)
        assert sorted(map(pretty, _non_ac_leaves(t, soup_sig))) == sorted(
            map(pretty, _non_ac_leaves(canon, soup_sig))
        )


def _non_ac_leaves(t, sig):
    if not (not isinstance(t.root, Variable) and sig.is_ac(t.root)):
        return [t]
    out = []
    for a in t.args:
        out.extend(_non_ac_leaves(a, sig))
    return out


def test_match_two_partitions(sig):
    pat = T("f(x,y)", sig, {"x", "y"})
    subj = T("f(a,b,c)", sig)
    found = match_modulo_ac(pat, subj, sig)
    assert len(found) == 6
    subs = {m for m, _ in found}
    x, y = Variable("x"), Variable("y")
    assert Substitution({x: T("a", sig), y: T("f(b,c)", sig)}) in subs
    # every matcher's shape flattens back to the subject
    for m, shape in found:
        assert shape == m.apply(pat)
        assert flatten_term(shape, sig) == subj
    assert subs == oracle_ac_matchers(pat, subj, sig)


def test_match_binary_both_orders(sig):
    pat = T("f(x,y)", sig, {"x", "y"})
    subj = T("f(a,b)", sig)
    found = [m for m, _ in match_modulo_ac(pat, subj, sig)]
    x, y = Variable("x"), Variable("y")
    assert found == [
        Substitution({x: T("a", sig), y: T("b", sig)}),
        Substitution({x: T("b", sig), y: T("a", sig)}),
    ]


def test_match_root_mismatch(sig):
    assert match_modulo_ac(T("g(x)", sig, {"x"}), T("f(a,b)", sig), sig) == []


def test_match_nested_pattern_spine(sig):
    pat = T("f(f(x,a),y)", sig, {"x", "y"})
    subj = T("f(a,b,c)", sig)
    subs = {m for m, _ in match_modulo_ac(pat, subj, sig)}
    assert subs == oracle_ac_matchers(pat, subj, sig)
    assert len(subs) == 2  # x in {b, c}, y takes the rest


def test_match_nonlinear_modulo(sig):
    pat = T("f(x,x)", sig, {"x"})
    assert match_modulo_ac(pat, T("f(a,a)", sig), sig)
    assert match_modulo_ac(pat, T("f(a,b)", sig), sig) == []
    # both halves of f(a,a,b,b) can be grouped as f(a,b)
    found = {m for m, _ in match_modulo_ac(pat, T("f(a,a,b,b)", sig), sig)}
    assert found == oracle_ac_matchers(pat, T("f(a,a,b,b)", sig), sig)


def test_matchers_deterministic(sig):
    pat = T("f(x,y)", sig, {"x", "y"})
    subj = T("f(a,b,c,d)", sig)
    first = match_modulo_ac(pat, subj, sig)
    second = match_modulo_ac(pat, subj, sig)
    assert first == second


def test_oracle_equivalence_small(sig):
    rng = random.Random(11)
    consts = ["a", "b", "c"]
    for _ in range(60):
        leaves = [rng.choice(consts) for _ in range(rng.randint(2, 4))]
        subj = flatten_term(T("f(" + ",".join(leaves) + ")", sig), sig)
        pat = _random_pattern(rng, sig)
        ours = {m for m, _ in match_modulo_ac(pat, subj, sig)}
        assert ours == oracle_ac_matchers(pat, subj, sig), (pretty(pat), pretty(subj))


def test_spine_subpatterns_holding_an_ac_symbol_match_as_the_oracle(sig):
    """A spine subpattern that holds an AC symbol is matched with the
    binding (`_match_gen`), the others by joining their standalone
    matches. The matchers are the oracle's, and each shape is the pattern
    instantiated and flattens back to the subject, both with a fresh memo
    and with one memo shared across subjects built from the same argument
    objects, as in a run."""
    xyz = {"x", "y", "z"}
    patterns = [T(text, sig, xyz) for text in ("f(g(f(x,a)),y)", "f(g(f(x,y)),h(x,b))", "f(g(f(a,x)),g(f(x,y)),z)", "f(h(f(x,a),y),x,z)")]
    pool = [flatten_term(T(text, sig), sig) for text in ("g(f(a,b))", "g(f(a,b,b))", "g(f(b,c))", "h(a,b)", "h(f(a,c),b)", "c")]
    rng = random.Random(5)
    groups = list(itertools.combinations(pool, 2)) + [rng.sample(pool, rng.randint(3, 4)) for _ in range(20)]
    shared, variants, matched = {}, {}, Counter()
    for group in groups:
        subj = flatten_term(Term(sig.lookup("f", 2).symbol, tuple(group)), sig)
        for pat in patterns:
            expected = oracle_ac_matchers(pat, subj, sig, variants)
            for memo in (None, shared):
                found = match_modulo_ac(pat, subj, sig, memo)
                assert {m for m, _ in found} == expected, (pretty(pat), pretty(subj))
                assert all(shape == m.apply(pat) and flatten_term(shape, sig) == subj for m, shape in found)
            matched[pat] += bool(expected)
    assert min(matched[pat] for pat in patterns) > 0 and sum(matched.values()) > 30


def _random_pattern(rng, sig):
    slots = []
    names = ["x", "y", "x"]  # repeats make some patterns nonlinear
    for _ in range(rng.randint(2, 3)):
        kind = rng.random()
        if kind < 0.5:
            slots.append(T(names[rng.randrange(len(names))], sig, {"x", "y"}))
        elif kind < 0.8:
            slots.append(T(rng.choice("abc"), sig))
        else:
            slots.append(Term(sig.lookup("g", 1).symbol, (T(rng.choice(["x", "a"]), sig, {"x"}),)))
    f = sig.lookup("f", 2).symbol
    pat = slots[0]
    for s in slots[1:]:
        pat = Term(f, (pat, s))
    return pat


def test_plan_unflat_roundtrip(sig):
    subj = T("f(a,b,b,c)", sig)
    target = T("f(f(b,c),f(a,b))", sig)
    final, events = plan_unflat(subj, Position(), target, sig)
    assert final == target
    assert len(events) == 1
    for _, before, after in events:
        assert flatten_term(after, sig) == flatten_term(before, sig)


def test_plan_unflat_rejects_non_equivalent(sig):
    with pytest.raises(ValueError):
        plan_unflat(T("f(a,b)", sig), Position(), T("f(a,c)", sig), sig)
    # the same roots, other leaves
    with pytest.raises(ValueError):
        plan_unflat(T("f(a,g(a),g(b))", sig), Position(), T("f(g(a),f(a,g(a)))", sig), sig)


def test_plan_unflat_and_rebuild_spine_refuse_a_shape_they_cannot_fill(sig):
    with pytest.raises(ValueError, match="differs structurally"):
        plan_unflat(T("h(a,b)", sig), Position(), T("h(a,g(b))", sig), sig)
    # the leaves fill f(a,b) but not the root node above it
    with pytest.raises(ValueError, match="the leaves do not fill"):
        rebuild_spine(T("f(f(a,b),c)", sig), [((1, 1), T("a", sig)), ((1, 2), T("b", sig))])


def test_plan_unflat_tells_apart_terms_equal_in_the_term_order():
    """A flattened AC node of f/2 over three arguments and an f/3 node over
    the same arguments are unequal, but neither precedes the other in the
    term order. No signature declares the two (`Signature.declare`), so
    f/3 is a symbol outside it."""
    s = Signature()
    f2 = s.declare("f", 2, assoc=True, comm=True)
    f3 = Symbol("f", 3)
    k = s.declare("k", 2, assoc=True, comm=True)
    a, b, c = (Term(s.declare(n, 0)) for n in "abc")
    flat2, node3 = Term(f2, (a, b, c)), Term(f3, (a, b, c))
    assert flat2 != node3 and term_cmp(flat2, node3) == 0
    node = Term(k, (a, node3, flat2))
    target = Term(k, (Term(k, (flat2, a)), node3))
    final, events = plan_unflat(node, Position(), target, s)
    assert final == target and len(events) == 1
    for wrong in (Term(k, (Term(k, (flat2, a)), flat2)), Term(k, (Term(k, (node3, a)), node3))):
        with pytest.raises(ValueError):
            plan_unflat(node, Position(), wrong, s)


def _regrouped(rng, flat):
    """flat's arguments in a random order under a random spine of its root."""
    items = list(flat.args)
    rng.shuffle(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [Term(flat.root, (items[i], items[i + 1]))]
    return items[0]


def test_replay_unflat_agrees_with_flatten_term():
    """`replay_step` accepts an unflat step from flat to grouped exactly when
    grouped differs from flat, flattens to it, and has flat's arguments as
    its spine leaves."""
    rng = random.Random(8)
    s = _soup_sig()
    th = RewriteTheory(s)
    cfg, pair, u = (s.lookup(n, a).symbol for n, a in (("cfg", 2), ("pair", 2), ("u", 1)))
    regrouped = lambda flat: _regrouped(rng, flat)

    def expected(flat, grouped):
        if not (s.is_ac(flat.root) and grouped.root == flat.root and grouped != flat and flatten_term(grouped, s) == flat):
            return False
        return Counter(leaf for _, leaf in spine_leaves(grouped)) == Counter(flat.args)

    def replays(flat, grouped, steps=None):
        try:
            replay_step("unflat", None, ROOT, flat, th, spine=grouped, steps=steps)
        except MalformedStep:
            return False
        return True

    k = T("k", s)
    cases = []
    for _ in range(150):
        soup = random_soup(rng, s)
        # half of them carry an AC node inside a leaf
        if rng.random() < 0.5:
            soup = Term(cfg, (soup, Term(pair, (random_soup(rng, s), k))))
        canon = flatten_term(soup, s)
        for grouped in (soup, regrouped(canon), canon):
            for flat in (canon, Term(cfg, canon.args[::-1]), flatten_term(random_soup(rng, s), s), grouped):
                cases.append((grouped, flat))
    # flat nodes whose arguments pair with the leaves but are not canonical
    # below the top, as an argument u(cfg(b,a)) is not
    a, b = T("a", s), T("b", s)
    unsorted = Term(u, (Term(cfg, (b, a)),))
    for flat in (Term(cfg, (k, unsorted)), Term(cfg, (a, k, unsorted)), Term(cfg, (a, Term(u, (Term(cfg, (k, unsorted)),))))):
        for grouped in (Term(cfg, flat.args[::-1]), regrouped(flat), regrouped(flat)):
            assert not expected(flat, grouped) and not replays(flat, grouped), (pretty(flat), pretty(grouped))
            cases.append((grouped, flat))
    assert sum(expected(f, g) for g, f in cases) > 100
    # a leaf that only flattens to an argument: a change below the spine
    assert sum(flatten_term(g, s) == f != g and not expected(f, g) for g, f in cases) > 20
    for grouped, flat in cases:
        assert replays(flat, grouped) == expected(flat, grouped), (pretty(flat), pretty(grouped))
    # again, with the nodes known canonical shared by every case, as a check pass shares them
    steps = _Steps(th, 0)
    for grouped, flat in cases:
        assert replays(flat, grouped, steps) == expected(flat, grouped), (pretty(flat), pretty(grouped))
    assert steps.searched and not steps


def _plan_unflat_reference(whole, at, target, sig):
    """plan_unflat as defined before the leaves were paired first: every
    spine leaf of the target is flattened, and the spine is rebuilt over
    the flattened leaves."""
    events, current, todo = [], whole, [(at, target)]
    while todo:
        pos, tgt = todo.pop()
        node = subterm_at(current, pos)
        if node == tgt:
            continue
        if sig.is_ac(tgt.root) and node.root == tgt.root:
            slots = list(spine_leaves(tgt))
            canon = [flatten_term(sub, sig) for _, sub in slots]
            rest = list(node.args)
            for leaf in canon:
                rest.remove(leaf)  # ValueError unless the leaves are the arguments
            if rest:
                raise ValueError("too few leaves")
            new_node = rebuild_spine(tgt, zip((path for path, _ in slots), canon))
            if new_node != node:
                after = replace_at(current, pos, new_node)
                events.append((pos, current, after))
                current = after
            todo += [(pos.concat(Position(path)), sub) for (path, sub), leaf in zip(slots[::-1], canon[::-1]) if leaf != sub]
        elif node.root != tgt.root or len(node.args) != len(tgt.args):
            raise ValueError("structure")
        else:
            todo += [(pos.child(i), tgt.args[i - 1]) for i in range(len(tgt.args), 0, -1)]
    return current, events


def _scrambled(rng, t, sig):
    """t with each AC node regrouped at random, the ones inside its leaves
    included, so the leaves need not be canonical."""
    if not t.args:
        return t
    args = tuple(_scrambled(rng, a, sig) for a in t.args)
    return _regrouped(rng, Term(t.root, args)) if sig.is_ac(t.root) else Term(t.root, args)


def test_plan_unflat_pairs_canonical_leaves_and_flattens_only_the_others(monkeypatch):
    """On a canonical node, the spine leaves of the regrouped node are the
    node's own argument objects and no leaf is flattened; a target whose
    leaves hold unsorted AC nodes goes through the fallback and gives the
    events the flatten-every-leaf definition gives."""
    rng = random.Random(13)
    s = _soup_sig()
    cfg, pair = s.lookup("cfg", 2).symbol, s.lookup("pair", 2).symbol
    flattened = []
    real = acmatch.flatten_term

    def counted(t, sig):
        flattened.append(t)
        return real(t, sig)

    monkeypatch.setattr(acmatch, "flatten_term", counted)
    fallbacks = 0
    for _ in range(150):
        soup = random_soup(rng, s)
        if rng.random() < 0.5:
            soup = Term(cfg, (soup, Term(pair, (random_soup(rng, s), T("k", s)))))
        node = real(soup, s)
        # a target of other objects than the node's, as a match builds it
        canonical_leaves = parse_term(pretty(_regrouped(rng, node)), s)
        flattened.clear()
        final, events = plan_unflat(node, Position(), canonical_leaves, s)
        assert flattened == [] and final == canonical_leaves
        assert sorted(map(id, (leaf for _, leaf in spine_leaves(final)))) == sorted(map(id, node.args))
        assert events == _plan_unflat_reference(node, Position(), canonical_leaves, s)[1]
        target = _scrambled(rng, node, s)
        flattened.clear()
        final, events = plan_unflat(node, Position(), target, s)
        assert final == target and events == _plan_unflat_reference(node, Position(), target, s)[1]
        fallbacks += bool(flattened)
    assert fallbacks > 20


def test_unflat_leaf_mapping_stability(sig):
    before = T("f(a,b,b,c)", sig)
    after = T("f(f(b,c),f(a,b))", sig)
    walked = list(spine_leaves(after))
    mapping = regrouping_map("unflat", before, after)
    # the first b (arg 2) lands at 1.1, the second (arg 3) at 2.2
    as_dict = {str(Position(path)): idx for (path, _), idx in zip(walked, mapping)}
    assert as_dict == {"1.1": 1, "1.2": 3, "2.1": 0, "2.2": 2}


def test_match_moves_is_the_pairing_or_none(sig):
    """`match_moves` reads an unflat map off the argument objects a match
    took. On random canonical nodes with equal arguments, some one shared
    object and some distinct, a random group taken in random order gives
    `regrouping_map`'s pairing or None; never None without two equal
    neighbours; and None for a leaf that is a copy of an argument."""
    rng = random.Random(31)
    f = sig.lookup("f", 2).symbol
    pool = [T(text, sig) for text in ("a", "b", "g(a)", "h(a,b)")]
    found = Counter()
    for _ in range(600):
        args = [rng.choice(pool) for _ in range(rng.randint(2, 7))]
        args = [a if rng.random() < 0.5 else T(pretty(a), sig) for a in args]
        node = Term(f, tuple(sorted(args, key=cmp_to_key(term_cmp))))
        n = len(node.args)
        group = sorted(rng.sample(range(n), rng.randint(2, n)))
        took = rng.sample(group, len(group))
        shape = Term(f, tuple(node.args[i] for i in took))
        rest = tuple(node.args[i] for i in range(n) if i not in group)
        moves = acmatch.match_moves(node, shape, rest)
        assert moves in (None, regrouping_map("unflat", node, Term(f, (shape,) + rest) if rest else shape))
        equal = any(a == b for a, b in zip(node.args, node.args[1:]))
        assert moves is not None or equal
        found["none" if moves is None else "equal" if equal else "distinct"] += 1
        copied = Term(f, (T(pretty(shape.args[0]), sig),) + shape.args[1:])
        assert acmatch.match_moves(node, copied, rest) is None
    assert min(found.values()) > 50, found


DEEP = 10_000


def test_spine_walks_survive_a_deep_comb(sig):
    """A right comb of DEEP f nodes: the spine walk, the spine rebuild, the
    leaf pairing and the regrouping test run without recursion. Nothing
    compares whole combs, whose generated `==` still recurses."""
    f, g = sig.lookup("f", 2).symbol, sig.lookup("g", 1).symbol
    leaves = [Term(Symbol(f"c{i:05d}", 0)) for i in range(DEEP + 1)]
    comb = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        comb = Term(f, (leaf, comb))
    flat = Term(f, tuple(leaves))  # sorted: the names sort in index order
    # the k-th leaf sits at 2.2...2.1 with k twos, the last one at 2.2...2;
    # the walk is consumed as it goes, as its paths hold DEEP**2 / 2 indices
    walked = 0
    for k, (path, leaf) in enumerate(spine_leaves(comb)):
        assert leaf is leaves[k] and len(path) == min(k + 1, DEEP) and path[-1] == (1 if k < DEEP else 2)
        walked += 1
    assert walked == DEEP + 1
    wrapped = rebuild_spine(comb, ((path, Term(g, (leaf,))) for path, leaf in spine_leaves(comb)))
    rewalked = 0
    for (path, leaf), (orig_path, orig) in zip(spine_leaves(wrapped), spine_leaves(comb)):
        assert path == orig_path and leaf.root == g and leaf.args[0] is orig
        rewalked += 1
    assert rewalked == DEEP + 1
    assert regrouping_map("unflat", flat, comb) == tuple(range(DEEP + 1))
    th = RewriteTheory(sig)
    replay_step("unflat", None, ROOT, flat, th, spine=comb)
    with pytest.raises(MalformedStep, match="no regrouping"):
        replay_step("unflat", None, ROOT, flat, th, spine=wrapped)


def test_ac_variants_oracle_is_sane(sig):
    subj = T("f(a,b,c)", sig)
    variants = ac_variants(subj, sig)
    # 3 leaves: 3 binary shapes x 3! leaf orders = 12 nested + 6 flat = 18
    assert len(variants) == 18
    assert all(flatten_term(u, sig) == subj for u in variants)
