"""AC canonical forms and matching modulo associativity-commutativity.

Nested applications of an assoc-comm operator are kept in a flattened
canonical form: one node with the argument list sorted by the total term
order. The transformations between nested and flattened shapes are
recorded as explicit events so that the rewrite engine can expose them
as trace steps.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import combinations

from .terms import (
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    first_postorder,
    pretty,
    replace_at,
    subterm_at,
    term_cmp,
)

# a transformation event: (position, whole term before, whole term after)
FlatEvent = tuple[Position, Term, Term]


def _same_op(a, b) -> bool:
    return isinstance(a, Symbol) and a == b


def one_level_flat(node: Term) -> tuple[Term, list[tuple[int, ...]]]:
    """Merge same-operator children into the argument list and sort it.

    Returns the new node plus, per new argument, its source path relative
    to the node: (i,) for a direct child, (i, j) for a grandchild hoisted
    out of a merged child. The sort is stable, so equal arguments keep
    their left-to-right order.
    """
    entries: list[tuple[tuple[int, ...], Term]] = []
    for i, arg in enumerate(node.args, start=1):
        if _same_op(arg.root, node.root):
            for j, sub in enumerate(arg.args, start=1):
                entries.append(((i, j), sub))
        else:
            entries.append(((i,), arg))
    entries.sort(key=cmp_to_key(lambda x, y: term_cmp(x[1], y[1])))
    new_node = Term(node.root, tuple(term for _, term in entries))
    return new_node, [src for src, _ in entries]


def needs_flat(node: Term, sig: Signature) -> bool:
    if not (isinstance(node.root, Symbol) and sig.is_ac(node.root) and node.args):
        return False
    if any(_same_op(a.root, node.root) for a in node.args):
        return True
    return any(term_cmp(a, b) > 0 for a, b in zip(node.args, node.args[1:]))


def flatten(t: Term, sig: Signature, searched: dict[int, Term] | None = None) -> tuple[Term, list[FlatEvent]]:
    """AC canonical form of t plus the innermost-first flattening events.
    `searched` holds the nodes with nothing to flatten in their subtree
    (`first_postorder`); a caller may carry it from one call to the next."""
    if searched is None:
        searched = {}
    events: list[FlatEvent] = []
    current = t
    while True:
        hit = first_postorder(current, lambda node: node if needs_flat(node, sig) else None, searched)
        if hit is None:
            return current, events
        pos, node = hit
        new_node, _ = one_level_flat(node)
        after = replace_at(current, pos, new_node)
        events.append((pos, current, after))
        current = after


def flatten_term(t: Term, sig: Signature) -> Term:
    return flatten(t, sig)[0]


def spine_leaves(node: Term) -> list[tuple[Position, Term]]:
    """Subterms hanging off the same-operator spine, in path order."""
    out: list[tuple[Position, Term]] = []

    def rec(t: Term, rel: tuple[int, ...]):
        for i, arg in enumerate(t.args, start=1):
            if _same_op(arg.root, node.root):
                rec(arg, rel + (i,))
            else:
                out.append((Position(rel + (i,)), arg))

    rec(node, ())
    return out


def is_regrouping(flat: Term, grouped: Term, sig: Signature) -> bool:
    """Whether `grouped` nests the AC node `flat` differently under the same
    operator: it differs from `flat` and flatten_term(grouped) == flat.
    Flattening a spine flattens its leaves and then merges the spine into
    one node, so only the leaves are flattened here."""
    if not (sig.is_ac(flat.root) and grouped.root == flat.root and grouped != flat):
        return False
    leaves = tuple(flatten_term(leaf, sig) for _, leaf in spine_leaves(grouped))
    return one_level_flat(Term(flat.root, leaves))[0] == flat


def unflat_leaf_mapping(before_node: Term, after_node: Term) -> list[tuple[Position, int]]:
    """Pair each spine leaf of the regrouped node with the index of the flat
    argument it came from. Equal arguments are consumed left to right, which
    keeps the relative lexicographic order of identical subterms."""
    leaves = spine_leaves(after_node)
    used = [False] * len(before_node.args)
    mapping: list[tuple[Position, int]] = []
    for rel, leaf in leaves:
        for i, arg in enumerate(before_node.args):
            if not used[i] and arg == leaf:
                used[i] = True
                mapping.append((rel, i))
                break
        else:
            raise ValueError(
                f"{pretty(after_node)} does not regroup the arguments of {pretty(before_node)}"
            )
    if not all(used):
        raise ValueError(
            f"{pretty(after_node)} drops arguments of {pretty(before_node)}"
        )
    return mapping


def plan_unflat(whole: Term, at: Position, target: Term, sig: Signature) -> tuple[Term, list[FlatEvent]]:
    """Stepwise regrouping of the canonical subtree at `at` into `target`.

    `target` must flatten back to the existing subtree. Each emitted event
    reshapes one flattened node into the same-operator spine the target
    prescribes there; deeper differences are handled by later events.
    """
    events: list[FlatEvent] = []
    current = whole

    def rebuild(tgt: Term, op: Symbol, leaves_iter) -> Term:
        if _same_op(tgt.root, op):
            return Term(tgt.root, tuple(rebuild(a, op, leaves_iter) for a in tgt.args))
        return next(leaves_iter)

    def walk(pos: Position, tgt: Term):
        nonlocal current
        node = subterm_at(current, pos)
        if node == tgt:
            return
        if (
            isinstance(tgt.root, Symbol)
            and sig.is_ac(tgt.root)
            and _same_op(node.root, tgt.root)
        ):
            slots = spine_leaves(tgt)
            canon = [flatten_term(sub, sig) for _, sub in slots]
            # the same multiset, by `==` alone: no whole term is hashed, and
            # the leaves of an engine target come mostly in the node's order
            if _consume(node.args, canon) != []:
                raise ValueError(
                    f"{pretty(tgt)} is not an AC regrouping of {pretty(node)}"
                )
            new_node = rebuild(tgt, tgt.root, iter(canon))
            if new_node != node:
                after = replace_at(current, pos, new_node)
                events.append((pos, current, after))
                current = after
            for (rel, sub), leaf in zip(slots, canon):
                if leaf != sub:
                    walk(pos.concat(rel), sub)
        else:
            if node.root != tgt.root or len(node.args) != len(tgt.args):
                raise ValueError(
                    f"target {pretty(tgt)} differs structurally from {pretty(node)}"
                )
            for i, sub in enumerate(tgt.args, start=1):
                walk(pos.child(i), sub)

    walk(at, target)
    return current, events


def match_modulo_ac(pattern: Term, subject: Term, sig: Signature) -> list[tuple[Substitution, Term]]:
    """All matchers of pattern against an AC-canonical subject.

    Each matcher is paired with the instantiated pattern, i.e. the nesting
    of the subject the rewrite step operates on after regrouping. The list
    order is deterministic: argument choices are explored by increasing
    index and increasing subset size, and duplicate substitutions arising
    from equal arguments are removed.
    """
    results: list[tuple[Substitution, Term]] = []
    seen: set[Substitution] = set()
    for raw in _match_gen(pattern, subject, {}, sig):
        sub = Substitution(raw)
        if sub not in seen:
            seen.add(sub)
            results.append((sub, sub.apply(pattern)))
    return results


def _match_gen(p: Term, s: Term, binding: dict, sig: Signature):
    if isinstance(p.root, Variable):
        bound = binding.get(p.root)
        if bound is None:
            extended = dict(binding)
            extended[p.root] = s
            yield extended
        elif bound == s:
            yield binding
        return
    if isinstance(s.root, Variable):
        return
    if sig.is_ac(p.root) and _same_op(s.root, p.root):
        pats = _pattern_spine(p)
        yield from _ac_args_match(pats, list(s.args), p.root, binding, sig)
        return
    if p.root != s.root or len(p.args) != len(s.args):
        return
    yield from _seq_match(p.args, s.args, binding, sig)


def _seq_match(ps, ss, binding, sig):
    if not ps:
        yield binding
        return
    for b in _match_gen(ps[0], ss[0], binding, sig):
        yield from _seq_match(ps[1:], ss[1:], b, sig)


def _pattern_spine(p: Term) -> list[Term]:
    out: list[Term] = []
    for a in p.args:
        if _same_op(a.root, p.root):
            out.extend(_pattern_spine(a))
        else:
            out.append(a)
    return out


def spine_roots(pattern: Term) -> tuple[int, Counter, bool]:
    """The number of spine subpatterns of a pattern (`_pattern_spine`), the
    multiset of their non-variable root symbols, and whether one of them
    is a variable."""
    spine = _pattern_spine(pattern)
    roots = Counter(p.root for p in spine if not isinstance(p.root, Variable))
    return len(spine), roots, sum(roots.values()) < len(spine)


def ac_groups(spine: tuple[int, Counter, bool], args: tuple[Term, ...]):
    """The argument index groups of a flattened AC node that a pattern with
    these `spine_roots` may match, largest first, in `combinations` order
    within a size; the whole node is the group of all indices. A spine
    subpattern that is not a variable takes one argument with its own root
    (`_ac_args_match`), so the node's roots must cover the spine's, and
    without a spine variable a group has exactly the spine's roots."""
    m, need, vary = spine
    roots = [a.root for a in args]
    have = Counter(roots)
    if any(have[r] < c for r, c in need.items()):
        return
    n = len(args)
    if vary:
        for size in range(n, m - 1, -1):
            yield from combinations(range(n), size)
        return
    # each argument with a spine root, as the index of that root in `keys`
    keys = list(need)
    slots = {i: keys.index(r) for i, r in enumerate(roots) if r in need}
    want = sorted(keys.index(r) for r in need.elements())
    for idxs in combinations(slots, m):
        if sorted(slots[i] for i in idxs) == want:
            yield idxs


def _ac_args_match(pats: list[Term], args: list[Term], op: Symbol, binding: dict, sig: Signature):
    """Backtracking multiset match of spine subpatterns against a flattened
    argument list. Variables absorb any nonempty subset (a single argument,
    or the flattened node over several); other subpatterns take exactly one
    argument each."""
    if not pats:
        if not args:
            yield binding
        return
    head, rest = pats[0], pats[1:]
    if isinstance(head.root, Variable):
        bound = binding.get(head.root)
        if bound is not None:
            need = list(bound.args) if _same_op(bound.root, op) else [bound]
            remaining = _consume(args, need)
            if remaining is not None:
                yield from _ac_args_match(rest, remaining, op, binding, sig)
            return
        # a variable must leave at least one argument per later subpattern
        max_take = len(args) - len(rest)
        for size in range(1, max_take + 1):
            for idxs in combinations(range(len(args)), size):
                value = args[idxs[0]] if size == 1 else Term(op, tuple(args[i] for i in idxs))
                extended = dict(binding)
                extended[head.root] = value
                remaining = [a for i, a in enumerate(args) if i not in idxs]
                yield from _ac_args_match(rest, remaining, op, extended, sig)
        return
    for i, arg in enumerate(args):
        for b in _match_gen(head, arg, binding, sig):
            remaining = args[:i] + args[i + 1 :]
            yield from _ac_args_match(rest, remaining, op, b, sig)


def _consume(args: list[Term], need: list[Term]) -> list[Term] | None:
    remaining = list(args)
    for item in need:
        try:
            remaining.remove(item)
        except ValueError:
            return None
    return remaining
