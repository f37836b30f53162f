"""AC canonical forms and matching modulo associativity-commutativity.

Nested applications of an assoc-comm operator are kept in a flattened
canonical form: one node with the argument list sorted by the total term
order. The transformations between nested and flattened shapes are
computed one at a time (`needs_flat`, `regroupings`) so that the rewrite
engine can make each of them a trace step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cmp_to_key
from itertools import combinations

from .terms import (
    Position,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    match,
    preorder,
    pretty,
    replace_at,
    subterm_at,
    term_cmp,
    vars_of,
)

# a transformation event: (position, whole term before, whole term after)
FlatEvent = tuple[Position, Term, Term]


def _same_op(a, b) -> bool:
    return isinstance(a, Symbol) and a == b


def one_level_flat(node: Term) -> tuple[Term, tuple[tuple[int, ...], ...]]:
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
    return new_node, tuple(src for src, _ in entries)


def needs_flat(node: Term, sig: Signature) -> bool:
    if not (isinstance(node.root, Symbol) and sig.is_ac(node.root) and node.args):
        return False
    if any(_same_op(a.root, node.root) for a in node.args):
        return True
    return any(term_cmp(a, b) > 0 for a, b in zip(node.args, node.args[1:]))


def flatten(t: Term, sig: Signature) -> tuple[Term, list[FlatEvent]]:
    """AC canonical form of t plus the innermost-first flattening events,
    from one postorder walk on an explicit stack. A node is rebuilt from
    its visited arguments only when one changed, and flattened once
    (`one_level_flat`) when it needs it: its merged children are canonical
    already. Each event builds its position; the events are those of
    flattening, again and again, the first node in postorder that needs it."""
    events: list[FlatEvent] = []
    current = t
    nodes, built = [t], [[]]  # the open nodes, each with its visited arguments
    while nodes:
        node, args = nodes[-1], built[-1]
        if len(args) < len(node.args):
            nodes.append(node.args[len(args)])
            built.append([])
            continue
        nodes.pop()
        built.pop()
        if any(a is not b for a, b in zip(args, node.args)):
            node = Term(node.root, tuple(args))
        if needs_flat(node, sig):
            node = one_level_flat(node)[0]
            pos = Position(tuple(len(b) + 1 for b in built))
            events.append((pos, current, replace_at(current, pos, node)))
            current = events[-1][2]
        if built:
            built[-1].append(node)
    return current, events


def flatten_term(t: Term, sig: Signature) -> Term:
    return flatten(t, sig)[0]


def spine_leaves(node: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """The subterms hanging off the same-operator spine of node, each with
    its path below node, in path order. A generator on an explicit stack:
    the argument iterators of the open spine nodes, and the path so far."""
    op = node.root
    its, path = [iter(node.args)], [0]
    while its:
        for arg in its[-1]:
            path[-1] += 1
            if arg.args and arg.root == op:  # a node with arguments has a symbol root
                its.append(iter(arg.args))
                path.append(0)
                break
            yield tuple(path), arg
        else:
            its.pop()
            path.pop()


def rebuild_spine(shape: Term, leaves: Iterable[tuple[tuple[int, ...], Term]]) -> Term:
    """`shape` with the subterm at each of the (path, term) `leaves` replaced
    by the term. The paths come in path order and hold every argument of
    each node on their proper prefixes, so a path's length tells whether it
    goes below the open node; the nodes on those prefixes are rebuilt with
    the root of `shape` there, without recursion."""
    stack = []  # the open nodes above `node`, each with its arguments built so far
    node, built = shape, []
    for path, leaf in leaves:
        while len(stack) + 1 < len(path):
            stack.append((node, built))
            node, built = node.args[len(built)], []
        built.append(leaf)
        while len(built) == len(node.args):
            leaf = Term(node.root, tuple(built))
            if not stack:
                return leaf
            node, built = stack.pop()
            built.append(leaf)
    raise ValueError(f"the leaves do not fill {pretty(shape)}")


def _pair(items: Iterable[Term], pool: Sequence[Term]) -> list[int] | None:
    """For each item, the index of an equal element of `pool`, the leftmost
    one not taken by an earlier item, so equal subterms keep their
    left-to-right order; None when an item finds none. The search starts
    at the first index not taken."""
    taken = [False] * len(pool)
    first = 0  # every index below it is taken
    out = []
    for item in items:
        try:
            i = pool.index(item, first)
            while taken[i]:
                i = pool.index(item, i + 1)
        except ValueError:
            return None
        taken[i] = True
        out.append(i)
        while first < len(pool) and taken[first]:
            first += 1
    return out


def regrouping_map(kind: str, before: Term, after: Term | None) -> tuple | None:
    """What a flat or unflat step from node `before` to node `after` moves.
    Flat: per new argument, its source path (`one_level_flat`; `after` is
    not read). Unflat: per spine leaf of `after`, in path order, the index
    of the argument of `before` it is (`_pair`), or None unless the leaves
    are those arguments in some order."""
    if kind == "flat":
        return one_level_flat(before)[1]
    taken = _pair((leaf for _, leaf in spine_leaves(after)), before.args)
    return tuple(taken) if taken is not None and len(taken) == len(before.args) else None


def match_moves(node: Term, shape: Term, rest: tuple[Term, ...]) -> tuple | None:
    """The unflat `regrouping_map` from the canonical AC node to node.root
    over (shape, *rest), or to shape when rest is empty, read off the
    argument objects a match took: the spine leaves of shape, in subpattern
    order, then rest, the others in index order. None where they are not,
    or where a taken argument has an equal untaken left neighbour, which
    `_pair` would take: equal arguments of a canonical node are adjacent."""
    args, group, left, order, taken = node.args, [], [], [], [False] * len(node.args)
    for i, a in enumerate(args):  # rest is a subsequence of args
        (left if len(left) < len(rest) and rest[len(left)] is a else group).append(i)
    for _, leaf in spine_leaves(shape):  # each takes the first untaken index of its object
        j = next((j for j, i in enumerate(group) if args[i] is leaf), None)
        i = None if j is None else group.pop(j)
        if i is None or i and not taken[i - 1] and args[i - 1] == leaf:
            return None
        taken[i] = True
        order.append(i)
    return tuple(order + left) if len(left) == len(rest) and not group else None


def regrouping_paths(kind: str, moves, before: Term, after: Term | None):
    """The paths of a flat or unflat step's `regrouping_map` `moves`: per
    moved subterm, its path in node `after` and its source path in node
    `before`, in path order of `after`, made one at a time as they are
    read. The nodes on the proper prefixes of the paths are the spines.
    Raises ValueError for an unflat map that is None."""
    if kind == "flat":
        return (((i,), src) for i, src in enumerate(moves, start=1))
    if moves is None:
        leaves = ", ".join(pretty(leaf) for _, leaf in spine_leaves(after))
        raise ValueError(f"{leaves} do not regroup the arguments of {pretty(before)}")
    return ((path, (i + 1,)) for (path, _), i in zip(spine_leaves(after), moves))


def plan_unflat(whole: Term, at: Position, target: Term, sig: Signature) -> tuple[Term, list[FlatEvent]]:
    """Stepwise regrouping of the canonical subtree at `at` into `target`:
    one event per step of `regroupings`."""
    events: list[FlatEvent] = []
    for pos, new_node, _ in regroupings(subterm_at(whole, at), target, sig):
        events.append((at.concat(pos), whole, replace_at(whole, at.concat(pos), new_node)))
        whole = events[-1][2]
    return whole, events


def regroupings(node: Term, target: Term, sig: Signature) -> Iterator[tuple[Position, Term, tuple]]:
    """The steps that regroup the canonical `node` into `target`, which must
    flatten back to it, made one at a time: each step's position below node,
    the same-operator spine the target prescribes there, built over the
    flattened node's argument objects, and the step's move map, its
    `regrouping_map`, as `_pair` found it. Deeper differences come in later
    steps, in preorder, from a stack of (position, node, target); the target's
    spine leaves are flattened only when one does not pair with an argument.
    A run makes a match's one step without it where `match_moves` can."""
    todo = [(Position(), node, target)]
    while todo:
        pos, node, tgt = todo.pop()
        if node == tgt:
            continue
        if sig.is_ac(tgt.root) and _same_op(node.root, tgt.root):
            shape = tgt
            taken = regrouping_map("unflat", node, tgt)  # by `==` alone, so no whole term is hashed
            if taken is None:  # a leaf that is not canonical: pair the flattened leaves
                shape = rebuild_spine(tgt, ((path, flatten_term(sub, sig)) for path, sub in spine_leaves(tgt)))
                taken = regrouping_map("unflat", node, shape)
            paths = regrouping_paths("unflat", taken, node, shape)  # raises unless the leaves pair
            new_node = rebuild_spine(tgt, ((dst, node.args[i - 1]) for dst, (i,) in paths))
            if new_node != node:
                yield pos, new_node, taken
            if shape is not tgt:  # regroup the leaves that are not their arguments
                pairs = list(zip(spine_leaves(tgt), spine_leaves(new_node)))
                todo += [(pos.concat(Position(path)), arg, sub) for (path, sub), (_, arg) in reversed(pairs) if arg != sub]
        elif node.root != tgt.root or len(node.args) != len(tgt.args):
            raise ValueError(f"target {pretty(tgt)} differs structurally from {pretty(node)}")
        else:
            todo += [(pos.child(i), node.args[i - 1], tgt.args[i - 1]) for i in range(len(tgt.args), 0, -1)]


def match_modulo_ac(pattern: Term, subject: Term, sig: Signature, memo: dict | None = None) -> list[tuple[Substitution, Term]]:
    """All matchers of pattern against an AC-canonical subject.

    Each matcher is paired with the instantiated pattern, i.e. the nesting
    of the subject the rewrite step operates on after regrouping. The list
    order is deterministic: argument choices are explored by increasing
    index and increasing subset size, and duplicate substitutions arising
    from equal arguments are removed.

    `memo`, a run's own or a fresh one, keeps the standalone match of each
    subpattern against each argument object (`_alone`). When pattern's
    spine subpatterns are all its arguments, the instantiated pattern is
    built over what they took (`_ac_args_match`), not by substitution.
    """
    memo = {} if memo is None else memo
    if sig.is_ac(pattern.root) and _same_op(subject.root, pattern.root):
        pats = [leaf for _, leaf in spine_leaves(pattern)]
        flat = len(pats) == len(pattern.args)
        found = [(raw, Term(pattern.root, took) if flat else None) for raw, took in _ac_args_match(pats, list(subject.args), pattern.root, {}, sig, memo, ())]
    else:
        found = [(raw, None) for raw in _match_gen(pattern, subject, {}, sig, memo)]
    results: list[tuple[Substitution, Term]] = []
    seen: set[Substitution] = set()
    for raw, shape in found:
        sub = Substitution(raw)
        if len(found) > 1:  # one matcher has no duplicate
            if sub in seen:
                continue
            seen.add(sub)
        results.append((sub, sub.apply(pattern) if shape is None else shape))
    return results


def _match_gen(p: Term, s: Term, binding: dict, sig: Signature, memo: dict):
    if isinstance(p.root, Variable):
        bound = binding.get(p.root)
        if bound is None:
            extended = dict(binding)
            extended[p.root] = s
            yield extended
        elif bound == s:
            yield binding
        return
    if sig.is_ac(p.root) and _same_op(s.root, p.root):
        pats = [leaf for _, leaf in spine_leaves(p)]
        yield from (b for b, _ in _ac_args_match(pats, list(s.args), p.root, binding, sig, memo, ()))
        return
    if p.root != s.root or len(p.args) != len(s.args):
        return
    yield from _seq_match(p.args, s.args, binding, sig, memo)


def _seq_match(ps, ss, binding, sig, memo):
    if not ps:
        yield binding
        return
    for b in _match_gen(ps[0], ss[0], binding, sig, memo):
        yield from _seq_match(ps[1:], ss[1:], b, sig, memo)


def spine_roots(pattern: Term) -> tuple[int, bool, bool, tuple]:
    """The number of spine subpatterns of a pattern (`spine_leaves`),
    whether one is a variable, whether one is a variable that occurs
    nowhere else in the pattern, and per non-variable root, in order of
    first occurrence, the subpatterns with that root."""
    spine = [leaf for _, leaf in spine_leaves(pattern)]
    named = Counter(p.root for p in spine if isinstance(p.root, Variable))
    nested = {v for p in spine for v in vars_of(p) if p.args}
    roots = dict.fromkeys(p.root for p in spine if not isinstance(p.root, Variable))
    by_root = tuple(tuple(p for p in spine if p.root == r) for r in roots)
    return len(spine), bool(named), any(k == 1 and v not in nested for v, k in named.items()), by_root


def ac_groups(spine: tuple, args: tuple[Term, ...], sig: Signature, memo: dict):
    """The argument index groups of a flattened AC node that a pattern with
    these `spine_roots` may match, largest first, in `combinations` order
    within a size; the whole node is the group of all indices. A spine
    subpattern that is not a variable takes one argument with its own root
    that it may match (`_slot`, from the run's `memo`), so the node must
    have one such argument per subpattern. With a spine variable that is
    all the slots decide: the variable may take any argument. Without one,
    a group has exactly one slotted argument per subpattern; any other
    group holds an argument no subpattern can take, and `combinations`
    over a subsequence of the indices yields a subsequence of its order
    over all of them."""
    m, vary, _, by_root = spine
    n = len(args)
    slots = {}
    for i, a in enumerate(args):
        entry = memo.get((id(by_root), id(a)))
        k = _slot(by_root, a, sig, memo) if entry is None else entry[2]
        if k is not None:
            slots[i] = k
    have = Counter(slots.values())
    if any(have[k] < len(pats) for k, pats in enumerate(by_root)):
        return
    if vary:
        for size in range(n, m - 1, -1):
            yield from combinations(range(n), size)
        return
    want = [k for k, pats in enumerate(by_root) for _ in pats]
    for idxs in combinations(slots, m):
        if sorted(slots[i] for i in idxs) == want:
            yield idxs


def _holds_ac(p: Term, sig: Signature, memo: dict) -> bool:
    """Whether pattern p holds an AC symbol, decided once per object: kept
    in the memo under p's id, with p (a run's from `RewriteTheory.holds_ac`)."""
    entry = memo.get(id(p))
    if entry is None:
        entry = memo[id(p)] = p, any(sig.is_ac(node.root) for _, node in preorder(p))
    return entry[1]


def _alone(p: Term, arg: Term, memo: dict) -> Substitution | None:
    """The syntactic matcher (`match`) of subpattern p, neither a variable
    nor holding an AC symbol, against the argument arg on its own, or None:
    p's one matcher modulo AC. Kept in the memo under the ids of the two
    objects, with both, so neither id is reused while the memo lives."""
    entry = memo.get((id(p), id(arg)))
    if entry is None:
        entry = memo[id(p), id(arg)] = p, arg, match(p, arg)
    return entry[2]


def _slot(by_root: tuple, arg: Term, sig: Signature, memo: dict) -> int | None:
    """The index in by_root (`spine_roots`) of the subpatterns with arg's
    root, when one of them may match arg: it holds an AC symbol, or it
    matches arg on its own (`_alone`); else None. Kept in the memo as
    `_alone` keeps its matchers."""
    k = next((k for k, pats in enumerate(by_root) if pats[0].root == arg.root), None)
    if k is not None and not any(_holds_ac(p, sig, memo) or _alone(p, arg, memo) is not None for p in by_root[k]):
        k = None
    memo[id(by_root), id(arg)] = by_root, arg, k
    return k


def _ac_args_match(pats: list[Term], args: list[Term], op: Symbol, binding: dict, sig: Signature, memo: dict, took: tuple):
    """Backtracking multiset match of spine subpatterns against a flattened
    argument list, yielding each binding with what the subpatterns took
    (`took` holds the earlier ones'). Variables absorb any nonempty subset
    (a single argument, or the flattened node over several); other
    subpatterns take exactly one argument each: one holding an AC symbol by
    `_match_gen` with the binding, any other by joining its standalone
    match (`_alone`) to the binding."""
    if not pats:
        if not args:
            yield binding, took
        return
    head, rest = pats[0], pats[1:]
    if isinstance(head.root, Variable):
        bound = binding.get(head.root)
        if bound is not None:
            need = list(bound.args) if _same_op(bound.root, op) else [bound]
            taken = _pair(need, args)
            if taken is not None:
                remaining = [a for i, a in enumerate(args) if i not in taken]
                yield from _ac_args_match(rest, remaining, op, binding, sig, memo, took + (bound,))
            return
        # a variable leaves one argument per later subpattern; the last takes all
        max_take = len(args) - len(rest)
        for size in range(1 if rest else max(max_take, 1), max_take + 1):
            for idxs in combinations(range(len(args)), size):
                value = args[idxs[0]] if size == 1 else Term(op, tuple(args[i] for i in idxs))
                extended = dict(binding)
                extended[head.root] = value
                remaining = [a for i, a in enumerate(args) if i not in idxs]
                yield from _ac_args_match(rest, remaining, op, extended, sig, memo, took + (value,))
        return
    if _holds_ac(head, sig, memo):
        for i, arg in enumerate(args):
            for b in _match_gen(head, arg, binding, sig, memo):
                yield from _ac_args_match(rest, args[:i] + args[i + 1 :], op, b, sig, memo, took + (Substitution(b).apply(head),))
        return
    for i, arg in enumerate(args):
        alone = _alone(head, arg, memo)
        if alone is None:
            continue
        joined = dict(binding)
        for v, t in alone.items():
            bound = joined.setdefault(v, t)
            if bound is not t and bound != t:
                break
        else:
            yield from _ac_args_match(rest, args[:i] + args[i + 1 :], op, joined, sig, memo, took + (arg,))
