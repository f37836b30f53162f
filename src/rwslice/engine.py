"""Rewrite theories, equational normalization, and instrumented traces.

A rewrite step modulo the equational theory is exposed in fully expanded
form: equational simplification (oriented equations, builtin evaluation,
flattening) down to the canonical form, the regrouping steps an AC match
requires, one rule application, and the simplification of the result.
Every elementary transformation becomes one trace step.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from . import builtin_ops
from .acmatch import (
    ac_groups,
    flatten_term,
    match_modulo_ac,
    match_moves,
    needs_flat,
    one_level_flat,
    rebuild_spine,
    regrouping_map,
    regrouping_paths,
    regroupings,
    spine_roots,
)
from .terms import (
    EMPTY_SUBST,
    HOLE_TERM,
    Position,
    PositionOutOfRange,
    ROOT,
    RwsliceError,
    Signature,
    Substitution,
    Symbol,
    Term,
    Variable,
    _Record,
    _setattr,
    is_ground,
    match,
    preorder,
    pretty,
    printed_length,
    replace_at,
    subterm_at,
)

DEFAULT_STEP_BUDGET = 10_000


class NoRuleApplicable(RwsliceError):
    pass


class StepBudgetExceeded(RwsliceError):
    pass


class MalformedStep(RwsliceError):
    """A trace step that cannot be replayed against its theory. `index`,
    when known, is the step's index in its trace."""

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(reason if index is None else f"step {index}: {reason}")
        self.reason, self.index = reason, index


class TheoryError(RwsliceError):
    pass


class Rule(_Record):
    """Oriented rewrite rule or equation; the left-hand side is not a
    variable and binds every variable of the right-hand side."""

    _fields = ("name", "lhs", "rhs", "kind")

    def __init__(self, name: str, lhs: Term, rhs: Term, kind: str = "rule"):  # kind: rule | equation
        super().__init__(name, lhs, rhs, kind)
        if isinstance(self.lhs.root, Variable):
            raise TheoryError(f"{self.name}: left-hand side must not be a variable")
        missing = [v for v in self.rhs_occurrences if v not in self.lhs_occurrences]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise TheoryError(f"{self.name}: unbound right-hand side variables {names}")
        if self.kind not in ("rule", "equation"):
            raise TheoryError(f"{self.name}: bad kind {self.kind}")

    def is_collapsing(self) -> bool:
        return isinstance(self.rhs.root, Variable)

    def is_left_linear(self) -> bool:
        return not self.repeated_variables()

    def repeated_variables(self) -> list[Variable]:
        """Variables occurring more than once in the left-hand side, in
        order of first occurrence."""
        return [v for v, occ in self.lhs_occurrences.items() if len(occ) > 1]

    @cached_property
    def lhs_occurrences(self) -> dict[Variable, list[tuple[int, ...]]]:
        """The argument paths of each variable's occurrences in the
        left-hand side, computed once per rule (`_occurrences`)."""
        return _occurrences(self.lhs)

    @cached_property
    def rhs_occurrences(self) -> dict[Variable, list[tuple[int, ...]]]:
        """The same table for the right-hand side."""
        return _occurrences(self.rhs)

    @cached_property
    def lhs_spine(self) -> tuple[int, bool, bool, tuple]:
        """`acmatch.spine_roots` of the left-hand side, computed once per
        rule; the engine reads it at AC nodes (`ac_groups`, `_candidates_at`)."""
        return spine_roots(self.lhs)

    @cached_property
    def lhs_symbols(self) -> frozenset[Symbol]:
        """The operator symbols of the left-hand side; `_candidates_at`
        matches it syntactically when none is AC."""
        return frozenset(node.root for _, node in preorder(self.lhs) if isinstance(node.root, Symbol))

    def redex_pattern(self) -> Term:
        return _to_pattern(self.lhs)

    def contractum_pattern(self) -> Term:
        return _to_pattern(self.rhs)


def _occurrences(t: Term) -> dict[Variable, list[tuple[int, ...]]]:
    """The argument paths of each variable's occurrences in t, in preorder,
    so the variables come in order of first occurrence."""
    out: dict[Variable, list[tuple[int, ...]]] = {}
    for path, node in preorder(t):
        if isinstance(node.root, Variable):
            out.setdefault(node.root, []).append(path)
    return out


def _to_pattern(t: Term) -> Term:
    """t with a hole for each variable, built bottom-up over its preorder
    walk reversed (`terms.preorder`), children before parents."""
    built = {}
    for _, node in reversed(list(preorder(t))):
        built[id(node)] = HOLE_TERM if isinstance(node.root, Variable) else Term(node.root, tuple(built[id(a)] for a in node.args))
    return built[id(t)]


class RewriteTheory:
    """Signature plus oriented equations and rewrite rules."""

    def __init__(
        self,
        signature: Signature,
        equations: list[Rule] | tuple[Rule, ...] = (),
        rules: list[Rule] | tuple[Rule, ...] = (),
        name: str = "",
    ):
        self.signature = signature
        self.equations = list(equations)
        self.rules = list(rules)
        self.name = name
        self._by_name: dict[str, Rule] = {}
        for r in self.equations:
            if r.kind != "equation":
                raise TheoryError(f"{r.name}: equations list holds kind {r.kind}")
            self._register(r)
        for r in self.rules:
            if r.kind != "rule":
                raise TheoryError(f"{r.name}: rules list holds kind {r.kind}")
            self._register(r)
        self._check_builtins()

    def _register(self, r: Rule):
        if r.name in self._by_name:
            raise TheoryError(f"duplicate rule name {r.name}")
        self._by_name[r.name] = r

    def _check_builtins(self):
        for r in self.equations + self.rules:
            root = r.lhs.root
            if isinstance(root, Symbol) and self.signature.is_builtin(root):
                raise TheoryError(f"{r.name}: builtin operator {root.name} cannot head a left-hand side")
        for decl in self.signature.ops():
            if decl.builtin:
                op = builtin_ops.REGISTRY.get(decl.symbol.name)
                if op is None:
                    raise TheoryError(f"no builtin implementation for {decl.symbol.name}")
                if op.arity != decl.symbol.arity:
                    raise TheoryError(f"{decl.symbol.name}: builtin arity {op.arity}, declared {decl.symbol.arity}")

    def find_rule(self, name: str) -> Rule | None:
        return self._by_name.get(name)

    @cached_property
    def holds_ac(self) -> dict:
        """`acmatch._holds_ac`'s memo entries for the subpatterns of each AC
        left-hand side, made once, children first; each run's memo copies it."""
        memo, sig = {}, self.signature
        for r in self.equations + self.rules:
            nodes = [r.lhs] if not r.lhs_symbols.isdisjoint(sig.ac_symbols) else []
            for node in nodes:  # the list grows as it is read
                nodes += node.args
            for p in reversed(nodes):  # an AC operator takes arguments, so a leaf's is not one
                memo[id(p)] = p, bool(p.args) and (sig.is_ac(p.root) or any(memo[id(a)][1] for a in p.args))
        return memo


class TraceStep(_Record):
    """One elementary step of a trace, from before to after at position."""

    _fields = ("kind", "rule_name", "position", "matcher", "before", "after")

    def __init__(self, kind: str, rule_name: str | None, position: Position, matcher: Substitution, before: Term, after: Term):
        _setattr(self, "kind", kind)  # rule | equation | flat | unflat | builtin
        _setattr(self, "rule_name", rule_name)
        _setattr(self, "position", position)
        _setattr(self, "matcher", matcher)
        _setattr(self, "before", before)
        _setattr(self, "after", after)

    @cached_property
    def moves(self) -> tuple | None:
        """The move map a flat or unflat step keeps, its `regrouping_map`: one
        entry per moved argument. `_Steps.add` keeps its replay's: a flat
        step's `one_level_flat` map, an unflat one's as its producer knew it
        (a run's AC match, `match_moves`, or `regroupings`; the loader's
        `_read_spine`). A step built otherwise computes it when first read."""
        q = self.position
        after = subterm_at(self.after, q) if self.kind == "unflat" else None
        return regrouping_map(self.kind, subterm_at(self.before, q), after)


class InstrumentedTrace(_Record):
    """A trace of `theory` from `initial`. Every trace is checked once, when
    it is built: its steps chain and each one replays (`check_step`), or
    MalformedStep names the first that does not. Steps given as a `_Steps`
    of the theory are not checked again: `_Steps.add` made each by its
    replay, and the run and the loader chain them from `initial`. The trace
    is immutable (`steps` is stored as a tuple), so the check stays true."""

    _fields = ("theory", "initial", "steps")

    def __init__(self, theory: RewriteTheory, initial: Term, steps: tuple[TraceStep, ...] = ()):
        super().__init__(theory, initial, tuple(steps))
        if isinstance(steps, _Steps) and steps.th is self.theory:
            return  # made by `_Steps.add`
        prev, checked = self.initial, _Steps(self.theory, 0)
        for i, step in enumerate(self.steps):
            if step.before != prev:
                raise MalformedStep("steps do not chain", i)
            if not check_step(step, self.theory, steps=checked):
                raise MalformedStep(f"{step.kind} step at {step.position} does not replay", i)
            prev = step.after

    def terms(self) -> list[Term]:
        return [self.initial] + [s.after for s in self.steps]

    @cached_property
    def printed_size(self) -> int:
        """len(trace_string(self.terms())) (`slicer.trace_string`), which the
        loader sums as it reads each term's print. Otherwise it is computed
        when first read, without printing a term: consecutive terms differ
        only at the step's position, so each term's length is the previous
        one's, minus the printed length of the step's redex, plus that of
        its contractum (`printed_length`, its memo kept for the call; the
        trace keeps every node alive). A flat step drops len(op) + 2, for a
        name and two parentheses, per child it merges, and an unflat step
        adds that per spine node below the top: read off the move map and
        the spine, not printed."""
        lengths: dict[int, int] = {}
        size = total = printed_length(self.initial, lengths)
        for step in self.steps:
            q = step.position
            if step.kind not in ("flat", "unflat"):
                size += printed_length(subterm_at(step.after, q), lengths) - printed_length(subterm_at(step.before, q), lengths)
            elif step.kind == "flat":  # the children with no move (i,) are merged
                node = subterm_at(step.before, q)
                size -= (len(node.root.name) + 2) * (len(node.args) - 2 * len(step.moves) + sum(map(len, step.moves)))
            else:
                spine = [subterm_at(step.after, q)]
                for node in spine:  # the list grows as it is read
                    spine += [a for a in node.args if a.args and a.root == spine[0].root]
                size += (len(spine) - 1) * (len(spine[0].root.name) + 2)
            total += 4 + size  # " -> " before each later term
        return total

    def final(self) -> Term:
        return self.steps[-1].after if self.steps else self.initial


# the scan kinds in the strategy's priority order; kind k is bit 1 << k of
# a scan's masks (`_Steps.first`)
KINDS = ("flat", "builtin", "equation", "rule")
FLAT, BUILTIN, EQUATION, RULE = 1, 2, 4, 8


class _Steps(list):
    """The steps of a run of `th`, a list that refuses to grow past `limit`,
    and the run's strategy. `tests` holds the node test of each scan kind,
    in priority order (`KINDS`): flat, builtin, equation, then rule.
    `roots`, built once per run from the signature and the rules, gives
    per root name the mask of the kinds a node with that root admits: flat
    at an AC root, builtin at a builtin one, equation or rule where some
    left-hand side of that kind has the root. A name declared at several
    arities admits the kinds of each, which the tests tell apart; a name
    not in it admits none, and its nodes are not tested. `searched` is the
    one memo of the walk (`first`), read by the scan and by the replay's
    canonical check (`add`, `replay_step`). `joins` is the equation and
    rule tests' memo (`acmatch.match_modulo_ac`, `acmatch.ac_groups`), so
    a step matches only the arguments it built. `simplify` and `rewrite`
    are the masks of the kinds some root admits. A check or a load that
    makes no step keeps one with `limit` 0 for its memo alone."""

    def __init__(self, th: RewriteTheory, limit: int):
        super().__init__()
        self.th, self.limit = th, limit
        sig = th.signature
        self.joins = joins = dict(th.holds_ac)  # bound below without `self`, so the run frees it without the collector
        self.tests = {
            "flat": lambda node: needs_flat(node, sig) or None,
            "builtin": lambda node: _builtin_value(node, sig),
            "equation": lambda node: next(_candidates_at(node, th.equations, sig, joins), None),
            "rule": lambda node: next(_candidates_at(node, th.rules, sig, joins), None),
        }
        roots: dict[str, int] = {}
        admitted = 0
        kinds = [(s, FLAT) for s in sig.ac_symbols] + [(d.symbol, BUILTIN) for d in sig.ops() if d.builtin]
        kinds += [(r.lhs.root, EQUATION) for r in th.equations] + [(r.lhs.root, RULE) for r in th.rules]
        for root, kind in kinds:
            roots[root.name] = roots.get(root.name, 0) | kind
            admitted |= kind
        self.roots = roots
        self.simplify, self.rewrite = admitted & ~RULE, admitted & RULE
        self.searched: dict[int, tuple] = {}

    def first(self, t: Term, wanted: int):
        """(kind, position, result) of the first kind of the mask `wanted`,
        in priority order, for which its test in `tests` is not None at some
        node of t, at the kind's first such node in leftmost-innermost
        (postorder) order; or None. One walk on an explicit stack, not
        recursion, building a position only for a hit.

        At each node it tests, in priority order, the wanted kinds that
        `roots` admits there. A hit keeps only the kinds ranked above it
        wanted, and the walk stops when none is. `searched` maps id(node)
        to the node, the mask of the kinds with no hit in its subtree, and
        the hit found at the node itself, (kind index, result), or None;
        the walk skips a subtree whose mask covers the wanted kinds, tests
        no kind its mask holds, and adds to it the kinds still wanted when
        the subtree is done. A hit the walk passes over for a higher kind
        found later is kept there, so the next walks read it instead of
        testing again while the higher kind's steps go first. When each
        test depends on nothing but its node's subtree, a skipped subtree
        has no hit and a kept hit is the test's result wherever the node is
        shared, terms being immutable. Holding the node keeps its id from
        being reused. A node with flat admitted, two arguments or more (so
        an AC node: no other arity of an AC operator's name takes two) and
        its parent's root is tested for flat alone while flat is wanted:
        the parent needs flat, and that hit ends the walk."""
        searched, admits, tests = self.searched, self.roots.get, self.tests.values()
        entry = searched.get(id(t))
        if entry is not None and not wanted & ~entry[1]:
            return None
        best = None
        nodes, next_child, entries = [t], [0], [entry]
        while nodes:
            node, i = nodes[-1], next_child[-1]
            if i < len(node.args):
                next_child[-1] = i + 1
                child = node.args[i]
                if not child.args and not admits(child.root.name, 0) & wanted:
                    continue  # a leaf that admits no wanted kind
                entry = searched.get(id(child))
                if entry is None or wanted & ~entry[1]:
                    nodes.append(child)
                    next_child.append(0)
                    entries.append(entry)
                continue
            entry = entries.pop()
            known, stored = (0, None) if entry is None else entry[1:]
            cached = stored
            here, settled = admits(node.root.name, 0), wanted
            if here & wanted & FLAT and len(node.args) > 1 and len(nodes) > 1 and nodes[-2].root == node.root:
                here, settled = FLAT, FLAT
            here &= wanted & ~known
            if here:
                for k, test in enumerate(tests):
                    if here >> k & 1:
                        result = cached[1] if cached is not None and cached[0] == k else test(node)
                        if result is not None:
                            best = KINDS[k], Position(tuple(next_child[:-1])), result
                            wanted &= (1 << k) - 1
                            if not wanted:
                                return best
                            cached = k, result
                            break
            settled &= wanted
            if settled & ~known or cached is not stored:
                searched[id(node)] = node, known | settled, cached
            nodes.pop()
            next_child.pop()
        return best

    def take(self, t: Term, kind: str, q: Position, hit) -> Term:
        """Makes the step for `first`'s hit at q in t: a flat step, whose node
        it records as flat-settled in `searched` when no argument has the
        node's root and each is a leaf that admits no flat or a node with
        the flat bit there; a builtin step; or a rule or equation candidate's
        unflat step, its target with the map `match_moves` reads off the AC
        match, or else the steps `regroupings` makes, then its own step,
        which must bind its matcher. Returns the term it leads to."""
        if kind == "builtin":
            return self.add(kind, hit[0], q, t).after
        if kind == "flat":
            t = self.add(kind, None, q, t).after
            node, searched, admits = subterm_at(t, q), self.searched, self.roots.get
            if all(a.root != node.root and (searched.get(id(a), (0, 0))[1] & FLAT if a.args else not admits(a.root.name, 0) & FLAT) for a in node.args):
                searched[id(node)] = node, FLAT, None
            return t
        rule, sub, target, rel = hit  # relative to the node at q (`_candidates_at`)
        node, sig = subterm_at(t, q), self.th.signature
        moves = None if target is node or not sig.is_ac(node.root) else match_moves(
            node, *((target.args[0], target.args[1:]) if rel.path else (target, ())))
        if moves is None:
            for pos, spine, moves in regroupings(node, target, sig):
                pos = q.concat(pos)
                t = self.add("unflat", None, pos, t, replace_at(t, pos, spine), moves).after
        elif target != node:
            t = self.add("unflat", None, q, t, replace_at(t, q, target), moves).after
        step = self.add(kind, rule.name, q.concat(rel), t)
        if step.matcher != sub:
            raise MalformedStep(f"the matcher at {step.position} is {step.matcher}, not {sub}")
        return step.after

    def add(self, kind: str, name: str | None, q: Position, before: Term, spine=None, moves=None) -> TraceStep:
        """The one maker of the steps of a run and of a load: makes the step
        of `kind` named `name` at q from before by its replay (`replay_step`,
        whose canonical check reads and extends the flat bits of this memo),
        with the replay's matcher and after term, keeps the replay's move map
        (`TraceStep.moves`), appends it within `limit` and returns it. Only an
        unflat step reads spine and moves (`replay_step`)."""
        if len(self) >= self.limit:
            raise StepBudgetExceeded(f"more than {self.limit} elementary steps")
        sub, after, moves = replay_step(kind, name, q, before, self.th, spine=spine, moves=moves, steps=self)
        step = TraceStep(kind, name, q, sub, before, after)
        _setattr(step, "moves", moves)  # its cached property, known here
        self.append(step)
        return step


def _candidates_at(node: Term, rules: list[Rule], sig: Signature, joins: dict):
    """Deterministic candidate enumeration at one node: rules in declaration
    order; per rule, matches over the whole node first, then over proper
    sub-multisets of a flattened AC node (the remaining arguments stay put,
    larger groups first, `combinations` order within a size). A rule whose
    left-hand side has another root symbol than the node is skipped: it
    cannot match there, and a flattened AC node keeps its binary symbol as
    root. A left-hand side with no AC symbol is matched syntactically
    (`match`): its one matcher, if any, with the node itself as the
    regrouped subtree. Other left-hand sides go to `match_modulo_ac` with
    the run's memo `joins`, which matches each spine subpattern against
    each argument object once a run and joins those matches. At an AC
    node only the groups `ac_groups` gives are matched: every other group
    has no matcher, so the candidates are those of all groups of all
    sizes, in order. No group has a matcher when the whole node has none
    and a spine variable occurs once in the left-hand side: it could take
    the other arguments too. Each candidate is (rule, matcher, regrouped
    subtree, rewrite position relative to the node)."""
    n = len(node.args)
    for rule in rules:
        root = rule.lhs.root
        if root != node.root:
            continue
        if rule.lhs_symbols.isdisjoint(sig.ac_symbols):
            sub = match(rule.lhs, node)
            if sub is not None:
                yield rule, sub, node, ROOT
            continue
        spine = rule.lhs_spine
        for idxs in ac_groups(spine, node.args, sig, joins) if sig.is_ac(root) else (range(n),):
            if len(idxs) == n:
                whole = match_modulo_ac(rule.lhs, node, sig, joins)
                yield from ((rule, sub, shape, ROOT) for sub, shape in whole)
                if not whole and spine[2]:
                    break
                continue
            group = Term(node.root, tuple(node.args[i] for i in idxs))
            for sub, shape in match_modulo_ac(rule.lhs, group, sig, joins):
                rest = tuple(node.args[i] for i in range(n) if i not in idxs)
                target = Term(node.root, (shape,) + rest)
                yield (rule, sub, target, Position((1,)))


def _builtin_value(node: Term, sig: Signature):
    """(operator name, value) of a ground builtin call that evaluates."""
    root = node.root
    if isinstance(root, Symbol) and sig.is_builtin(root) and is_ground(node):
        value = builtin_ops.eval_builtin(builtin_ops.REGISTRY[root.name], node.args)
        if value is not None:
            return root.name, value
    return None


def normalize(t: Term, th: RewriteTheory, max_steps: int | None = None) -> tuple[Term, list[TraceStep]]:
    """Equational canonical form of t with the steps taken to reach it:
    the strategy's flat, builtin and equation steps (`_drive`), up to the
    first canonical term."""
    trace, _ = _drive(t, th, max_steps, lambda *_: True)
    return trace.final(), list(trace.steps)


def _drive(
    t0: Term,
    th: RewriteTheory,
    max_steps: int | None,
    done: Callable[[Term, int], bool],
) -> tuple[InstrumentedTrace, bool]:
    """The deterministic strategy from t0, one elementary step at a time:
    the first hit among flat, builtin and equation (`_Steps.simplify`); when
    none hits, the term is canonical, and the run stops if done(term, rule
    steps taken) holds, else takes a rule step. `finished` is False when the
    run stopped earlier because no rule applies. done is read before each
    step's walk, which looks for a rule too unless it holds, so its answer
    counts only on a canonical term, and a finished run searches no rule.
    Each step takes one walk (`_Steps.first`) and is made by its replay
    (`_Steps.add`), so checked once. The run keeps one memo of the kinds
    with no hit in each searched subtree: a step shares every subtree off
    its path, so later walks search only the contractum and its new
    ancestors. The memo lives for one run: the tests depend on its theory,
    and the nodes it holds would otherwise outlive the trace."""
    out = _Steps(th, DEFAULT_STEP_BUDGET if max_steps is None else max_steps)
    t, rule_steps = t0, 0
    while True:
        finished = done(t, rule_steps)
        hit = out.first(t, out.simplify if finished else out.simplify | out.rewrite)
        if hit is None:  # t is canonical, and finished or stuck
            return InstrumentedTrace(th, t0, out), finished
        rule_steps += hit[0] == "rule"
        t = out.take(t, *hit)


def rewrite_step_modulo_E(
    t: Term,
    th: RewriteTheory,
    max_steps: int | None = None,
) -> tuple[Term, list[TraceStep]]:
    """One rule application modulo the equational theory, fully expanded:
    simplification of t, the regrouping steps the AC match needs, the rule
    step itself, and simplification of the result."""
    trace, finished = _drive(t, th, max_steps, lambda _, n: n == 1)
    if not finished:
        raise NoRuleApplicable(f"no rule applies to {pretty(trace.final())}")
    return trace.final(), list(trace.steps)


def run(
    t0: Term,
    th: RewriteTheory,
    max_rule_steps: int,
    max_steps: int | None = None,
) -> InstrumentedTrace:
    """Deterministic instrumented run: up to max_rule_steps rule
    applications, stopping early when no rule applies."""
    return _drive(t0, th, max_steps, lambda _, n: n >= max_rule_steps)[0]


def run_until(
    t0: Term,
    end: Term,
    th: RewriteTheory,
    max_steps: int | None = None,
) -> InstrumentedTrace:
    """Follow the deterministic strategy until the canonical form of `end`
    shows up at a rule-step boundary. Raises NoRuleApplicable when the run
    stops elsewhere, StepBudgetExceeded when the budget runs out first."""
    target = flatten_term(end, th.signature)
    trace, finished = _drive(t0, th, max_steps, lambda t, _: t == target)
    if not finished:
        raise NoRuleApplicable(
            f"end state {pretty(end)} not reached; the run stops at {pretty(trace.final())}"
        )
    return trace


def apply_step(step: TraceStep, th: RewriteTheory, t: Term) -> Term:
    """The step's transformation applied to any term t. Rule and equation
    steps match the rule's left-hand side syntactically at the step's
    position, builtin steps evaluate the ground call of the named operator
    there, and flat and unflat steps replay the step's move map (`moves`,
    read from its own before node and, for unflat, the spine of its after
    node) position by position on t's node, which must have
    the before node's root and argument count at the spine nodes the step
    takes apart. Raises MalformedStep when the step does not apply to t."""
    q = step.position
    try:
        node = subterm_at(t, q)
        if step.kind not in ("flat", "unflat"):
            return replace_at(t, q, _contract(step.kind, step.rule_name, th, node)[1])
        if step.kind == "unflat" and step.moves is None:
            raise MalformedStep(f"no regrouping at {q}")
        # positional, independent of the order node's arguments would sort into
        before = subterm_at(step.before, q)
        def at(src):  # the subterm of node at a source path, node shaped like before on the way
            sub, ref = node, before
            for i in src:
                if sub is not ref and (sub.root != ref.root or len(sub.args) != len(ref.args)):
                    raise MalformedStep(f"{pretty(node)} is not shaped like {pretty(before)}")
                sub, ref = sub.args[i - 1], ref.args[i - 1]
            return sub
        if step.kind == "flat":  # one level: the moved arguments in order, from the map
            return replace_at(t, q, Term(node.root, tuple(map(at, step.moves))))
        after = subterm_at(step.after, q)
        return replace_at(t, q, rebuild_spine(after, ((d, at(s)) for d, s in regrouping_paths("unflat", step.moves, before, after))))
    except PositionOutOfRange as exc:
        raise MalformedStep(str(exc)) from None


def _contract(kind: str, name: str | None, th: RewriteTheory, node: Term) -> tuple[Substitution, Term]:
    """The matcher a rule, equation or builtin step named `name` binds at
    `node` and the node that replaces it."""
    if kind in ("rule", "equation"):
        rule = th.find_rule(name or "")
        if rule is None or rule.kind != kind:
            raise MalformedStep(f"no {kind} named {name}")
        sub = match(rule.lhs, node)
        if sub is None:
            raise MalformedStep(f"{rule.name} does not match {pretty(node)}")
        return sub, sub.apply(rule.rhs)
    if kind == "builtin":
        found = _builtin_value(node, th.signature)
        if found is None or found[0] != name:
            raise MalformedStep(f"not a ground call of builtin {name} that evaluates: {pretty(node)}")
        return EMPTY_SUBST, found[1]
    raise MalformedStep(f"unknown step kind {kind}")


def replay_step(kind: str, name: str | None, q: Position, before: Term, th: RewriteTheory, *, spine: Term | None = None,
                moves: tuple | None = None, steps: _Steps | None = None) -> tuple[Substitution, Term, tuple | None]:
    """The matcher, the after term and the move map the theory gives the step
    of `kind` named `name` at q from before: the kind's preconditions hold,
    then its rewrite at q. The matcher is the rule's left-hand side's there
    for a rule or equation step, else empty: `take` compares it with its
    candidate's (`_Steps.add`), `parse_trace` with its record's,
    `check_step` with the step's own. Only a builtin step has a name, its
    operator's; only a flat or unflat step has a move map. A flat step's
    precondition is an AC node whose move map is not the identity
    (`needs_flat`); it takes the node and map `one_level_flat` makes. An
    unflat step's new node is spine's at q, and its map is moves, as its
    producer knew it, else `regrouping_map`'s; its precondition is that its
    node is AC and canonical (a flat walk, `first(node, FLAT)`, of `steps`,
    which reads and extends the flat bits of its memo) and the new node has
    its root, differs from it, and has a map: exactly its arguments as
    leaves. Other kinds rewrite as `apply_step` does. `_Steps.add` passes
    its own `_Steps` as `steps`, a check one for all its steps, else the
    walk uses a fresh one. Raises MalformedStep when the step does not
    replay."""
    sig = th.signature
    try:
        node = subterm_at(before, q)
        if kind not in ("flat", "unflat"):
            sub, new_node = _contract(kind, name, th, node)
            return sub, replace_at(before, q, new_node), None
        if kind == "flat":
            new_node, moves = one_level_flat(node) if sig.is_ac(node.root) else (node, None)
            if moves is None or moves == tuple(zip(range(1, len(node.args) + 1))):
                raise MalformedStep(f"nothing to flatten at {q}")
        else:
            new_node = subterm_at(spine, q)
            moves = regrouping_map(kind, node, new_node) if moves is None else moves
            regroups = moves is not None and sig.is_ac(node.root) and new_node.root == node.root and new_node != node
            if not regroups or (_Steps(th, 0) if steps is None else steps).first(node, FLAT):
                raise MalformedStep(f"no regrouping at {q}")
        if name is not None:
            raise MalformedStep(f"a {kind} step has no name")
        return EMPTY_SUBST, replace_at(before, q, new_node), moves
    except PositionOutOfRange as exc:
        raise MalformedStep(str(exc)) from None


def check_step(step: TraceStep, th: RewriteTheory, *, steps: _Steps | None = None) -> bool:
    """Replay check: the step replays from its own fields, its after term
    as the spine (`replay_step`, with the memo of `steps` when given), and
    its matcher and after term are the replay's."""
    try:
        sub, after, _ = replay_step(step.kind, step.rule_name, step.position, step.before, th, spine=step.after, steps=steps)
        return sub == step.matcher and after == step.after
    except MalformedStep:
        return False
