"""Finite-universe ground semantics, the oracle side of the package.

Clauses are ground over an explicit finite universe of rational terms,
yielding a finite rule set whose fixed points give three interpretations:
least (inductive), greatest consistent (coinductive), and the greatest
consistent set inside the least model of clauses plus coclauses, which on a
finite base is both the flexible and the regular reading.  The clauses and
the coclauses are each ground once; the three readings share those rules.
Instances whose atoms fall outside the universe are dropped with a warning,
so results are exact only for universe-closed programs.

Grounding works on integer node ids, not on term values.  A universe
unfolds its elements together and minimises them once into its store,
closed under children, with one id per distinct tree.  A clause term
evaluates bottom-up to an id by looking up (functor, child ids); a value
outside the store gets a fresh id in an overlay local to one grounding
pass, which stays exact because such a value sits acyclically above the
store.  Builtins read ids as well, through the equations.holds the engine
uses: = and \\= compare ids, is compares the node at an id with the
computed number, and arithmetic reads the overlay's nodes.  Escape warnings
render from the overlay, and check matches the joint table of each engine
answer against the store, so a value is always an id in a node table.

Assignments are searched by an odometer over the variables in
first-occurrence order, head first and argument by argument.  Each argument
is checked as soon as its variables are bound, so the first escape or
failing builtin of a partial assignment skips all its extensions.  That
visits full assignments in the order of enumerating them all, and so keeps
the rules and the order of the warnings.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .equations import (BuiltinTypeError, SolvedForm, holds, match,
                        rational_values, solve, truncate)
from .parser import Query, SyntaxErrors, parse_term_text, term_to_str
from .terms import (Atom, Clause, Compound, Num, Program, Term, Var,
                    is_builtin, map_leaves, signatures)

# a ground atom is (predicate, universe element indexes)
GroundAtom = tuple[str, tuple[int, ...]]


class UniverseError(Exception):
    pass


class Universe:
    """Finite set of ground rational terms, without duplicates.

    Each element keeps a display name: the declared name, or the source text
    it was written as.

    The elements share one store of node ids, a minimal node table, so each
    distinct tree among them and their subterms has exactly one id: store[i]
    is the node with id i, as (kind, payload, child ids), and ids maps it
    back.  roots[e] is the id of element e, the first entry at that id, and
    element_at maps it back to e.
    """

    def __init__(self, names: Sequence[str], store: tuple,
                 roots: Sequence[int]):
        first: dict[int, str] = {}
        for name, root in zip(names, roots):
            first.setdefault(root, name)
        self.names = list(first.values())
        self.roots = list(first)
        self.store = store
        self.ids: dict[tuple, int] = {n: i for i, n in enumerate(store)}
        self.element_at: dict[int, int] = {
            r: e for e, r in enumerate(self.roots)}

    def __len__(self) -> int:
        return len(self.roots)

    def index_of(self, nodes: Sequence[tuple], root: int = 0) -> Optional[int]:
        """The element whose tree is the one at root of a node table."""
        return next((e for e, r in enumerate(self.roots)
                     if match(nodes, root, self.store, r) == {}), None)

    def display(self, i: int) -> str:
        return self.names[i]

    def atom_str(self, ga: GroundAtom) -> str:
        pred, args = ga
        if not args:
            return pred
        return f"{pred}({', '.join(self.display(i) for i in args)})"

    @classmethod
    def from_text(cls, text: str, origin: str = "<universe>") -> "Universe":
        """Parse the one-definition-per-line format.

        A line is `name := term` or a bare ground term; terms may mention
        defined names, also recursively, e.g. `omega := s(omega)`.
        """
        items: list[tuple[Optional[str], str, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("%", 1)[0]
            if not line.strip():
                continue
            name = None
            body = line
            if ":=" in line:
                name, body = line.split(":=", 1)
                body = " " * (len(name) + 2) + body  # keep the line's columns
                name = name.strip()
                if not name.isidentifier() or not name[0].islower():
                    raise UniverseError(
                        f"{origin}:{lineno}: bad universe name {name!r}")
            items.append((name, body, lineno))

        defined = {name for name, _, _ in items if name is not None}

        def link(t: Term) -> Term:
            # defined names parse as constants; turn them into variables so
            # one equation system ties all definitions together
            if isinstance(t, Compound) and t.functor in defined:
                return Var(f"#{t.functor}", 0)
            return t

        eqs = []
        names: list[str] = []
        terms: list[Term] = []
        for name, body, lineno in items:
            try:
                term = map_leaves(parse_term_text(body), link)
            except SyntaxErrors as e:
                issue = e.issues[0]
                raise UniverseError(f"{origin}:{lineno}:{issue.col}: "
                                    f"{issue.message}") from None
            if name is not None:
                eqs.append((Var(f"#{name}", 0), term))
                term = Var(f"#{name}", 0)
            names.append(body.strip() if name is None else name)
            terms.append(term)
        solved = solve(eqs)
        if solved is None:
            raise UniverseError(f"{origin}: definitions have no solution")
        u = cls(names, *rational_values(solved, terms))
        for name, root in zip(u.names, u.roots):
            # matched against itself, an element binds its variable leaves
            if match(u.store, root, u.store, root):
                raise UniverseError(
                    f"{origin}: element {name!r} is not ground")
        return u


def rt_to_str(nodes: Sequence[tuple], root: int = 0, depth: int = 8) -> str:
    """Finite rendering of the tree at root of a node table, for messages."""
    return term_to_str(truncate(nodes, depth, root))


@dataclass(frozen=True)
class GroundRule:
    premises: frozenset  # of GroundAtom
    conclusion: GroundAtom


class Overlay:
    """Node ids for one grounding pass: the universe's store, plus ids for
    the values that escape it.

    Such a value is a finite tree above store nodes, and the store is
    minimal and closed under children, so interning on (kind, payload,
    child ids) gives two nodes one id exactly when they unfold alike.  The
    universe itself is never written to.
    """

    def __init__(self, u: Universe):
        self.nodes: list[tuple] = list(u.store)
        self.ids: dict[tuple, int] = dict(u.ids)

    def intern(self, node: tuple) -> int:
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i


# ops of a compiled clause term, run in post-order on a stack of node ids:
# (_CONST, id), (_VAR, slot), or (_NODE, functor, arity) over the top ids
_CONST, _VAR, _NODE = range(3)


def _compile(t: Term, slots: dict[Var, int], overlay: Overlay) -> list[tuple]:
    """Ops that evaluate a clause term to a node id.  Ground subterms are
    interned here once; a new variable gets the next slot, so slots follow
    first occurrence."""
    ops: list[tuple] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        t, children_done = stack.pop()
        if isinstance(t, Var):
            ops.append((_VAR, slots.setdefault(t, len(slots))))
        elif isinstance(t, Num):
            ops.append((_CONST, overlay.intern(("n", t.value, ()))))
        elif not children_done:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
        else:
            n = len(t.args)
            # a constant child compiles to exactly one _CONST op
            kids = ops[len(ops) - n:]
            if all(op[0] == _CONST for op in kids):
                del ops[len(ops) - n:]
                ops.append((_CONST, overlay.intern(
                    ("f", t.functor, tuple(op[1] for op in kids)))))
            else:
                ops.append((_NODE, t.functor, n))
    return ops


def _evaluate(ops: list[tuple], env: list[int], overlay: Overlay) -> int:
    stack: list[int] = []
    for op in ops:
        tag = op[0]
        if tag == _VAR:
            stack.append(env[op[1]])
        elif tag == _CONST:
            stack.append(op[1])
        else:
            n = op[2]
            kids = tuple(stack[-n:])
            del stack[-n:]
            stack.append(overlay.intern(("f", op[1], kids)))
    return stack[0]


def ground_instances(clauses: Sequence[Clause],
                     u: Universe) -> tuple[frozenset, tuple[str, ...]]:
    """Every instance of every clause with variables drawn from the universe.

    Builtin body atoms are evaluated away: a failing builtin drops the
    instance silently, a type error drops it with a warning.  Any other atom
    whose arguments leave the universe drops the instance with a warning.
    """
    overlay = Overlay(u)
    rules: set[GroundRule] = set()
    # a type error's message, or the (predicate, node id) of an escape
    pending: dict = {}
    for clause in clauses:
        _ground_clause(clause, u, overlay, rules, pending)
    warnings = [key if isinstance(key, str) else
                f"instance escapes the universe: {key[0]} on "
                f"{rt_to_str(overlay.nodes, key[1])}" for key in pending]
    return frozenset(rules), tuple(dict.fromkeys(warnings))


def _ground_clause(clause: Clause, u: Universe, overlay: Overlay,
                   rules: set, pending: dict) -> None:
    """Add the clause's ground instances to rules, and the first failure of
    each dropped instance to pending.

    An odometer over the variables in first-occurrence order, head first
    and argument by argument, so full assignments come in the order of
    itertools.product over the elements.  checks[k] holds the argument and
    builtin checks that come after the first k variables are bound and
    before the next one.  A failing check moves the last bound variable on
    to its next element: every assignment of the later variables would fail
    there with the same value, and they are skipped.
    """
    slots: dict[Var, int] = {}
    # (pred, row position, ops) for an argument of a non-builtin atom, and
    # (pred, None, ops per argument) for a builtin
    checks: dict[int, list[tuple]] = {}
    spans: list[tuple[str, int, int]] = []  # non-builtin atoms in row
    width = 0
    for atom in (clause.head, *clause.body):
        if is_builtin(atom):
            if atom.args:  # true/0 always holds
                ops = [_compile(t, slots, overlay) for t in atom.args]
                checks.setdefault(len(slots), []).append((atom.pred, None, ops))
            continue
        start = width
        for t in atom.args:
            ops = _compile(t, slots, overlay)
            checks.setdefault(len(slots), []).append((atom.pred, width, ops))
            width += 1
        spans.append((atom.pred, start, width))

    roots, element_at = u.roots, u.element_at
    env = [0] * len(slots)
    row = [0] * width

    def passes(level: int) -> bool:
        for pred, position, ops in checks.get(level, ()):
            if position is not None:
                value = _evaluate(ops, env, overlay)
                e = element_at.get(value)
                if e is None:
                    pending.setdefault((pred, value))
                    return False
                row[position] = e
                continue
            try:
                if not holds(pred, overlay.nodes,
                             *[_evaluate(o, env, overlay) for o in ops]):
                    return False
            except BuiltinTypeError as e:
                pending.setdefault(
                    f"dropped instance of {pred}/{len(ops)}: {e}")
                return False
        return True

    choice = [-1] * len(env)
    k = 0 if passes(0) else -1
    while k >= 0:
        if k == len(env):
            ground = [(pred, tuple(row[a:b])) for pred, a, b in spans]
            rules.add(GroundRule(frozenset(ground[1:]), ground[0]))
            k -= 1
            continue
        c = choice[k] + 1
        if c == len(roots):
            choice[k] = -1
            k -= 1
            continue
        choice[k] = c
        env[k] = roots[c]
        if passes(k + 1):
            k += 1


def immediate_consequences(rules: frozenset, interp: frozenset) -> frozenset:
    return frozenset(r.conclusion for r in rules if r.premises <= interp)


def least_model(rules: frozenset) -> frozenset:
    interp: frozenset = frozenset()
    while True:
        nxt = immediate_consequences(rules, interp)
        if nxt == interp:
            return interp
        interp = nxt


def greatest_consistent_within(rules: frozenset, bound: frozenset) -> frozenset:
    """Largest X inside bound with X included in its own one-step
    consequences, by downward iteration from the bound."""
    interp = bound
    while True:
        nxt = interp & immediate_consequences(rules, interp)
        if nxt == interp:
            return interp
        interp = nxt


def herbrand_base(prog: Program, u: Universe) -> frozenset:
    base: set[GroundAtom] = set()
    for pred, arity in signatures(prog.clauses + prog.coclauses):
        for combo in itertools.product(range(len(u)), repeat=arity):
            base.add((pred, combo))
    return frozenset(base)


@dataclass(frozen=True)
class SemanticsResult:
    ind: frozenset
    coind: frozenset
    reg: frozenset
    ind_all: frozenset       # least model of clauses plus coclauses
    rules: frozenset         # ground instances of the clauses
    base: frozenset
    warnings: tuple[str, ...]


def compute_semantics(prog: Program, u: Universe) -> SemanticsResult:
    rules, warn1 = ground_instances(prog.clauses, u)
    corules, warn2 = ground_instances(prog.coclauses, u)
    ind = least_model(rules)
    base = herbrand_base(prog, u)
    coind = greatest_consistent_within(rules, base)
    ind_all = least_model(rules | corules)
    reg = greatest_consistent_within(rules, ind_all)
    warnings = dict.fromkeys(warn1)
    warnings.update(dict.fromkeys(warn2))
    return SemanticsResult(ind, coind, reg, ind_all, rules, base,
                           tuple(warnings))


def regular_answers(query: Query, u: Universe,
                    reg: frozenset) -> frozenset:
    """Ground answers to a query: assignments of its variables to universe
    elements (anonymous variables enumerated but projected away) under which
    builtins hold and every other atom lies in the given interpretation.

    The query is ground as the clause  ?-(V1, ..., Vn) :- query atoms  over
    its named variables; an answer is the head of an instance whose
    premises all lie in the interpretation.
    """
    clause = Clause(Atom("?-", query.variables), query.atoms)
    rules, _ = ground_instances([clause], u)
    return frozenset(r.conclusion[1] for r in rules if r.premises <= reg)


def universe_instantiations(solved: SolvedForm, qvars: Sequence[Var],
                            u: Universe) -> frozenset:
    """All ways an engine answer lands inside the universe, when each free
    variable leaf becomes one universe element throughout.  The query
    variables' values are built into one table, and each is matched against
    the store at the root of each element, which fixes the node of each
    leaf; a match stands when every leaf's node is the root of an element.
    The matches of the query variables are then joined on shared leaves."""
    nodes, vroots = rational_values(solved, qvars)
    joined: list[tuple[tuple[int, ...], dict[str, int]]] = [((), {})]
    for vroot in vroots:
        options = []
        for i, root in enumerate(u.roots):
            leaves = match(nodes, vroot, u.store, root)
            if leaves is None:
                continue
            at = {p: u.element_at.get(j) for p, j in leaves.items()}
            if None not in at.values():
                options.append((i, at))
        joined = [(row + (i,), {**env, **at})
                  for row, env in joined for i, at in options
                  if all(env.get(p, k) == k for p, k in at.items())]
    return frozenset(row for row, _ in joined)
