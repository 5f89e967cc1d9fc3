"""Finite-universe ground semantics, the oracle side of the package.

Clauses are ground over an explicit finite universe of rational terms,
yielding a finite rule set whose fixed points give three interpretations:
least (inductive), greatest consistent (coinductive), and the greatest
consistent set inside the least model of clauses plus coclauses, which on a
finite base is both the flexible and the regular reading.  The clauses and
a mode's coclauses (terms.Program.templates) are each ground once; the
three readings share those rules.  Instances whose atoms fall outside the
universe are dropped with a warning, so results are exact only for
universe-closed programs.

Grounding works on integer node ids, not on term values.  A universe
unfolds its elements together and minimises them once into its store,
closed under children, with one id per distinct tree.  A clause is
compiled to the terms.Template the engine renames from, and each argument's
ops run on element ids, building a node by looking up (functor, child ids).
A value outside the store is appended to it, with an id above every
element; that stays minimal because such a value sits acyclically above
the store, and the store outlives the grounding pass.  Builtins read ids as
well, through the equations.holds the engine uses: = and \\= compare ids,
is compares the node at an id with the computed number, and arithmetic
reads the store's nodes.  Escape warnings render straight from the store
through parser.render, and check matches the raw table of each engine
answer (equations._unfold) against the store, so a value is always an id
in a node table.  Only a universe is minimised (equations.rational_values).
CoInd is sought inside the rules' conclusions: any X in T(X) lies there.

Assignments are searched by an odometer over the variables in
first-occurrence order, head first and argument by argument.  Each argument
but a bare variable, which cannot escape, is checked once its variables are
bound, so the first escape or failing builtin of a partial assignment skips
all its extensions.  That visits full assignments in the order of
enumerating them all, and so keeps the rules and the order of the warnings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .equations import (EMPTY_SOLVED, BuiltinTypeError, SolvedForm, _unfold,
                        holds, match, rational_values, solve)
from .parser import (ParseIssue, Query, SyntaxErrors, parse_term_text,
                     render)
from .terms import (BUILTIN_ARITIES, Atom, Clause, Compound, Num, Program,
                    Template, Term, Var, is_builtin, map_leaves, run_ops)

# a ground atom is (predicate, universe element indexes)
GroundAtom = tuple[str, tuple[int, ...]]


class Universe:
    """Finite set of ground rational terms, without duplicates.

    Each element keeps a display name: the declared name, or the source text
    it was written as.

    The elements share one store of node ids, a minimal node table, so each
    distinct tree among them and their subterms has exactly one id: store[i]
    is the node with id i, as (kind, payload, child ids), and ids maps it
    back.  roots[e] is the id of element e, the first entry at that id, and
    element_at maps it back to e.  Grounding appends the values that escape
    the elements to the store, so it may grow, but roots never change.
    """

    def __init__(self, names: Sequence[str], store: tuple,
                 roots: Sequence[int]):
        first: dict[int, str] = {}
        for name, root in zip(names, roots):
            first.setdefault(root, name)
        self.names = list(first.values())
        self.roots = list(first)
        self.store = list(store)
        self.ids: dict[tuple, int] = {n: i for i, n in enumerate(store)}
        self.element_at: dict[int, int] = {
            r: e for e, r in enumerate(self.roots)}

    def __len__(self) -> int:
        return len(self.roots)

    def index_of(self, nodes: Sequence[tuple], root: int = 0) -> Optional[int]:
        """The element whose tree is the one at root of a node table."""
        return next((e for e, r in enumerate(self.roots)
                     if match(nodes, root, self.store, r) == {}), None)

    def intern(self, node: tuple) -> int:
        """The id of a node over store ids, appended to the store if new.

        The store is minimal and closed under children, and a new node is
        a finite tree above it, so two nodes get one id exactly when they
        unfold alike."""
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.store)
            self.store.append(node)
        return i

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
        defined names, also recursively, e.g. `omega := s(omega)`.  Lines
        end at "\\n" alone, as in a program.  The first bad line raises
        SyntaxErrors.
        """
        items: list[tuple[Optional[str], str, int]] = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
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
                    raise SyntaxErrors(origin, [ParseIssue(
                        f"bad universe name {name!r}", lineno)])
            items.append((name, body, lineno))

        defined = {name for name, _, _ in items if name is not None}

        def link(t: Term) -> Term:
            # defined names parse as constants; turn them into variables so
            # one equation system ties all definitions together
            if isinstance(t, Compound) and t.functor in defined:
                return Var(f"#{t.functor}", 0)
            return t

        eqs: dict[int, tuple] = {}  # each definition's equation, by line
        names: list[str] = []
        terms: list[Term] = []
        for name, body, lineno in items:
            try:
                term = map_leaves(parse_term_text(body), link)
            except SyntaxErrors as e:
                issue = e.issues[0]
                raise SyntaxErrors(origin, [ParseIssue(
                    issue.message, lineno, issue.col)]) from None
            if name is not None:
                eqs[lineno] = (Var(f"#{name}", 0), term)
                term = Var(f"#{name}", 0)
            names.append(body.strip() if name is None else name)
            terms.append(term)
        solved = solve(eqs.values())
        if solved is None:  # name the first line that leaves no solution
            solved = EMPTY_SOLVED
            for lineno, eq in eqs.items():
                solved = solve([eq], solved)
                if solved is None:
                    raise SyntaxErrors(origin, [ParseIssue(
                        "definitions have no solution", lineno)])
        store, roots = rational_values(solved, terms)
        for name, root, (_, _, lineno) in zip(names, roots, items):
            # matched against itself, an element binds its variable leaves
            if match(store, root, store, root):
                raise SyntaxErrors(origin, [ParseIssue(
                    f"element {name!r} is not ground", lineno)])
        return cls(names, store, roots)


@dataclass(frozen=True)
class GroundRule:
    premises: frozenset  # of GroundAtom
    conclusion: GroundAtom


def ground_instances(codes: Sequence[Template],
                     u: Universe) -> tuple[frozenset, tuple[str, ...]]:
    """Every instance of every compiled clause with variables drawn from the
    universe.

    Builtin body atoms are evaluated away: a failing builtin drops the
    instance silently, a type error drops it with a warning.  Any other atom
    whose arguments leave the universe drops the instance with a warning.
    """
    rules: set[GroundRule] = set()
    # a type error's message, or the (predicate, node id) of an escape
    pending: dict = {}
    atoms: dict = {}  # one tuple per ground atom, so few young objects
    for code in codes:
        _ground_clause(code, u, rules, pending, atoms)
    # each escaping value renders once, whatever its predicates
    shown = {key[1]: "" for key in pending if not isinstance(key, str)}
    shown = {i: render(u.store, i, 8) for i in shown}
    warnings = [key if isinstance(key, str) else
                f"instance escapes the universe: {key[0]} on {shown[key[1]]}"
                for key in pending]
    return frozenset(rules), tuple(dict.fromkeys(warnings))


def _plan(code: Template) -> tuple:
    """What grounding a clause needs of it beyond the universe, kept on its
    Template: checks[k], the checks after the first k variables are bound,
    as (pred, argument, ops) or for a builtin (pred, None, ops per
    argument); the non-builtin atoms' spans; and (argument, variable) for
    each bare-variable argument, never checked as it is that element."""
    if code.plan is None:
        nvars = len(code.names)
        starts = [0] + [end for end, _ in code.ends]
        args = [code.ops[i:j] for i, j in zip(starts, starts[1:])]
        checks: list[list[tuple]] = [[] for _ in range(nvars + 1)]
        spans, bare = [], []
        for pred, i, j in code.spans:
            if (pred, j - i) not in BUILTIN_ARITIES:
                spans.append((pred, i, j))
                for arg in range(i, j):
                    if len(args[arg]) == 1 and args[arg][0] < nvars:
                        bare.append((arg, args[arg][0]))
                    else:
                        checks[code.ends[arg][1]].append(
                            (pred, arg, args[arg]))
            elif i < j:  # true/0 always holds
                checks[code.ends[j - 1][1]].append((pred, None, args[i:j]))
        code.plan = (checks, spans, bare)
    return code.plan


def _ground_clause(code: Template, u: Universe, rules: set,
                   pending: dict, atoms: dict) -> None:
    """Add the clause's ground instances to rules, and the first failure of
    each dropped instance to pending.

    An odometer over the variables in first-occurrence order, head first
    and argument by argument, so full assignments come in the order of
    itertools.product over the elements.  A failing check moves the last
    bound variable on to its next element: every assignment of the later
    variables would fail there with the same value, and they are skipped.
    """
    checks, spans, bare = _plan(code)
    intern = u.intern

    def node(functor: str, kids: tuple) -> int:
        return intern(("f", functor, kids))

    def leaf(t: Term) -> int:
        return intern(("n", t.value, ()) if isinstance(t, Num)
                      else ("f", t.functor, ()))

    # the variables' element ids, then the consts' ids, interned once
    nvars = len(code.names)
    cells = [0] * nvars + [map_leaves(t, leaf, node) for t in code.consts]
    roots, element_at, store = u.roots, u.element_at, u.store
    row = [0] * len(code.ends)

    def passes(level: int) -> bool:
        for pred, arg, ops in checks[level]:
            if arg is not None:
                value = run_ops(ops, cells, node)[0]
                e = element_at.get(value)
                if e is None:
                    pending.setdefault((pred, value))
                    return False
                row[arg] = e
                continue
            try:
                if not holds(pred, store,
                             *[run_ops(o, cells, node)[0] for o in ops]):
                    return False
            except BuiltinTypeError as e:
                pending.setdefault(
                    f"dropped instance of {pred}/{len(ops)}: {e}")
                return False
        return True

    choice = [-1] * nvars
    k = 0 if passes(0) else -1
    while k >= 0:
        if k == nvars:
            for arg, var in bare:
                row[arg] = choice[var]
            ground = [(pred, tuple(row[a:b])) for pred, a, b in spans]
            ground = [atoms.setdefault(atom, atom) for atom in ground]
            rules.add(GroundRule(frozenset(ground[1:]), ground[0]))
            k -= 1
            continue
        c = choice[k] + 1
        if c == len(roots):
            choice[k] = -1
            k -= 1
            continue
        choice[k] = c
        cells[k] = roots[c]
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


@dataclass(frozen=True)
class SemanticsResult:
    ind: frozenset
    coind: frozenset
    reg: frozenset
    ind_all: frozenset       # least model of clauses plus coclauses
    rules: frozenset         # ground instances of the clauses
    base: frozenset          # the atoms some clause instance concludes
    warnings: tuple[str, ...]


def compute_semantics(prog: Program, u: Universe,
                      mode: str = "flexible") -> SemanticsResult:
    """The readings of the clauses and the mode's coclauses over the
    universe, ground from the Templates the engine renames in the mode."""
    clauses, coclauses = prog.templates(mode)
    rules, warn1 = ground_instances(clauses, u)
    corules, warn2 = ground_instances(coclauses, u)
    ind = least_model(rules)
    base = frozenset(r.conclusion for r in rules)
    coind = greatest_consistent_within(rules, base)
    ind_all = least_model(rules | corules)
    reg = greatest_consistent_within(rules, ind_all)
    warnings = dict.fromkeys(warn1)
    warnings.update(dict.fromkeys(warn2))
    return SemanticsResult(ind, coind, reg, ind_all, rules, base,
                           tuple(warnings))


def regular_answers(query: Query, u: Universe,
                    reg: Optional[frozenset]) -> frozenset:
    """Ground answers to a query: assignments of its variables to universe
    elements (anonymous variables enumerated but projected away) under which
    builtins hold and every other atom lies in the given interpretation.
    With no interpretation, the assignments under which every atom but the
    builtins lies in the universe: the query instances the oracle judges.

    The query is ground as the clause  ?-(V1, ..., Vn) :- query atoms  over
    its named variables; an answer is the head of an instance whose
    premises all lie in the interpretation.
    """
    atoms = tuple(a for a in query.atoms
                  if reg is not None or not is_builtin(a))
    rules, _ = ground_instances(
        [Template(Clause(Atom("?-", query.variables), atoms))], u)
    return frozenset(r.conclusion[1] for r in rules
                     if reg is None or r.premises <= reg)


def universe_instantiations(solved: SolvedForm, qvars: Sequence[Var],
                            u: Universe) -> frozenset:
    """All ways an engine answer lands inside the universe, when each free
    variable leaf becomes one universe element throughout.  The query
    variables' values are unfolded into one raw table, and each is matched
    against the store at the root of each element, which fixes the node of
    each leaf; a match stands when every leaf's node is the root of an
    element.  The matches of the query variables are then joined on shared
    leaves."""
    nodes, vroots = _unfold(solved, qvars)
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
