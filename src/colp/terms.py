"""Syntactic terms, atoms, clauses and clause renaming.

Everything in this module is a finite tree.  Possibly-infinite (rational)
values never appear here; they arise only as solutions of equation sets,
over in `equations`.

Terms, atoms and clauses are immutable by rule, not by a runtime guard:
nothing in colp assigns their fields outside their constructors
(tests/test_source_rules.py checks it).  A frozen dataclass would set each
field through object.__setattr__, which makes every renaming pay for the
guard.  Var is a plain slotted class that hashes (name, index) once, when
it is made, as every lookup of a binding hashes a variable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Union


class Var:
    """A logic variable.  index 0 means "as written in the source";
    a positive index is a renaming stamp from fresh_rename.  Equal, and
    hashed, by (name, index)."""

    __slots__ = ("name", "index", "_hash")

    def __init__(self, name: str, index: int = 0):
        self.name = name
        self.index = index
        self._hash = hash((name, index))

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var(name={self.name!r}, index={self.index!r})"

    def display(self) -> str:
        return self.name if self.index == 0 else f"{self.name}#{self.index}"


@dataclass(slots=True, unsafe_hash=True)
class Num:
    """Integer leaf.  Deliberately not a 0-ary functor: numbers only ever
    clash with unequal numbers, never with compounds."""

    value: int


@dataclass(slots=True, unsafe_hash=True)
class Compound:
    """Functor applied to argument terms; constants are 0-ary compounds."""

    functor: str
    args: tuple["Term", ...] = ()


Term = Union[Var, Num, Compound]

# List sugar is syntactic only: '.'/2 cons cells ending in the constant [].
NIL = Compound("[]", ())
CONS = "."


def cons(head: Term, tail: Term) -> Compound:
    return Compound(CONS, (head, tail))


@dataclass(slots=True, unsafe_hash=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...] = ()


# The readings of a program; in this order, Program.templates gives each
# the written coclauses, none, or one universal cofact per signature.
MODES = ("flexible", "inductive", "coinductive")


@dataclass(frozen=True, slots=True)
class Program:
    """A pair of clause lists: ordinary clauses and coclauses.  Cofacts are
    coclauses with an empty body."""

    clauses: tuple[Clause, ...] = ()
    coclauses: tuple[Clause, ...] = ()
    compiled: list = field(default_factory=list, init=False, repr=False,
                           compare=False)

    def templates(self, mode: str = "flexible"
                  ) -> tuple[list["Template"], list["Template"]]:
        """The clauses and the mode's coclauses as the Templates the engine
        renames and the oracle grounds.  The clauses, the coclauses and the
        cofacts p(A1, ..., An), one per signature p/n of the clauses, are
        each compiled once, on first use."""
        if not self.compiled:
            cofacts = [Clause(Atom(p, tuple(Var(f"A{i}")
                                            for i in range(1, n + 1))))
                       for p, n in signatures(self.clauses)]
            self.compiled.extend([Template(c) for c in clauses] for clauses in
                                 (self.clauses, self.coclauses, (), cofacts))
        return self.compiled[0], self.compiled[1 + MODES.index(mode)]


# Reserved predicates, keyed by (name, arity).  These are evaluated by the
# engine, may not be redefined, and never enter hypothesis sets.
BUILTIN_ARITIES = {
    ("=", 2),
    ("\\=", 2),
    ("<", 2),
    (">", 2),
    ("=<", 2),
    (">=", 2),
    ("is", 2),
    ("true", 0),
}

BUILTIN_NAMES = {name for name, _ in BUILTIN_ARITIES}


def is_builtin(atom: Atom) -> bool:
    return (atom.pred, len(atom.args)) in BUILTIN_ARITIES


def signatures(clauses: Iterable[Clause]) -> list[tuple[str, int]]:
    """The (predicate, arity) pairs of non-builtin atoms in the clauses,
    heads and bodies, in first-occurrence order."""
    out: dict[tuple[str, int], None] = {}
    for clause in clauses:
        for atom in (clause.head, *clause.body):
            if not is_builtin(atom):
                out.setdefault((atom.pred, len(atom.args)))
    return list(out)


def map_leaves(t: Term, leaf: Callable[[Term], object],
               node: Callable[[str, tuple], object] = Compound):
    """The term with each variable, number and constant x replaced by
    leaf(x), rebuilt on an explicit stack, so its depth is not bounded by
    the recursion limit.  node(functor, args) combines the results of a
    compound's arguments, by default into a compound."""
    out: list = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        t, built = stack.pop()
        if built:
            n = len(t.args)
            out[-n:] = [node(t.functor, tuple(out[-n:]))]
        elif isinstance(t, Compound) and t.args:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
        else:
            out.append(leaf(t))
    return out[0]


def principal(t: Term):
    """What every value of a term starts with: None for a variable, the
    integer of a number, (functor, arity) for a compound."""
    if isinstance(t, Var):
        return None
    return t.value if isinstance(t, Num) else (t.functor, len(t.args))


def identical(a: Atom, b: Atom) -> bool:
    """Syntactic equality of two atoms, compared on an explicit stack, so
    the depth of their terms is not bounded by the recursion limit."""
    stack = [(Compound(a.pred, a.args), Compound(b.pred, b.args))]
    while stack:
        x, y = stack.pop()
        if x is not y and isinstance(x, Compound) and isinstance(y, Compound):
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif x is not y and x != y:  # at most one compound: == is flat
            return False
    return True


class Template:
    """A clause compiled once, for renaming in the engine and for grounding
    in the oracle.

    ops is a postfix program over the arguments of the head and then the
    body atoms, run on an array of cells: the clause's variables in
    first-occurrence order, named by names, followed by its maximal ground
    subterms, consts.  An int op pushes that cell, and a (functor, arity)
    pair builds a compound from the top entries.  ends[k] is where the ops
    of argument k end and how many variables are bound by then.  spans
    gives each atom's predicate and range of arguments, and heads the
    principal functor of each head argument.  plan is the oracle's
    grounding schedule, built by semantics on first use."""

    __slots__ = ("clause", "names", "consts", "ops", "ends", "spans", "heads",
                 "plan")

    def __init__(self, clause: Clause):
        atoms = (clause.head, *clause.body)
        self.clause = clause
        self.plan = None
        edges = list(accumulate((len(a.args) for a in atoms), initial=0))
        self.spans = tuple(zip([a.pred for a in atoms], edges, edges[1:]))
        self.heads = tuple(map(principal, clause.head.args))
        slots: dict[str, int] = {}
        ops: list = []  # a ground subterm is one op, itself, until below
        self.ends = []
        occurrences = 0  # of variables, so far
        stack: list = []
        for t in [t for a in atoms for t in a.args]:
            before = None  # or, for a compound, the occurrences before it
            while True:
                if before is not None:  # its arguments are done
                    n = len(t.args)
                    if before == occurrences:  # no variable among them
                        ops[-n:] = [t]
                    else:
                        ops.append((t.functor, n))
                elif t.__class__ is Var:
                    occurrences += 1
                    ops.append(slots.setdefault(t.name, len(slots)))
                elif t.__class__ is Num or not t.args:
                    ops.append(t)
                else:
                    stack.append((t, occurrences))
                    stack.extend([(a, None) for a in reversed(t.args)])
                if not stack:
                    break
                t, before = stack.pop()
            self.ends.append((len(ops), len(slots)))
        consts: list[Term] = []
        for i, op in enumerate(ops):
            if op.__class__ is Num or op.__class__ is Compound:
                ops[i] = len(slots) + len(consts)
                consts.append(op)
        self.ops, self.consts, self.names = ops, consts, tuple(slots)


def run_ops(ops: Iterable, cells: list,
            node: Callable[[str, tuple], object] = Compound) -> list:
    """The entries a Template's ops leave on a stack over the given cells,
    where node(functor, args) builds a compound."""
    out: list = []
    for op in ops:
        if op.__class__ is int:
            out.append(cells[op])
        else:
            f, n = op
            out[-n:] = [node(f, tuple(out[-n:]))]
    return out


def fresh_rename(code: Template, counter: Iterator[int]) -> Clause:
    """Variant of a compiled clause with every variable stamped with one
    fresh index; its ground subterms are shared, not rebuilt.

    The caller owns the counter (itertools.count(1)); a stamp is consumed on
    every call, so no two renamings can collide.  Clause variables must have
    pairwise distinct names, which the parser guarantees.
    """
    stamp = next(counter)
    if not code.names:
        return code.clause  # ground, so shared rather than rebuilt
    cells = [Var(name, stamp) for name in code.names]
    cells += code.consts
    out = run_ops(code.ops, cells)
    head, *body = [Atom(pred, tuple(out[i:j])) for pred, i, j in code.spans]
    return Clause(head, tuple(body))
