"""Syntactic terms, atoms, clauses and clause renaming.

Everything in this module is a finite tree.  Possibly-infinite (rational)
values never appear here; they arise only as solutions of equation sets,
over in `equations`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union


@dataclass(frozen=True, slots=True)
class Var:
    """A logic variable.  index 0 means "as written in the source";
    a positive index is a renaming stamp from fresh_rename."""

    name: str
    index: int = 0

    def display(self) -> str:
        return self.name if self.index == 0 else f"{self.name}#{self.index}"


@dataclass(frozen=True, slots=True)
class Num:
    """Integer leaf.  Deliberately not a 0-ary functor: numbers only ever
    clash with unequal numbers, never with compounds."""

    value: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...] = ()


@dataclass(frozen=True, slots=True)
class Program:
    """A pair of clause lists: ordinary clauses and coclauses.  Cofacts are
    coclauses with an empty body."""

    clauses: tuple[Clause, ...] = ()
    coclauses: tuple[Clause, ...] = ()


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


def _iter_vars(x) -> Iterator[Var]:
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            yield x
        elif isinstance(x, (Compound, Atom)):
            stack.extend(reversed(x.args))
        elif isinstance(x, Clause):
            stack.extend(reversed((x.head, *x.body)))
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(reversed(list(x)))
        elif not isinstance(x, Num):
            raise TypeError(f"cannot collect variables from {x!r}")


def vars_of(x) -> set[Var]:
    """All variables occurring in a term, atom, clause, equation pair, or any
    nesting of those in tuples/lists/sets."""
    return set(_iter_vars(x))


def ordered_vars(x) -> list[Var]:
    """Like vars_of but in first-occurrence order (only meaningful for
    ordered containers)."""
    return list(dict.fromkeys(_iter_vars(x)))


def map_leaves(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """The term with each variable, number and constant x replaced by
    leaf(x), rebuilt on an explicit stack, so its depth is not bounded by
    the recursion limit."""
    out: list[Term] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        t, built = stack.pop()
        if built:
            n = len(t.args)
            out[-n:] = [Compound(t.functor, tuple(out[-n:]))]
        elif isinstance(t, Compound) and t.args:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
        else:
            out.append(leaf(t))
    return out[0]


def fresh_rename(clause: Clause, counter: Iterator[int]) -> Clause:
    """Variant of a clause with every variable stamped with one fresh index.

    The caller owns the counter (itertools.count(1)); a stamp is consumed on
    every call, so no two renamings can collide.  Clause variables must have
    pairwise distinct names, which the parser guarantees.
    """
    stamp = next(counter)
    if next(_iter_vars(clause), None) is None:
        return clause  # ground, so shared rather than rebuilt

    def leaf(t: Term) -> Term:
        return Var(t.name, stamp) if isinstance(t, Var) else t

    def atom(a: Atom) -> Atom:
        return Atom(a.pred, tuple(map_leaves(t, leaf) for t in a.args))

    return Clause(atom(clause.head), tuple(map(atom, clause.body)))
