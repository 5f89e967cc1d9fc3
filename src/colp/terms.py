"""Syntactic terms, atoms, clauses and clause renaming.

Everything in this module is a finite tree.  Possibly-infinite (rational)
values never appear here; they arise only as solutions of equation sets,
over in `equations`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
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
    # the engine's compiled clause tables for each mode, built on first use
    tables: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


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
    """A clause compiled once for renaming.  ops is a postfix program over
    the arguments of the head and then the body atoms: an int pushes the
    fresh variable of that slot, a (functor, arity) pair builds a compound
    from the top entries, and any other op is a ground subterm, shared as
    it is.  spans gives each atom's predicate and range of arguments, and
    heads the principal functor of each head argument."""

    __slots__ = ("clause", "names", "ops", "spans", "heads")

    def __init__(self, clause: Clause):
        atoms = (clause.head, *clause.body)
        self.clause = clause
        ends = list(accumulate((len(a.args) for a in atoms), initial=0))
        self.spans = tuple(zip([a.pred for a in atoms], ends, ends[1:]))
        self.heads = tuple(map(principal, clause.head.args))
        slots: dict[str, int] = {}
        ops: list = []
        stack = [(t, False) for a in reversed(atoms) for t in reversed(a.args)]
        while stack:
            t, built = stack.pop()
            if built:
                n = len(t.args)
                # only ground arguments end in a term, as one op each
                if all(isinstance(op, (Num, Compound)) for op in ops[-n:]):
                    ops[-n:] = [t]
                else:
                    ops.append((t.functor, n))
            elif isinstance(t, Compound) and t.args:
                stack.append((t, True))
                stack.extend((a, False) for a in reversed(t.args))
            else:
                ops.append(slots.setdefault(t.name, len(slots))
                           if isinstance(t, Var) else t)
        self.ops = ops
        self.names = tuple(slots)


def fresh_rename(clause: Union[Clause, Template],
                 counter: Iterator[int]) -> Clause:
    """Variant of a clause with every variable stamped with one fresh index.

    The caller owns the counter (itertools.count(1)); a stamp is consumed on
    every call, so no two renamings can collide.  Clause variables must have
    pairwise distinct names, which the parser guarantees.
    """
    code = clause if isinstance(clause, Template) else Template(clause)
    stamp = next(counter)
    if not code.names:
        return code.clause  # ground, so shared rather than rebuilt
    fresh = [Var(name, stamp) for name in code.names]
    out: list = []
    for op in code.ops:
        if op.__class__ is int:
            out.append(fresh[op])
        elif op.__class__ is tuple:
            out[-op[1]:] = [Compound(op[0], tuple(out[-op[1]:]))]
        else:
            out.append(op)
    head, *body = [Atom(pred, tuple(out[i:j])) for pred, i, j in code.spans]
    return Clause(head, tuple(body))
