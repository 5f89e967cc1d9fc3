"""Equation sets over finite terms and their rational-tree solutions.

An equation set is a finite set of pairs of finite terms.  Solvability is
decided without an occurs check: the only failures are functor/arity clashes
and unequal integers, so X = f(X) is solvable and its solution is the
infinite term f(f(f(...))).  A solved form is a triangular substitution: one
map from variables to terms whose right-hand sides may refer back to bound
variables; cycles through compounds are exactly how infinite solutions stay
finitely representable.

A value is a regular tree, held as an id in a node table: a finite term
graph of (kind, payload, child ids) nodes.  _unfold builds the raw table of
terms under a solved form, one node per term object reached; arith_value
reads it as it is, and so does match on the pattern side.  value_key gives
the values at roots of a table their exact key in a store, a caller's dict
from nodes to ids that hash-conses finite values across calls: their ids
when all are finite, else a cyclic value's canonical table.
rational_values minimises a table once, for a finite universe: no two of
its nodes unfold to the same tree, so there tuple equality is value
equality.  match takes such a minimal table as its target, and holds
compares ids in one for the oracle's = and \\=.
"""
from __future__ import annotations

import operator
import sys
from typing import Iterable, Optional, Sequence

from .terms import Compound, Num, Term, Var

EqPair = tuple[Term, Term]


def _walk(bound: dict[Var, Term], t: Term) -> Term:
    """Follow bindings from t to an unbound variable, an integer or a
    compound."""
    while isinstance(t, Var):
        b = bound.get(t)
        if b is None:
            return t
        t = b
    return t


class SolvedForm:
    """Result of solving an equation set: a triangular substitution.

    One map from variables to terms, as in a Prolog store.  A younger
    variable is bound to an older one (see solve), so a chain of variables
    ends at its oldest named one; cycles run through compounds.  walk()
    follows the map to an unbound variable, an integer or a compound.
    Instances are immutable; solve() copies the map when extending a base.
    """

    __slots__ = ("_bound",)

    def __init__(self, bound: dict[Var, Term]):
        self._bound = bound

    def walk(self, t: Term) -> Term:
        return _walk(self._bound, t)

    def __repr__(self) -> str:
        items = ", ".join(f"{v.display()}={t!r}" for v, t in self._bound.items())
        return f"SolvedForm({items})"


EMPTY_SOLVED = SolvedForm({})


def solve(eqs: Iterable[EqPair],
          base: SolvedForm = EMPTY_SOLVED) -> Optional[SolvedForm]:
    """Solve an equation set, optionally on top of an existing solved form.

    Returns None when unsolvable.  Of two unbound variables the younger, of
    higher (index, name), is bound to the older as in the WAM, but an
    anonymous one (_#n, printed _) always to a named one.  Decomposition
    memoizes compound pairs so that cyclic bindings terminate: a pair being
    decomposed is assumed equal while its arguments are compared.  The memo
    keys pairs by identity, as only finitely many term objects are reachable.
    """
    # copy the base map only once a write happens; clashes stay cheap
    bound = base._bound
    owned = False
    work: list[EqPair] = list(eqs)
    seen: set[tuple[int, int]] = set()
    while work:
        s, t = work.pop()
        s = _walk(bound, s)
        t = _walk(bound, t)
        # compounds by identity: == would recurse down a long list, and
        # equal but distinct compounds are decomposed below
        if s is t or (not isinstance(s, Compound) and s == t):
            continue
        if isinstance(s, Var) or isinstance(t, Var):
            # bind the variable, or the younger of two, in any pair order
            if not isinstance(s, Var) or isinstance(t, Var) and (
                    t.name[:2] == "_#", t.index, t.name) > (
                    s.name[:2] == "_#", s.index, s.name):
                s, t = t, s
            if not owned:
                bound = dict(bound)
                owned = True
            bound[s] = t
            continue
        if isinstance(s, Num) or isinstance(t, Num):
            return None  # unequal numbers, or number vs compound
        if s.functor != t.functor or len(s.args) != len(t.args):
            return None
        if (id(s), id(t)) in seen:
            continue
        seen.add((id(s), id(t)))
        seen.add((id(t), id(s)))
        work.extend(zip(s.args, t.args))
    return SolvedForm(bound)


# ---------------------------------------------------------------------------
# Rational values: minimal node tables.
# ---------------------------------------------------------------------------

# Node encodings: ("f", functor, child-index tuple)
#                 ("n", int value, ())
#                 ("v", variable display name, ())


def rational_values(solved: SolvedForm,
                    terms: Sequence[Term]) -> tuple[tuple, list[int]]:
    """The minimal node table of the terms' values, numbered by _number,
    and the id of each."""
    nodes, roots = _unfold(solved, terms)
    block = _classes(nodes, roots, {})
    return _number(nodes, _refine(nodes) if block is None else block, roots)


def _unfold(solved: SolvedForm,
            terms: Sequence[Term]) -> tuple[list, list[int]]:
    """Unfold terms through a solved form into one node table, one node per
    term object reached, which closes cycles, as they run through the one
    binding object of a variable; and the id of each term's value in it."""
    nodes: list = []
    memo: dict[int, int] = {}

    def node(t: Term) -> int:
        t = solved.walk(t)
        i = memo.get(id(t))
        if i is None:
            i = memo[id(t)] = len(nodes)
            nodes.append(t)  # encoded by the loop below
        return i

    roots = [node(t) for t in terms]
    for i, t in enumerate(nodes):  # also visits what node() appends
        if isinstance(t, Var):
            nodes[i] = ("v", t.display(), ())
        elif isinstance(t, Num):
            nodes[i] = ("n", t.value, ())
        else:
            nodes[i] = ("f", t.functor, tuple(map(node, t.args)))
    return nodes, roots


def value_key(nodes: list, roots: Sequence[int], store: dict) -> tuple:
    """The values at the roots of a node table, exactly: their ids in the
    store when all are finite, else their canonical (roots, nodes)."""
    block = _classes(nodes, roots, store)
    if block is not None:
        return tuple(block[r] for r in roots)
    table, ids = _number(nodes, _refine(nodes), roots)
    return tuple(ids), table


def _classes(nodes: list, roots: Iterable[int],
             store: dict) -> Optional[list[int]]:
    """The id in the store of each node reachable from the roots, or None
    at the first back edge.  The store maps (kind, payload, child ids) to
    ids in insertion order, so on an acyclic graph two nodes get one id
    exactly when they unfold alike.  Leaves go in first; a pass from the
    last node back settles nodes while their children are settled; a
    post-order walk settles the rest."""
    block = [store.setdefault(n, len(store)) if not n[2] else -1
             for n in nodes]
    for i in range(len(nodes) - 1, -1, -1):
        kind, payload, kids = nodes[i]
        if kids:
            key = tuple([block[c] for c in kids])
            if -1 in key:
                break
            block[i] = store.setdefault((kind, payload, key), len(store))
    entered = [False] * len(nodes)
    stack = list(roots)[::-1]
    while stack:
        i = stack[-1]
        if block[i] >= 0:
            stack.pop()
            continue
        kind, payload, kids = nodes[i]
        if not entered[i]:
            entered[i] = True
            for c in kids:
                if entered[c] and block[c] < 0:  # c is on the current path
                    return None
            stack.extend(reversed(kids))
            continue
        key = (kind, payload, tuple(block[c] for c in kids))
        block[i] = store.setdefault(key, len(store))
        stack.pop()
    return block


def _refine(nodes: list) -> list[int]:
    """Classes of all nodes by the tree they unfold to: split classes by
    label and child classes until no class splits."""
    labels: dict[tuple, int] = {}
    block = [labels.setdefault((k, p, len(kids)), len(labels))
             for k, p, kids in nodes]
    count = len(labels)
    while True:
        sigs: dict[tuple, int] = {}
        nxt = [sigs.setdefault((block[i], tuple(block[c] for c in kids)),
                               len(sigs))
               for i, (_, _, kids) in enumerate(nodes)]
        if len(sigs) == count:
            return block
        block, count = nxt, len(sigs)


def _number(nodes: list, block, roots) -> tuple[tuple, list[int]]:
    """The quotient graph by the given classes, numbered in preorder from
    the class of each root in turn, and the id of each root.  Any member
    stands for its class, since the members of a class share their label
    and child classes."""
    seq: dict[int, int] = {}
    members: list[int] = []
    stack = list(roots)[::-1]
    while stack:
        i = stack.pop()
        if block[i] in seq:
            continue
        seq[block[i]] = len(members)
        members.append(i)
        stack.extend(reversed(nodes[i][2]))
    return (tuple((kind, payload, tuple(seq[block[c]] for c in kids))
                  for kind, payload, kids in (nodes[i] for i in members)),
            [seq[block[r]] for r in roots])


def match(pattern: Sequence[tuple], proot: int, nodes: Sequence[tuple],
          root: int) -> Optional[dict[str, int]]:
    """The node of a minimal node table at each variable leaf of the
    pattern's tree at proot, when replacing each leaf by the tree below its
    node turns that tree into the tree at root; else None.

    A coinductive pair walk: a pair under comparison is assumed to match
    while its children are compared, so the pattern may be any table, such
    as _unfold's.  The target is minimal, so a leaf reached at two
    different nodes would need two different values.
    """
    at: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    stack = [(proot, root)]
    while stack:
        i, j = stack.pop()
        kind, payload, kids = pattern[i]
        if kind == "v":
            if at.setdefault(payload, j) != j:
                return None
            continue
        if (i, j) in seen:
            continue
        seen.add((i, j))
        k2, p2, c2 = nodes[j]
        if kind != k2 or payload != p2 or len(kids) != len(c2):
            return None
        stack.extend(zip(kids, c2))
    return at


class BuiltinTypeError(Exception):
    """A builtin was applied to arguments outside its contract.

    Distinct from failure: the engine aborts the branch and records a
    diagnostic; the oracle drops the ground instance with a warning.
    """


# arithmetic accepted on the right of is/2 and on both sides of comparisons
_ARITH2 = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "max": max, "min": min}
# the arithmetic comparison builtins
COMPARE = {"<": operator.lt, ">": operator.gt, "=<": operator.le,
           ">=": operator.ge}
# str() and int() convert integers of at most _DIGITS digits; 0: no limit
_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
_TOO_LONG = 10 ** _DIGITS if _DIGITS else float("inf")


def arith_value(nodes: Sequence[tuple], root: int = 0) -> int:
    """Evaluate the integer expression at root of a node table, over + - *
    max min and unary minus.  A post-order walk on an explicit stack, so
    the depth of an expression is not bounded by the recursion limit; it
    meets errors in the order of a left-to-right recursive evaluation.  A
    result too long to print is a type error."""
    active: set[int] = set()  # the operator nodes on the current path
    values: list[int] = []
    stack = [(root, False)]
    while stack:
        i, entered = stack.pop()
        kind, payload, kids = nodes[i]
        if entered:
            active.discard(i)
            if len(kids) == 1:
                values[-1] = -values[-1]
            else:
                y = values.pop()
                values[-1] = _ARITH2[payload](values[-1], y)
        elif kind == "n":
            values.append(payload)
        elif kind == "v":
            raise BuiltinTypeError(f"unbound variable {payload} in arithmetic")
        elif i in active:
            raise BuiltinTypeError("cyclic arithmetic expression")
        elif (payload == "-" and len(kids) == 1) or (
                payload in _ARITH2 and len(kids) == 2):
            active.add(i)
            stack.append((i, True))
            stack.extend((k, False) for k in reversed(kids))
        else:
            raise BuiltinTypeError(f"not arithmetic: {payload}/{len(kids)}")
    if abs(values[0]) >= _TOO_LONG:
        raise BuiltinTypeError(
            f"integer result has more than {_DIGITS} digits")
    return values[0]


def holds(pred: str, nodes: Sequence[tuple], a: int, b: int) -> bool:
    """Truth of a builtin on the ids of two ground values in a node table,
    which must be minimal for = and \\=, as they compare ids: only the
    oracle's store is.  Raises BuiltinTypeError outside the builtin's
    contract."""
    if pred == "=":
        return a == b
    if pred == "\\=":
        return a != b
    if pred == "is":
        return nodes[a] == ("n", arith_value(nodes, b), ())
    return COMPARE[pred](arith_value(nodes, a), arith_value(nodes, b))
