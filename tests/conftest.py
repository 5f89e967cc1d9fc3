import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from colp.engine import (BUDGET_EXHAUSTED, COMPLETE, FINITELY_FAILED, Config,
                         Outcome, _budget_levels, eval_builtin, run_query)
from colp.equations import (EMPTY_SOLVED, BuiltinTypeError, SolvedForm,
                            _number, _refine, arith_value, rational_values,
                            solve, walk)
from colp import parser
from colp.parser import (_INFIX_GOALS, _PREC, _SYMBOLS, Tok, _Parser,
                         atom_to_str, parse_program, parse_query, print_answer)
from colp.semantics import GroundAtom, GroundRule
from colp.terms import (NIL, Atom, Clause, Compound, Num, Program, Term, Var,
                        cons, is_builtin, map_leaves, signatures)

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

# `pytest --hypothesis-profile=ci` prints, with a failure, the
# @reproduce_failure blob that replays it
settings.register_profile("ci", print_blob=True)


def load_program(name: str):
    path = PROGRAMS_DIR / name
    return parse_program(path.read_text(encoding="utf-8"), origin=name)


def answers(prog, query_text: str, **kwargs):
    """Run a query and return (sorted unique answer strings, exhaustion)."""
    query = parse_query(query_text)
    outcome = run_query(prog, query, Config(**kwargs))
    rendered = sorted({print_answer(a, query.variables)
                       for a in outcome.answers})
    return rendered, outcome.exhaustion


@pytest.fixture(scope="session")
def maxelem():
    return load_program("maxelem.colp")


@pytest.fixture(scope="session")
def lists():
    return load_program("lists.colp")


@pytest.fixture(scope="session")
def omega():
    return load_program("omega.colp")


def make_list(items, tail=NIL):
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


# --- values: node tables numbered breadth-first from root 0 --------------

def value(solved, t):
    """The canonical table of a term's value under a solved form."""
    return rational_values(solved, [t])[0]


def minimal(nodes):
    """The minimal table of the graph at node 0 of a node table, numbered
    as a value."""
    return _number(nodes, _refine(nodes), (0,))[0]


def ordered_vars(x):
    """All variables occurring in a term, atom, clause, equation pair, or any
    nesting of those in tuples and lists, in first-occurrence order.  A walk
    on an explicit stack, since renamed sums run deeper than the recursion
    limit."""
    out, stack = {}, [x]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            out.setdefault(x)
        elif isinstance(x, (Compound, Atom)):
            stack.extend(reversed(x.args))
        elif isinstance(x, Clause):
            stack.extend(reversed((x.head, *x.body)))
        elif isinstance(x, (tuple, list)):
            stack.extend(reversed(x))
    return list(out)


def vars_of(x):
    """All variables occurring in a term, atom, clause, or any nesting of
    those in tuples and lists."""
    return set(ordered_vars(x))


def answer_key_by_table(solved, qvars):
    """Reference for engine._answer_key, comparable across runs: the query
    variables' values in one canonical table, with free leaves renamed in
    node order, which is their order of first appearance."""
    nodes, roots = rational_values(solved, qvars)
    names: dict[str, str] = {}
    return tuple(roots), tuple(
        (k, names.setdefault(p, f"?{len(names)}"), kids) if k == "v"
        else (k, p, kids) for k, p, kids in nodes)


def eq_vars(solved):
    """Every variable the equations of a solved form mention."""
    return set(solved) | vars_of(list(solved.values()))


def renumbered(nodes, root):
    """The nodes reachable from root, numbered breadth-first from it as colp
    numbers a value; no two nodes are merged."""
    seq, order = {root: 0}, [root]
    for i in order:  # also visits the nodes appended below
        for c in nodes[i][2]:
            if c not in seq:
                seq[c] = len(order)
                order.append(c)
    return tuple((k, p, tuple(seq[c] for c in kids))
                 for k, p, kids in (nodes[i] for i in order))


def elements(u):
    """The value of each universe element, read off its store."""
    return [renumbered(u.store, e) for e in range(len(u))]


def is_ground(nodes):
    return all(k != "v" for k, _, _ in nodes)


CUT = Compound("...", ())


def truncate(nodes, depth, root=0):
    """Unfold the tree at root of a node table to a finite tree, replacing
    every node at the given depth with a cut marker; term_str_by_recursion
    of it is the reference for parser.render with a depth."""
    def go(i, remaining):
        if remaining <= 0:
            return CUT
        k, p, c = nodes[i]
        if k == "v":
            return Var(p, 0)
        if k == "n":
            return Num(p)
        return Compound(p, tuple(go(ch, remaining - 1) for ch in c))

    return go(root, depth)


# --- brute-force references that the tests compare colp against ----------

# The printers colp had before parser.render: a term tree printed by
# recursion, after a recursive _unfold of each value into a term tree.

def term_str_by_recursion(t):
    """Reference for parser.term_to_str and, on truncate's trees, for
    parser.render with a depth."""
    return _term_str(t, 1000, False)


def _term_str(t: Term, maxprec: int, right: bool) -> str:
    if isinstance(t, Var):
        return "_" if t.name.startswith("_#") else t.display()
    if isinstance(t, Num):
        return str(t.value)
    if t == NIL:
        return "[]"
    if t.functor == "." and len(t.args) == 2:
        return _list_str(t)
    if t.functor in _PREC and len(t.args) == 2:
        prec = _PREC[t.functor]
        s = (f"{_term_str(t.args[0], prec, False)}{t.functor}"
             f"{_term_str(t.args[1], prec, True)}")
        if prec > maxprec or (prec == maxprec and right):
            return f"({s})"
        return s
    if t.functor == "-" and len(t.args) == 1:
        if isinstance(t.args[0], Num):  # -3 would read back as an integer
            return f"-({t.args[0].value})"
        inner = _term_str(t.args[0], 0, False)
        return f"-{inner}"
    if not t.args:
        return t.functor
    return f"{t.functor}({', '.join(_term_str(a, 999, False) for a in t.args)})"


def _list_str(t: Compound) -> str:
    items = []
    cur: Term = t
    while isinstance(cur, Compound) and cur.functor == "." and len(cur.args) == 2:
        items.append(_term_str(cur.args[0], 999, False))
        cur = cur.args[1]
    if cur == NIL:
        return f"[{','.join(items)}]"
    return f"[{','.join(items)}|{_term_str(cur, 999, False)}]"


def _unfold(t: Term, solved: SolvedForm, active: dict[Term, str]) -> Term:
    """Finite syntactic image of a possibly-cyclic value: a back edge becomes
    a variable leaf named after the variable whose binding it re-enters."""
    w = walk(solved, t)
    if isinstance(w, Var):
        return Var(w.display(), 0)
    if isinstance(w, Num):
        return w
    known = active.get(w)
    if known is not None:
        return Var(known, 0)
    entered = isinstance(t, Var)
    if entered:
        active[w] = t.display()
    out = Compound(w.functor, tuple(_unfold(a, solved, active) for a in w.args))
    if entered:
        del active[w]
    return out


def atom_str_by_recursion(a, solved=EMPTY_SOLVED):
    """Reference for parser.atom_to_str."""
    args = [term_str_by_recursion(_unfold(x, solved, {})) for x in a.args]
    if a.pred in _INFIX_GOALS and len(args) == 2:
        return f"{args[0]} {a.pred} {args[1]}"
    if not args:
        return a.pred
    return f"{a.pred}({', '.join(args)})"


def answer_by_recursion(solved, qvars):
    """Reference for parser.print_answer: each bound query variable's value
    as a term tree, with an anonymous variable that occurs in more than one
    place renamed _1, _2, ..., skipping the query's names."""
    if not qvars:
        return "true"
    values = [None if walk(solved, v) == v else _unfold(v, solved, {})
              for v in qvars]
    leaves: list[Term] = []
    for t in values:
        if t is not None:
            map_leaves(t, leaves.append)
    anon = [x for x in leaves if isinstance(x, Var) and x.name.startswith("_#")]
    taken = {v.display() for v in qvars}
    names = (n for n in (f"_{i}" for i in itertools.count(1)) if n not in taken)
    shared: dict[Term, Term] = {}
    for x in anon:
        if anon.count(x) > 1 and x not in shared:
            shared[x] = Var(next(names), 0)
    lines = []
    for v, t in zip(qvars, values):
        rhs = "_" if t is None else term_str_by_recursion(
            map_leaves(t, lambda x: shared.get(x, x)))
        lines.append(f"{v.display()} = {rhs}")
    return "\n".join(lines)


def lex_by_characters(text: str) -> list[Tok]:
    """Reference for parser._lex: one character at a time, trying each
    symbol in turn."""
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (ch == "_" or ch.isupper()) else "atom"
            toks.append(Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            # reported by the parser, which knows the origin and recovers
            toks.append(Tok("bad", ch, line, col))
            i += 1
            col += 1
    toks.append(Tok("eof", "", line, col))
    return toks


# The term parser colp had before the one precedence loop: five mutually
# recursive methods, which recurse once per nested bracket or sign.  Its
# unary minus folds only into an integer token, as the loop's does.

class RecursiveParser(_Parser):
    """Reference for parser._Parser.term and head, through
    recursive_parser()."""

    def term(self) -> Term:
        left = self.mul_term()
        while self.peek().kind == "sym" and self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.mul_term()
            left = Compound(op, (left, right))
        return left

    def mul_term(self) -> Term:
        left = self.primary()
        while self.at_sym("*"):
            self.next()
            right = self.primary()
            left = Compound("*", (left, right))
        return left

    def primary(self) -> Term:
        t = self.peek()
        sign = t.text == "-" and self.toks[self.pos + 1].kind == "int"
        if sign:  # only a minus sign just before an integer token folds
            self.next()
            t = self.peek()
        if t.kind == "int":
            try:
                value = int(t.text)
            except ValueError:  # beyond int()'s limit on decimal digits
                self.fail(f"integer literal of {len(t.text)} digits is too long")
            self.next()
            return Num(-value if sign else value)
        if t.kind == "sym" and t.text == "-":
            self.next()
            return Compound("-", (self.primary(),))
        if t.kind == "var":
            self.next()
            if t.text == "_":
                self.anon += 1
                return Var(f"_#{self.anon}", 0)
            return Var(t.text, 0)
        if t.kind == "atom":
            self.next()
            if self.at_sym("("):
                return Compound(t.text, self.arg_list())
            return Compound(t.text, ())
        if t.kind == "sym" and t.text == "[":
            return self.list_term()
        if t.kind == "sym" and t.text == "(":
            self.next()
            inner = self.term()
            self.expect_sym(")")
            return inner
        self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    def arg_list(self) -> tuple[Term, ...]:
        self.expect_sym("(")
        args = [self.term()]
        while self.at_sym(","):
            self.next()
            args.append(self.term())
        self.expect_sym(")")
        return tuple(args)

    def list_term(self) -> Term:
        self.expect_sym("[")
        if self.at_sym("]"):
            self.next()
            return NIL
        items = [self.term()]
        while self.at_sym(","):
            self.next()
            items.append(self.term())
        tail: Term = NIL
        if self.at_sym("|"):
            self.next()
            tail = self.term()
        self.expect_sym("]")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out

    def head(self) -> Atom:
        t = self.peek()
        if t.kind != "atom":
            self.fail(f"expected a clause head, found {t.text or 'end of input'!r}")
        self.next()
        if self.at_sym("("):
            return Atom(t.text, self.arg_list())
        return Atom(t.text, ())


@contextmanager
def recursive_parser():
    """parse_program, parse_query and parse_term_text on RecursiveParser
    while the block runs."""
    saved = parser._Parser
    parser._Parser = RecursiveParser
    try:
        yield
    finally:
        parser._Parser = saved


def free_leaf_names(values):
    """Variable leaf names across values, first-appearance order."""
    out = {}
    for nodes in values:
        for k, p, _ in nodes:
            if k == "v":
                out.setdefault(p)
    return list(out)


def rational_value_by_recursion(solved, t):
    """Reference for rational_values: unfold a term through a solved form
    recursively, sharing a node whenever a structurally equal dereferenced
    term is reached again, then minimise."""
    nodes = []
    memo = {}

    def build(t):
        t = walk(solved, t)
        got = memo.get(t)
        if got is not None:
            return got
        idx = len(nodes)
        memo[t] = idx
        if isinstance(t, Var):
            nodes.append(("v", t.display(), ()))
        elif isinstance(t, Num):
            nodes.append(("n", t.value, ()))
        else:
            nodes.append(None)  # reserve the slot before recursing
            nodes[idx] = ("f", t.functor, tuple(build(a) for a in t.args))
        return idx

    build(t)
    return minimal(nodes)


def substitute(r, mapping):
    """Replace variable leaves of a value, by display name, with values.
    The replacement is simultaneous: leaves inside the values stay."""
    nodes = list(r)
    target = {}
    for i, (kind, payload, _) in enumerate(r):
        if kind == "v" and payload in mapping:
            sub = mapping[payload]
            if i == 0:  # the whole term is this leaf
                return sub
            offset = target[i] = len(nodes)
            nodes.extend((k, p, tuple(offset + c for c in kids))
                         for k, p, kids in sub)
    if not target:
        return r
    for i, (kind, payload, kids) in enumerate(r):
        if kids:
            nodes[i] = (kind, payload, tuple(target.get(c, c) for c in kids))
    return minimal(nodes)


def bisimilar(r1, r2):
    """Do two term graphs unfold to the same tree?

    Coinductive pair walk, independent of colp's canonical form: a pair
    under comparison is assumed equal while its children are compared.
    Sound and complete because each node has one ordered child list.
    """
    seen = set()
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        k1, p1, c1 = r1[i]
        k2, p2, c2 = r2[j]
        if k1 != k2 or p1 != p2 or len(c1) != len(c2):
            return False
        stack.extend(zip(c1, c2))
    return True


def instantiations_by_enumeration(solved, qvars, u):
    """Reference for universe_instantiations: try every assignment of
    universe elements to the free leaves of the answer values."""
    rts = [value(solved, v) for v in qvars]
    free = free_leaf_names(rts)
    out = set()
    for combo in itertools.product(elements(u), repeat=len(free)):
        mapping = dict(zip(free, combo))
        idxs = tuple(u.index_of(substitute(rt, mapping)) for rt in rts)
        if None not in idxs:
            out.add(idxs)
    return frozenset(out)


def eval_ground_builtin(pred, args):
    """Truth of a builtin atom on ground values; raises
    BuiltinTypeError outside the builtin's contract."""
    if pred == "true":
        return True
    a, b = args
    if pred == "=":
        return a == b
    if pred == "\\=":
        return a != b
    if pred == "is":
        return a == value(EMPTY_SOLVED, Num(arith_value(b)))
    x = arith_value(a)
    y = arith_value(b)
    return {"<": x < y, ">": x > y, "=<": x <= y, ">=": x >= y}[pred]


def ground_instances_by_enumeration(clauses, u):
    """Reference for ground_instances: try every assignment of universe
    elements to the clause variables, substituting into each argument's
    value and looking the result up among the elements."""
    rules = set()
    # a type error's message, or the (predicate, value) of an escape
    pending = {}
    for clause in clauses:
        cvars = ordered_vars(clause)
        names = [v.display() for v in cvars]
        atoms = [(atom, is_builtin(atom),
                  [value(EMPTY_SOLVED, t) for t in atom.args])
                 for atom in (clause.head, *clause.body)]
        for combo in itertools.product(elements(u), repeat=len(cvars)):
            mapping = dict(zip(names, combo))
            keep = True
            ground = []
            for atom, builtin, graphs in atoms:
                if builtin:
                    try:
                        keep = eval_ground_builtin(
                            atom.pred, [substitute(g, mapping) for g in graphs])
                    except BuiltinTypeError as e:
                        pending.setdefault(f"dropped instance of {atom.pred}/"
                                           f"{len(atom.args)}: {e}")
                        keep = False
                    if not keep:
                        break
                    continue
                indexes = []
                for g in graphs:
                    filled = substitute(g, mapping)
                    idx = u.index_of(filled)
                    if idx is None:
                        pending.setdefault((atom.pred, filled))
                        keep = False
                        break
                    indexes.append(idx)
                if not keep:
                    break
                ground.append((atom.pred, tuple(indexes)))
            if keep and ground:
                rules.add(GroundRule(frozenset(ground[1:]), ground[0]))
    warnings = [key if isinstance(key, str) else
                f"instance escapes the universe: {key[0]} on "
                f"{term_str_by_recursion(truncate(key[1], 8))}"
                for key in pending]
    return frozenset(rules), tuple(dict.fromkeys(warnings))


# the paper's loop-derivability reading of Reg, checked against the
# fixed points
class LoopProver:
    """Derivability of hypothetical judgments: an atom holds under a set of
    already-visited atoms if it is a visited atom in the inductive model of
    clauses plus coclauses, or some ground clause concludes it with all
    premises derivable after adding it to the visited set.

    Judgments with the atom inside the hypothesis set form one stratum per
    hypothesis set and are solved together as a least fixed point; all other
    recursion strictly grows the hypothesis set, so the search terminates.
    """

    def __init__(self, rules: frozenset, ind_all: frozenset):
        self.ind_all = ind_all
        self.by_conclusion: dict[GroundAtom, list[frozenset]] = {}
        for r in rules:
            self.by_conclusion.setdefault(r.conclusion, []).append(r.premises)
        self._clusters: dict[frozenset, frozenset] = {}
        self._jumps: dict[tuple[frozenset, GroundAtom], bool] = {}

    def derivable(self, hyps: frozenset, atom: GroundAtom) -> bool:
        if atom in hyps:
            return atom in self._cluster(hyps)
        key = (hyps, atom)
        got = self._jumps.get(key)
        if got is None:
            grown = hyps | {atom}
            got = any(all(self.derivable(grown, b) for b in premises)
                      for premises in self.by_conclusion.get(atom, ()))
            self._jumps[key] = got
        return got

    def _cluster(self, hyps: frozenset) -> frozenset:
        got = self._clusters.get(hyps)
        if got is not None:
            return got
        derived = {a for a in hyps if a in self.ind_all}
        changed = True
        while changed:
            changed = False
            for atom in hyps:
                if atom in derived:
                    continue
                for premises in self.by_conclusion.get(atom, ()):
                    if all(b in derived if b in hyps
                           else self.derivable(hyps | {b}, b)
                           for b in premises):
                        derived.add(atom)
                        changed = True
                        break
        result = frozenset(derived)
        self._clusters[hyps] = result
        return result


def herbrand_base(prog, u):
    """Every atom of the program's predicates over the universe."""
    return frozenset(
        (pred, combo)
        for pred, arity in signatures(prog.clauses + prog.coclauses)
        for combo in itertools.product(range(len(u)), repeat=arity))


def loop_matches_regular(sem, base):
    """The hypothetical-judgment reading agrees with the fixed-point one on
    every atom of the base."""
    prover = LoopProver(sem.rules, sem.ind_all)
    empty = frozenset()
    return all(prover.derivable(empty, a) == (a in sem.reg) for a in base)


def regular_by_enumeration(rules, bound):
    """Union of all consistent subsets of the bound, by brute force."""
    atoms = sorted(bound)
    n = len(atoms)
    if n > 16:
        raise ValueError("enumeration bound exceeded (16 atoms)")
    position = {a: i for i, a in enumerate(atoms)}
    premise_masks = {}
    for r in rules:
        if r.conclusion not in position:
            continue
        if not all(b in position for b in r.premises):
            continue
        mask = 0
        for b in r.premises:
            mask |= 1 << position[b]
        premise_masks.setdefault(1 << position[r.conclusion], []).append(mask)
    union = 0
    for subset in range(1 << n):
        ok = True
        probe = subset
        while probe:
            bit = probe & -probe
            probe -= bit
            if not any((pmask & subset) == pmask
                       for pmask in premise_masks.get(bit, ())):
                ok = False
                break
        if ok:
            union |= subset
    return frozenset(a for a, i in position.items() if union & (1 << i))


# --- the unindexed engine: every clause renamed by a full walk and solved,
# every same-signature hypothesis solved -------------------------------------

def fresh_rename_by_walk(clause, counter):
    """Reference for terms.fresh_rename: rebuild every argument of the
    clause with each variable stamped with one fresh index."""
    stamp = next(counter)
    if not vars_of(clause):
        return clause

    def leaf(t):
        return Var(t.name, stamp) if isinstance(t, Var) else t

    def atom(a):
        return Atom(a.pred, tuple(map_leaves(t, leaf) for t in a.args))

    return Clause(atom(clause.head), tuple(map(atom, clause.body)))


@dataclass(frozen=True)
class ReferenceFrame:
    atom: Atom
    hyps: tuple  # atoms, insertion order, duplicates collapsed
    inner: bool
    depth: int


@dataclass(frozen=True)
class CoHypMove:
    """A co-hyp move still to be made: re-derive the atom at depth, then
    go on with the rest of the frames."""
    atom: Atom
    depth: int
    rest: tuple


class ReferenceRun:
    """Reference for engine._Run: one depth-first sweep at a fixed budget,
    with the clause tables rebuilt for the sweep.  Each co-hyp move runs
    its re-derivation as a nested search.  With tabled, a list of every
    failed ground re-derivation stands in for the engine's failure table:
    a move is skipped if one of them failed on an equal value, by hitting
    the wall with at least as much budget left or finitely with at most as
    much.  Nested searches make budgets over a few hundred too deep."""

    def __init__(self, prog, budget, prefer, diagnostics, trace,
                 tabled=True):
        self.budget = budget
        self.prefer = prefer
        self.diagnostics = diagnostics
        self.trace = trace
        self.pruned = False
        self.fresh = itertools.count(1)
        self.tabled = tabled
        self.walls = 0
        self.errors = 0
        self.failures = []  # (predicate, argument values, budget left, walled)
        self.cohyps_alone = 0  # wall states with a co-hyp move and no step
        self.has_co = bool(prog.coclauses)
        self.outer = {}
        for i, cl in enumerate(prog.clauses, 1):
            sig = (cl.head.pred, len(cl.head.args))
            self.outer.setdefault(sig, []).append((f"c{i}", cl))
        self.inner = {sig: list(alts) for sig, alts in self.outer.items()}
        for i, cl in enumerate(prog.coclauses, 1):
            sig = (cl.head.pred, len(cl.head.args))
            self.inner.setdefault(sig, []).append((f"co{i}", cl))

    def _tline(self, depth, text):
        if self.trace is not None:
            self.trace.write("  " * depth + text + "\n")

    def solve_frames(self, frames, solved):
        for solved, _ in self._search(frames, solved, 0, False):
            yield solved

    def _search(self, frames, solved, used, inner):
        """Yield (equations, budget used) of each success; an inner search
        re-derives one atom, so its successes are not the sweep's."""
        stack = [(frames, solved, used, None)]
        while stack:
            frames, solved, used, note = stack.pop()
            if note is not None:
                self._tline(note[0], note[1])
            if isinstance(frames, CoHypMove):
                yield from self._cohyp(frames, solved, used)
                continue
            if not frames:
                if not inner:
                    self._tline(0, "EMPTY")
                yield solved, used
                continue
            frame, rest = frames[0], frames[1:]
            atom = frame.atom

            if is_builtin(atom):
                try:
                    after = eval_builtin(atom, solved)
                except BuiltinTypeError as e:
                    self.errors += 1
                    snap = atom_to_str(atom, solved)
                    snap = snap if len(snap) <= 200 else snap[:197] + "..."
                    message = f"type error: {e} in {snap}"
                    if message not in self.diagnostics:
                        self.diagnostics.append(message)
                    continue
                if after is not None:
                    stack.append((rest, after, used, None))
                continue

            sig = (atom.pred, len(atom.args))
            if frame.inner:
                hyps = ()
            else:
                hyps = (frame.hyps if atom in frame.hyps
                        else frame.hyps + (atom,))
            steps = []
            for cid, clause in (self.inner if frame.inner
                                else self.outer).get(sig, ()):
                renamed = fresh_rename_by_walk(clause, self.fresh)
                after = solve(zip(atom.args, renamed.head.args), solved)
                if after is None:
                    continue
                body = tuple(ReferenceFrame(b, hyps, frame.inner,
                                            frame.depth + 1)
                             for b in renamed.body)
                note = None
                if self.trace is not None:
                    note = (frame.depth,
                            f"STEP {atom_to_str(atom, after)} via {cid}")
                steps.append((body + rest, after, used + 1, note))
            cohyps = []
            for hyp in frame.hyps:
                if not self.has_co or (hyp.pred, len(hyp.args)) != sig:
                    continue
                after = solve(zip(atom.args, hyp.args), solved)
                if after is None:
                    continue
                note = None
                if self.trace is not None:
                    note = (frame.depth, f"COHYP {atom_to_str(atom, after)} "
                                         f"~ {atom_to_str(hyp, after)}")
                move = CoHypMove(atom, frame.depth + 1, rest)
                cohyps.append((move, after, used + 1, note))
            alts = cohyps + steps if self.prefer == "cohyp" else steps + cohyps

            if used >= self.budget:
                if alts:
                    self.pruned = True
                    self.walls += 1
                    self.cohyps_alone += not steps
                continue
            stack.extend(reversed(alts))

    def _cohyp(self, move, solved, used):
        """Yield what _search does for a co-hyp move's state: re-derive the
        atom, then go on from each success."""
        left = self.budget - used
        ground = False
        if self.tabled:
            values = [value(solved, t) for t in move.atom.args]
            ground = all(map(is_ground, values))
        if ground:
            for pred, known, r, walled in self.failures:
                if (pred == move.atom.pred and known == values
                        and (left <= r if walled else left >= r)):
                    self.pruned |= walled
                    if self.trace is not None:
                        self._tline(move.depth,
                                    f"TABLED {atom_to_str(move.atom, solved)} "
                                    f"{'exhausted' if walled else 'failed'} "
                                    f"within {left}")
                    return
        walls, errors = self.walls, self.errors
        redo = (ReferenceFrame(move.atom, (), True, move.depth),)
        rederived = False
        for after, spent in self._search(redo, solved, used, True):
            rederived = True
            yield from self._search(move.rest, after, spent, False)
        if ground and not rederived and errors == self.errors:
            self.failures.append((move.atom.pred, values, left,
                                  walls != self.walls))


def apply_mode(prog: Program, mode: str) -> Program:
    """Reference for Program.templates(mode): inductive drops the
    coclauses; coinductive replaces them with one universal cofact per
    predicate signature used by the clauses."""
    if mode == "inductive":
        return Program(prog.clauses, ())
    if mode == "coinductive":
        cofacts = tuple(
            Clause(Atom(p, tuple(Var(f"A{i + 1}", 0) for i in range(n))), ())
            for p, n in signatures(prog.clauses))
        return Program(prog.clauses, cofacts)
    return prog


def reference_run_query(prog, query, cfg, trace=None, tabled=True):
    """Reference for engine.run_query over ReferenceRun sweeps; untabled
    with tabled=False."""
    applied = apply_mode(prog, cfg.mode)
    frames = tuple(ReferenceFrame(a, (), False, 0) for a in query.atoms)

    def generate():
        seen = set()
        emitted = 0
        for level in _budget_levels(cfg):
            run = ReferenceRun(applied, level, cfg.prefer,
                               outcome.diagnostics, trace, tabled)
            for solved in run.solve_frames(frames, EMPTY_SOLVED):
                key = answer_key_by_table(solved, query.variables)
                if key in seen:
                    continue
                seen.add(key)
                yield solved
                emitted += 1
                if cfg.max_answers is not None and emitted >= cfg.max_answers:
                    return
            if not run.pruned:
                outcome.exhaustion = COMPLETE if emitted else FINITELY_FAILED
                return
        outcome.exhaustion = BUDGET_EXHAUSTED

    outcome = Outcome(generate(), [])
    return outcome
