"""Concrete syntax: lexer, parser and printers.

    head :- b1, ..., bn.     clause          head.      fact
    head :~ b1, ..., bn.     coclause        head :~.   cofact
    ?- a1, ..., an.          query

A name is a letter or `_` then letters, digits and `_`, so `²x` is an error.
Variables start with an uppercase letter or underscore; a bare `_` is
anonymous and fresh at each occurrence.  Lists are sugar over '.'/2 and [].
`%` comments to end of line.  The infix builtins  =  \\=  <  >  =<  >=  is
are goal-level only; + - * build terms anywhere and are evaluated by is.

A term is an integer, a variable, a name with or without an argument list
f(t1, ..., tn), a list [t1, ..., tn | t], a term in parentheses, -t for t
one of these, or terms joined by the operators of _PREC, where a lower
number binds tighter and every operator associates to the left.  A minus
sign just before an integer token makes a negative integer: -3 and - 3 are
integers, -(3) and --3 compounds, and render prints them back so.  Terms are
parsed in one loop on a stack of the constructs still open, so their depth
is bounded by memory, not by the recursion limit.

One renderer, render, prints every value from a node table on a stack:
answers, trace lines, terms and the oracle's escape warnings.  _unfold
builds the table of terms under a solved form, in the shape written.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence

from .terms import (Atom, BUILTIN_ARITIES, BUILTIN_NAMES, Clause, Compound,
                    NIL, Num, Program, Term, Var, cons, ordered_vars)
from .equations import EMPTY_SOLVED, SolvedForm

_SYMBOLS = [":-", ":~", "?-", "\\=", "=<", ">=",
            "=", "<", ">", "(", ")", "[", "]", "|", ",", ".", "+", "-", "*"]

_INFIX_GOALS = {name for name, arity in BUILTIN_ARITIES if arity == 2}
# the binary operators, for parsing and printing: a lower number binds tighter
_PREC = {"+": 500, "-": 500, "*": 400}

# One alternative per token kind, tried in this order at each position.  A
# trailing comment is part of end of input, which keeps the column of its %.
_TOKEN = re.compile("|".join((
    r"(?P<nl>\n)", r"(?P<eof>(?:%[^\n]*)?\Z)", r"(?P<skip>[ \t\r]+|%[^\n]*)",
    r"(?P<int>\d+)", r"(?P<word>\w+)",
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")", r"(?P<bad>.)")))


@dataclass(frozen=True)
class ParseIssue:
    message: str
    line: int
    col: Optional[int] = None

    def __str__(self) -> str:
        at = self.line if self.col is None else f"{self.line}:{self.col}"
        return f"{at}: {self.message}"


class SyntaxErrors(Exception):
    """All issues found in one source: a program or query, collected with
    clause-level recovery, or a universe, whose first issue ends it."""

    def __init__(self, origin: str, issues: Sequence[ParseIssue]):
        self.origin = origin
        self.issues = list(issues)
        super().__init__("; ".join(f"{origin}:{i}" for i in self.issues))


class _Bail(Exception):
    """Internal: abort the current clause, recover at the next '.'."""

    def __init__(self, issue: ParseIssue):
        self.issue = issue


@dataclass(frozen=True)
class Tok:
    kind: str  # "int" | "atom" | "var" | "sym" | "bad" | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, line, line_start = 0, 1, 0
    while True:
        m = _TOKEN.match(text, i)
        kind, word, col = m.lastgroup, m.group(), i - line_start + 1
        i = m.end()
        if kind == "word":
            first = word[0]
            if not (first.isalpha() or first == "_"):  # \w also takes '²'
                kind, word, i = "bad", first, m.start() + 1
            else:
                kind = "var" if first == "_" or first.isupper() else "atom"
        if kind == "nl":
            line, line_start = line + 1, i
        elif kind == "eof":
            toks.append(Tok("eof", "", line, col))
            return toks
        elif kind != "skip":
            # a "bad" token is reported by the parser, which knows the
            # origin and recovers
            toks.append(Tok(kind, word, line, col))


@dataclass(frozen=True)
class Query:
    atoms: tuple[Atom, ...]
    variables: tuple[Var, ...]  # named query variables, first occurrence order


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.anon = 0

    def peek(self) -> Tok:
        t = self.toks[self.pos]
        if t.kind == "bad":
            raise _Bail(ParseIssue(f"unexpected character {t.text!r}",
                                   t.line, t.col))
        return t

    def next(self) -> Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def expect_sym(self, text: str) -> Tok:
        t = self.peek()
        if not self.at_sym(text):
            raise _Bail(ParseIssue(f"expected {text!r}, found {t.text or 'end of input'!r}",
                                   t.line, t.col))
        return self.next()

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise _Bail(ParseIssue(msg, t.line, t.col))

    # -- terms ------------------------------------------------------------

    def term(self, maxprec: int = 999) -> Term:
        """A term with no operator looser than maxprec outside brackets.
        The stack holds each construct still open: None for a unary minus,
        an operator waiting for its right operand, or a bracket as (closing
        symbol, functor, index in out of its first item), where the functor
        is "" for parentheses, "." for a list and "|" for a list's tail."""
        out: list[Term] = []
        stack: list = [("", "", 0)]  # the term itself, closed by any token
        while True:
            t = self.peek()  # unary minus signs and brackets, then an operand
            sign = t.text == "-" and self.toks[self.pos + 1].kind == "int"
            if sign:  # -3 and - 3 are integers, -(3) and --3 are not
                self.next()
                t = self.peek()
            if t.text == "]" and stack[-1] == ("]", ".", len(out)):
                pass  # an empty list, closed below
            elif t.kind == "int":
                try:
                    out.append(Num(-int(t.text) if sign else int(t.text)))
                except ValueError:  # beyond int()'s limit on decimal digits
                    self.fail(f"integer literal of {len(t.text)} digits is too long")
                self.next()
            elif t.kind not in ("var", "atom") and t.text not in ("-", "(", "["):
                self.fail(f"expected a term, found {t.text or 'end of input'!r}")
            elif self.next().text == "-":  # t is consumed from here on
                stack.append(None)
                continue
            elif t.kind == "var":
                self.anon += t.text == "_"
                out.append(Var(f"_#{self.anon}" if t.text == "_" else t.text, 0))
            elif t.kind == "atom" and not self.at_sym("("):
                out.append(Compound(t.text, ()))
            else:
                if t.kind == "atom":
                    self.next()
                stack.append(("]", ".", len(out)) if t.text == "[" else
                             (")", "" if t.text == "(" else t.text, len(out)))
                continue
            while True:  # an operand is complete, or an empty list
                while stack[-1] is None:
                    out[-1] = Compound("-", (out[-1],))
                    stack.pop()
                t = self.peek()
                prec = _PREC.get(t.text, 1000)  # not an operator: above any ceiling
                while stack[-1] in _PREC and _PREC[stack[-1]] <= prec:
                    right = out.pop()
                    out[-1] = Compound(stack.pop(), (out[-1], right))
                if prec <= (maxprec if len(stack) == 1 else 999):
                    stack.append(self.next().text)
                    break
                close, functor, start = stack[-1]
                if not close:
                    return out[0]
                if (t.text == "," and functor not in ("", "|")
                        or t.text == "|" and functor == "."):
                    if self.next().text == "|":
                        stack[-1] = ("]", "|", start)
                    break
                self.expect_sym(close)
                stack.pop()
                items, out[start:] = out[start:], []
                if functor in (".", "|"):
                    tail = items.pop() if functor == "|" else NIL
                    for item in reversed(items):
                        tail = cons(item, tail)
                    out.append(tail)
                else:
                    out.append(Compound(functor, tuple(items)) if functor else items[0])

    # -- goals and clauses --------------------------------------------------

    def goal(self) -> Atom:
        start = self.peek()
        left = self.term()
        t = self.peek()
        if t.text in _INFIX_GOALS:  # a symbol token, or the atom is
            self.next()
            right = self.term()
            return Atom(t.text, (left, right))
        if isinstance(left, Compound):
            return Atom(left.functor, left.args)
        raise _Bail(ParseIssue("a goal must be an atom or an infix builtin",
                               start.line, start.col))

    def body(self) -> tuple[Atom, ...]:
        goals = [self.goal()]
        while self.at_sym(","):
            self.next()
            goals.append(self.goal())
        return tuple(goals)

    def head(self) -> Atom:
        t = self.peek()
        if t.kind != "atom":
            self.fail(f"expected a clause head, found {t.text or 'end of input'!r}")
        h = self.term(0)
        return Atom(h.functor, h.args)

    def clause(self) -> tuple[Clause, bool]:
        """One clause; the flag says whether it is a coclause."""
        h = self.head()
        if self.at_sym("."):
            self.next()
            return Clause(h, ()), False
        for neck, co in ((":-", False), (":~", True)):
            if self.at_sym(neck):
                self.next()
                # only a coclause may have an empty body
                b = () if co and self.at_sym(".") else self.body()
                self.expect_sym(".")
                return Clause(h, b), co
        self.fail("expected '.', ':-' or ':~' after the clause head")

    def skip_past_dot(self) -> None:
        while True:
            t = self.next()
            if t.kind == "eof" or (t.kind == "sym" and t.text == "."):
                return


def _validate(clauses: list[tuple[Clause, bool, Tok]]) -> list[ParseIssue]:
    issues = []
    for cl, _, tok in clauses:
        sig = (cl.head.pred, len(cl.head.args))
        if cl.head.pred in BUILTIN_NAMES:
            issues.append(ParseIssue(
                f"cannot redefine builtin {sig[0]}/{sig[1]}", tok.line, tok.col))
        for atom in cl.body:
            if atom.pred in BUILTIN_NAMES and (atom.pred, len(atom.args)) not in BUILTIN_ARITIES:
                issues.append(ParseIssue(
                    f"builtin {atom.pred} used at arity {len(atom.args)}",
                    tok.line, tok.col))
    return issues


def parse_program(text: str, origin: str = "<string>") -> Program:
    p = _Parser(text)
    parsed: list[tuple[Clause, bool, Tok]] = []
    issues: list[ParseIssue] = []
    while p.toks[p.pos].kind != "eof":
        start = p.toks[p.pos]
        try:
            cl, is_co = p.clause()
            parsed.append((cl, is_co, start))
        except _Bail as b:
            issues.append(b.issue)
            p.skip_past_dot()
    issues.extend(_validate(parsed))
    if issues:
        raise SyntaxErrors(origin, issues)
    clauses = tuple(cl for cl, co, _ in parsed if not co)
    coclauses = tuple(cl for cl, co, _ in parsed if co)
    return Program(clauses, coclauses)


def parse_query(text: str, origin: str = "<query>") -> Query:
    p = _Parser(text)
    try:
        if p.at_sym("?-"):
            p.next()
        atoms = p.body()
        if p.at_sym("."):
            p.next()
        if p.peek().kind != "eof":
            p.fail("trailing input after the query")
    except _Bail as b:
        raise SyntaxErrors(origin, [b.issue]) from None
    if atoms == (Atom("true", ()),):
        atoms = ()
    variables = tuple(v for v in ordered_vars(atoms)
                      if not v.name.startswith("_#"))
    return Query(atoms, variables)


def parse_term_text(text: str, origin: str = "<term>") -> Term:
    """A single term, used by universe files."""
    p = _Parser(text)
    try:
        t = p.term()
        if p.peek().kind != "eof":
            p.fail("trailing input after the term")
    except _Bail as b:
        raise SyntaxErrors(origin, [b.issue]) from None
    return t


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def render(nodes: Sequence[tuple], root: int = 0,
           depth: float = float("inf")) -> str:
    """The tree at root of a node table as text, with list sugar, operators,
    _ for an anonymous variable and ... for a node at the depth, where a
    cons spends one level on its head and its tail.  Built on a stack."""
    out: list[str] = []
    # text, or (node, depth, precedence, right operand, text before it)
    stack: list = [(root, depth, 1000, False, "")]
    while stack:
        task = stack.pop()
        if task.__class__ is str:
            out.append(task)
            continue
        i, depth, maxprec, right, before = task
        kind, p, kids = nodes[i]
        if depth <= 0 or not kids:
            out.append(before + ("..." if depth <= 0 else "_" if kind == "v"
                                 and p.startswith("_#") else str(p)))
        elif p == "." and len(kids) == 2:
            items = [(kids[0], depth - 1, 999, False, before + "[")]
            i, depth = kids[1], depth - 1
            while depth > 0 and nodes[i][1] == "." and len(nodes[i][2]) == 2:
                items.append((nodes[i][2][0], depth - 1, 999, False, ","))
                i, depth = nodes[i][2][1], depth - 1
            if depth <= 0 or nodes[i] != ("f", "[]", ()):
                items.append((i, depth, 999, False, "|"))
            stack += ["]", *reversed(items)]
        elif p in _PREC and len(kids) == 2:
            prec = _PREC[p]
            if (prec, right) > (maxprec, False):
                before += "("
                stack.append(")")
            stack += [(kids[1], depth - 1, prec, True, p),
                      (kids[0], depth - 1, prec, False, before)]
        elif p == "-" and len(kids) == 1:
            if depth > 1 and nodes[kids[0]][0] == "n":  # -(3): -3 is an int
                stack += [")", (kids[0], depth - 1, 999, False, before + "-(")]
            else:
                stack.append((kids[0], depth - 1, 0, False, before + "-"))
        else:
            stack.append(")")
            stack += [(c, depth - 1, 999, False, ", ") for c in kids[:0:-1]]
            stack.append((kids[0], depth - 1, 999, False, before + p + "("))
    return "".join(out)


def _unfold(terms: Sequence[Term],
            solved: SolvedForm) -> tuple[list[tuple], list[int]]:
    """The values of terms under a solved form as one node table, in the
    shape written, and each term's root.  A compound equal as syntax to one
    entered through a variable higher on its path is a leaf named after the
    variable; syntax ids are hash-consed, and memoised per term object."""
    nodes: list = []
    roots: list[int] = []
    consed: dict = {}
    sids: dict[int, int] = {}  # id of a term object -> its syntax id

    def sid(t: Term) -> int:
        todo = [t]
        while id(t) not in sids:
            x = todo[-1]
            subs = [a for a in x.args
                    if a.__class__ is Compound and id(a) not in sids]
            if subs:
                todo += subs
                continue
            todo.pop()
            key = (x.functor, *[sids[id(a)] if a.__class__ is Compound
                                else a for a in x.args])
            sids[id(x)] = consed.setdefault(key, len(consed))
        return sids[id(t)]

    for term in terms:
        active: dict[int, str] = {}  # syntax ids entered on the path
        # (a term, the list its id goes to), or (a syntax id to leave, None)
        stack: list = [(term, roots)]
        while stack:
            t, parent = stack.pop()
            if parent is None:
                del active[t]
                continue
            parent.append(len(nodes))
            w = solved.walk(t) if t.__class__ is Var else t
            if w.__class__ is Num:
                nodes.append(("n", w.value, ()))
            elif w.__class__ is Var:
                nodes.append(("v", w.display(), ()))
            elif (key := sid(w)) in active:
                nodes.append(("v", active[key], ()))
            else:
                kids: list[int] = []
                nodes.append(("f", w.functor, kids))
                if t is not w:  # entered through the variable t
                    active[key] = t.display()
                    stack.append((key, None))
                stack += [(a, kids) for a in reversed(w.args)]
    return [(k, p, tuple(c)) for k, p, c in nodes], roots


def term_to_str(t: Term) -> str:
    nodes, roots = _unfold([t], EMPTY_SOLVED)
    return render(nodes, roots[0])


def atom_to_str(a: Atom, solved: SolvedForm = EMPTY_SOLVED) -> str:
    """An atom with its arguments' values under a solved form, as answers."""
    nodes, roots = _unfold(a.args, solved)
    args = [render(nodes, r) for r in roots]
    if a.pred in _INFIX_GOALS and len(args) == 2:
        return f"{args[0]} {a.pred} {args[1]}"
    return f"{a.pred}({', '.join(args)})" if args else a.pred


def clause_to_str(c: Clause, coclause: bool = False) -> str:
    neck = ":~" if coclause else ":-"
    if not c.body:
        return f"{atom_to_str(c.head)} :~." if coclause else f"{atom_to_str(c.head)}."
    return f"{atom_to_str(c.head)} {neck} {', '.join(atom_to_str(b) for b in c.body)}."


def program_to_str(p: Program) -> str:
    lines = [clause_to_str(c) for c in p.clauses]
    lines += [clause_to_str(c, coclause=True) for c in p.coclauses]
    return "\n".join(lines)


def print_answer(solved: SolvedForm, qvars: Sequence[Var]) -> str:
    """Render an answer restricted to the query variables, one line each.

    A cyclic value names the variable that closes the cycle, L = [1,2|L];
    an unbound variable prints as _, and no query variables as `true`.  An
    anonymous variable that occurs more than once is named _1, _2, ... in
    order of first appearance, skipping the query's own names.
    """
    if not qvars:
        return "true"
    nodes, roots = _unfold(qvars, solved)
    anon = Counter(p for k, p, _ in nodes if k == "v" and p.startswith("_#"))
    anon.subtract(v.display() for v in qvars if solved.walk(v) == v)  # as _
    taken = {v.display() for v in qvars}
    names = (name for i in count(1) if (name := f"_{i}") not in taken)
    shared = {p: next(names) for p, n in anon.items() if n > 1}
    nodes = [(k, shared.get(p, p), c) for k, p, c in nodes] if shared else nodes
    lines = []
    for v, root in zip(qvars, roots):
        rhs = "_" if solved.walk(v) == v else render(nodes, root)
        lines.append(f"{v.display()} = {rhs}")
    return "\n".join(lines)
