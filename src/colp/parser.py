"""Concrete syntax: lexer, parser and printers.

    head :- b1, ..., bn.     clause          head.      fact
    head :~ b1, ..., bn.     coclause        head :~.   cofact
    ?- a1, ..., an.          query

A name is a letter or `_` then letters, digits and `_`, so `²x` is an error.
Variables start with an uppercase letter or underscore; a bare `_` is
anonymous and fresh at each occurrence.  Lists are sugar over '.'/2 and [].
`%` comments to end of line.  The infix builtins  =  \\=  <  >  =<  >=  is
are goal-level only; + - * build terms anywhere and are evaluated by is.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .terms import (Atom, BUILTIN_ARITIES, BUILTIN_NAMES, Clause, Compound,
                    NIL, Num, Program, Term, Var, cons, ordered_vars)
from .equations import SolvedForm

_SYMBOLS = [":-", ":~", "?-", "\\=", "=<", ">=",
            "=", "<", ">", "(", ")", "[", "]", "|", ",", ".", "+", "-", "*"]

_INFIX_GOALS = {name for name, arity in BUILTIN_ARITIES if arity == 2}

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
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class SyntaxErrors(Exception):
    """All issues found in one source, collected with clause-level recovery."""

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
        if t.kind == "int":
            try:
                value = int(t.text)
            except ValueError:  # beyond int()'s limit on decimal digits
                self.fail(f"integer literal of {len(t.text)} digits is too long")
            self.next()
            return Num(value)
        if t.kind == "sym" and t.text == "-":
            self.next()
            inner = self.primary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Compound("-", (inner,))
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
        self.next()
        if self.at_sym("("):
            return Atom(t.text, self.arg_list())
        return Atom(t.text, ())

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

_PREC = {"+": 500, "-": 500, "*": 400}


def term_to_str(t: Term) -> str:
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


def atom_to_str(a: Atom) -> str:
    if a.pred in _INFIX_GOALS and len(a.args) == 2:
        return f"{term_to_str(a.args[0])} {a.pred} {term_to_str(a.args[1])}"
    if not a.args:
        return a.pred
    return f"{a.pred}({', '.join(term_to_str(x) for x in a.args)})"


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

    Cyclic values print equationally by reusing the variable that closes the
    cycle, e.g.  L = [1,2|L].  With no query variables the answer is `true`.
    """
    if not qvars:
        return "true"
    lines = []
    for v in qvars:
        w = solved.walk(v)
        if isinstance(w, Var):
            rhs = "_" if w == v else w.display()
        else:
            rhs = term_to_str(_unfold(v, solved, {}))
        lines.append(f"{v.display()} = {rhs}")
    return "\n".join(lines)


def atom_snapshot(a: Atom, solved: SolvedForm) -> str:
    return atom_to_str(Atom(a.pred, tuple(_unfold(x, solved, {}) for x in a.args)))


def _unfold(t: Term, solved: SolvedForm, active: dict[Term, str]) -> Term:
    """Finite syntactic image of a possibly-cyclic value: a back edge becomes
    a variable leaf named after the variable whose binding it re-enters."""
    w = solved.walk(t)
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
