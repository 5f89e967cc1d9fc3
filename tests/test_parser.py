import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from colp.engine import Config, run_query
from colp.equations import solve
from colp.parser import (_SYMBOLS, ParseIssue, SyntaxErrors, _lex,
                         atom_to_str, clause_to_str, parse_program,
                         parse_query, parse_term_text, print_answer,
                         program_to_str, term_to_str)
from colp.terms import (NIL, Atom, Clause, Compound, Num, Var, cons,
                        map_leaves, ordered_vars)

from conftest import (PROGRAMS_DIR, answer_by_recursion,
                      atom_str_by_recursion, lex_by_characters, make_list,
                      recursive_parser, term_str_by_recursion)


def test_facts_rules_and_coclauses():
    prog = parse_program("p(a).\nq(X) :- p(X).\nr(X) :~.\n"
                         "t(X) :~ q(X), p(X).\n")
    assert len(prog.clauses) == 2
    assert len(prog.coclauses) == 2
    assert prog.coclauses[0].body == ()
    assert len(prog.coclauses[1].body) == 2


def test_list_sugar_desugars_to_cons():
    t = parse_term_text("[1,2|L]")
    assert t == cons(Num(1), cons(Num(2), Var("L", 0)))
    assert parse_term_text("[]") == NIL
    assert parse_term_text("[a]") == cons(Compound("a", ()), NIL)


def test_anonymous_vars_are_distinct():
    prog = parse_program("p(_, _).\n")
    a, b = prog.clauses[0].head.args
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a != b


def test_arithmetic_precedence():
    t = parse_term_text("1 + 2 * 3 - 4")
    plus = Compound("+", (Num(1), Compound("*", (Num(2), Num(3)))))
    assert t == Compound("-", (plus, Num(4)))
    assert parse_term_text("1-2-3") == Compound(
        "-", (Compound("-", (Num(1), Num(2))), Num(3)))


def test_unary_minus_folds_numbers():
    for text in ["-3", "- 3"]:
        assert parse_term_text(text) == Num(-3)
    # only a sign just before an integer token folds
    assert parse_term_text("-(3)") == Compound("-", (Num(3),))
    assert parse_term_text("--3") == Compound("-", (Num(-3),))
    t = parse_term_text("1 - -3")
    assert t == Compound("-", (Num(1), Num(-3)))
    fa = Compound("f", (Compound("a", ()),))
    assert parse_term_text("-f(a)*2") == Compound(
        "*", (Compound("-", (fa,)), Num(2)))


def test_infix_goals_become_atoms():
    q = parse_query("?- X = 1, X \\= 2, Y is X + 1, Y > X, X < Y, "
                    "X =< Y, Y >= X.")
    preds = [a.pred for a in q.atoms]
    assert preds == ["=", "\\=", "is", ">", "<", "=<", ">="]


def test_query_variables_in_first_appearance_order():
    q = parse_query("member(Y, [X, Y]), X > 0.")
    assert [v.display() for v in q.variables] == ["Y", "X"]


def test_query_skips_anonymous_variables():
    q = parse_query("?- p(_, X).")
    assert [v.display() for v in q.variables] == ["X"]


def test_true_query_is_empty():
    assert parse_query("?- true.").atoms == ()


def test_comments_are_ignored():
    prog = parse_program("% a comment\np(a). % trailing\n")
    assert len(prog.clauses) == 1


# --- the lexer against the one-character-at-a-time reference ------------

# letters, decimal digits ('٠' is an Arabic-Indic zero), digits that are not
# decimal ('²', '½', 'Ⅻ'), blanks, comment starts and every symbol
_LEX_PIECES = (list("aZ_x90²½Ⅻ٠éß中ǅ \t\r\n%:-~?\\=<>()[]|,.+*$'\"")
               + [s for s in _SYMBOLS if len(s) == 2])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=25).map("".join))
def test_lexer_matches_reference(text):
    assert _lex(text) == lex_by_characters(text)


@pytest.mark.parametrize("text, last", [
    ("p(X %c", ("eof", "", 1, 5)),   # end of input stays at the '%'
    ("\u00b2abc", ("atom", "abc", 1, 2)),  # '²' alone is the bad token
    ("12abc", ("atom", "abc", 1, 3)),
    ("\u0660", ("int", "\u0660", 1, 1)),  # a decimal digit
])
def test_lexer_edge_cases(text, last):
    toks = _lex(text)
    assert toks == lex_by_characters(text)
    assert last in [(t.kind, t.text, t.line, t.col) for t in toks]


def test_parse_error_positions_and_recovery():
    with pytest.raises(SyntaxErrors) as exc:
        parse_program("p(X) :- q(X.\nr(a).\np(Y) :- .\ns(b).\n")
    issues = exc.value.issues
    assert [i.line for i in issues] == [1, 3]


def test_parse_issue_prints_its_column_only_when_it_has_one():
    assert str(ParseIssue("m", 3)) == "3: m"
    assert str(ParseIssue("m", 3, 4)) == "3:4: m"


def test_builtin_heads_are_rejected():
    with pytest.raises(SyntaxErrors):
        parse_program("=(X, Y) :- p(X, Y).\n")
    with pytest.raises(SyntaxErrors):
        parse_program("true.\n")


def test_builtin_arity_is_checked():
    with pytest.raises(SyntaxErrors):
        parse_program("p(X) :- is(X).\n")


def test_bare_variable_goal_is_an_error():
    with pytest.raises(SyntaxErrors):
        parse_query("?- X.")


def test_missing_final_dot():
    with pytest.raises(SyntaxErrors):
        parse_program("p(a)")


# --- the precedence loop against the recursive parser it replaced ---------

def _term_texts(kids):
    args = st.lists(kids, min_size=1, max_size=3)
    return st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*", " - "]), kids).map(
            "".join),
        kids.map(lambda t: "-" + t),
        kids.map(lambda t: f"({t})"),
        st.tuples(st.sampled_from(["f", "is", "s"]), args).map(
            lambda fa: f"{fa[0]}({', '.join(fa[1])})"),
        st.tuples(args, st.one_of(st.just(""), kids.map("|".__add__))).map(
            lambda it: f"[{','.join(it[0])}{it[1]}]"))


_TERM_TEXT = st.recursive(
    st.sampled_from(["a", "nil", "X", "_", "_A", "0", "12", "[]"]),
    _term_texts, max_leaves=12)
# tokens a mutation may put in: every symbol, words, numbers, a bad character
# and an integer too long for int()
_MUTANTS = _SYMBOLS + ["a", "f", "X", "_", "7", "$", "9" * 5000]


@st.composite
def _mutated_term_texts(draw):
    """Term text with at most one token deleted, inserted or replaced."""
    toks = [t.text for t in _lex(draw(_TERM_TEXT))[:-1]]
    i = draw(st.integers(0, len(toks)))
    edit = draw(st.sampled_from(["keep", "delete", "insert", "replace"]))
    if edit == "insert" or (edit == "replace" and i < len(toks)):
        toks[i:i + (edit == "replace")] = [draw(st.sampled_from(_MUTANTS))]
    elif edit == "delete":
        del toks[i:i + 1]
    return draw(st.sampled_from([" ", ""])).join(toks)


def _parsed(parse, text):
    try:
        return parse(text)
    except SyntaxErrors as e:
        return [(i.message, i.line, i.col) for i in e.issues]


@settings(max_examples=400, deadline=None)
@example("(a, b)")  # a parenthesis holds one term
@example("[a|b, c]")  # a list's tail is its last item
@example("p(X+1)")  # brackets in a head take the argument ceiling, not 0
@example("- 3")
@example("-(3)")
@example("--3")
@example("-f(a)*2")
@example("1-2-3")
@example("[[]|[]]")
@example("f(")
@example("[a,]")
@given(_mutated_term_texts())
def test_the_precedence_loop_matches_the_recursive_parser(text):
    for parse, source in [
            (parse_term_text, text),
            (parse_query, f"?- X = {text}, p({text})."),
            (parse_program, f"{text} :- q({text}).\nr({text}) :~ {text}.\n"),
            (parse_program, f"{text}.\n{text} :~.\nr :- s({text}.\n")]:
        new = _parsed(parse, source)
        with recursive_parser():
            assert new == _parsed(parse, source)


def test_brackets_and_heads_keep_their_errors():
    assert _parsed(parse_term_text, "(a, b)") == [
        ("expected ')', found ','", 1, 3)]
    assert _parsed(parse_term_text, "[a|b, c]") == [
        ("expected ']', found ','", 1, 5)]
    head = parse_program("p(X+1).").clauses[0].head
    assert head == Atom("p", (Compound("+", (Var("X", 0), Num(1))),))
    assert _parsed(parse_program, "p+1.") == [
        ("expected '.', ':-' or ':~' after the clause head", 1, 2)]


@settings(max_examples=300, deadline=None)
@example("f(X, [a], 1+2)")
@example("[1,2|L]")
@example("[]")
@example("[[1],[]]")
@example("(1+2)*3")
@example("1+2*3")
@example("-(1)")
@example("-(-1)")
@example("--1")
@example("- 1")
@example("-(-(1))*2")
@example("1 - -1")
@example("1 - -(1)")
@example("s(s(z))")
@example("max(1, 2)")
@given(_TERM_TEXT)
def test_term_printer_round_trips(text):
    t = parse_term_text(text)
    assert parse_term_text(term_to_str(t)) == t


@pytest.mark.parametrize("text", [
    "X = -Y, Y = 3.", "X = -Y, Y = -3.", "X = --3.", "X = [-(3), -3, - 3]."])
def test_answers_over_unary_minus_read_back_as_their_values(text):
    query = parse_query(text)
    answer = next(iter(run_query(parse_program(""), query, Config()).answers))
    printed = print_answer(answer, query.variables).replace("\n", ", ")
    again = parse_query(f"{text[:-1]}, {printed}.")
    assert list(run_query(parse_program(""), again, Config()).answers)


def _numbered_by_appearance(clauses):
    """The clauses with their anonymous variables numbered afresh, in order
    of appearance."""
    names: dict = {}

    def leaf(x):
        if isinstance(x, Var) and x.name.startswith("_#"):
            return Var(names.setdefault(x, f"_#{len(names) + 1}"), 0)
        return x

    def atom(a):
        return Atom(a.pred, tuple(map_leaves(t, leaf) for t in a.args))
    return [Clause(atom(c.head), tuple(map(atom, c.body))) for c in clauses]


def test_program_printer_round_trips_corpus():
    for path in sorted(PROGRAMS_DIR.glob("*.colp")):
        prog = parse_program(path.read_text(encoding="utf-8"))
        text = program_to_str(prog)
        again = parse_program(text)
        assert program_to_str(again) == text
        for old, new in [(prog.clauses, again.clauses),
                         (prog.coclauses, again.coclauses)]:
            assert _numbered_by_appearance(new) == _numbered_by_appearance(old)


def test_clause_and_atom_rendering():
    prog = parse_program("p(X) :- X is max(1, 2), q([X|_]).\nq(_) :~.\n")
    assert clause_to_str(prog.clauses[0]) == \
        "p(X) :- X is max(1, 2), q([X|_])."
    assert clause_to_str(prog.coclauses[0], coclause=True) == "q(_) :~."
    assert atom_to_str(Atom("=", (Var("X", 0), Num(1)))) == "X = 1"


def test_print_answer_no_variables():
    prog = parse_program("p(a).\n")
    q = parse_query("?- p(a).")
    out = run_query(prog, q, Config())
    ans = list(out.answers)
    assert print_answer(ans[0], q.variables) == "true"


def test_print_answer_unbound_and_aliased():
    prog = parse_program("p(X, X, _).\n")
    q = parse_query("?- p(A, B, C).")
    out = run_query(prog, q, Config())
    text = print_answer(next(iter(out.answers)), q.variables)
    assert text.splitlines() == ["A = _", "B = A", "C = _"]


def test_print_answer_names_shared_anonymous_variables():
    q = parse_query("X = f(_, _1, _), Y = X, Z = g(_).")
    out = run_query(parse_program(""), q, Config())
    text = print_answer(next(iter(out.answers)), q.variables)
    assert text.splitlines() == [
        "X = f(_2, _1, _3)", "_1 = _", "Y = f(_2, _1, _3)", "Z = g(_)"]


def test_print_answer_cyclic_binding():
    prog = parse_program("p(X) :- X = [1,2|X].\n")
    q = parse_query("?- p(L).")
    out = run_query(prog, q, Config())
    assert print_answer(next(iter(out.answers)), q.variables) == "L = [1,2|L]"


# --- the one renderer against the recursive printers it replaced ---------

_VARS = st.builds(Var, st.sampled_from(["X", "Y", "L", "_#1", "_#2"]),
                  st.integers(0, 2))
_LEAVES = st.one_of(_VARS, st.builds(Num, st.integers(-3, 3)), st.just(NIL))


def _compounds(kids):
    def build(functor, arity):
        return st.tuples(*[kids] * arity).map(
            lambda args: Compound(functor, args))
    return st.one_of(build(".", 2), build(".", 2), build("+", 2),
                     build("-", 2), build("*", 2), build("-", 1),
                     build("f", 1), build("g", 2))


_TERMS = st.recursive(_LEAVES, _compounds, max_leaves=10)


def _equations(text):
    return [tuple(a.args) for a in parse_query(text).atoms]


@settings(max_examples=300, deadline=None)
@example(_equations("X = [1|Y], Y = [1|Y]."))
@example(_equations("X = f(Y), Y = g(f(Y))."))
@example(_equations("L = [3,3,3|L]."))
@example([(Var("_#1", 1), Var("_#1", 0))])  # a chain ends at an anonymous one
@given(st.lists(st.tuples(st.one_of(_VARS, _TERMS), _TERMS),
                min_size=1, max_size=4))
def test_printers_match_the_recursive_reference(eqs):
    solved = solve(eqs)
    if solved is None:
        return
    qvars = ordered_vars(eqs)
    assert print_answer(solved, qvars) == answer_by_recursion(solved, qvars)
    for atom in (Atom("=", eqs[0]), Atom("p", tuple(qvars))):
        assert atom_to_str(atom, solved) == atom_str_by_recursion(atom, solved)
    for lhs, rhs in eqs:
        assert term_to_str(rhs) == term_str_by_recursion(rhs)
        assert atom_to_str(Atom("p", (lhs, rhs))) == atom_str_by_recursion(
            Atom("p", (lhs, rhs)))


def test_long_values_print_under_a_small_recursion_limit():
    n = 10 ** 5
    chain = Num(0)
    for _ in range(n):
        chain = Compound("+", (chain, Num(1)))
    x, y = Var("X"), Var("Y")
    solved = solve([(x, make_list([Num(0)] * n)), (y, chain)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        answer = print_answer(solved, [x, y])
        atom = atom_to_str(Atom("p", (x, y)), solved)
    finally:
        sys.setrecursionlimit(limit)
    zeros, sums = ",".join(["0"] * n), "0" + "+1" * n
    assert answer == f"X = [{zeros}]\nY = {sums}"
    assert atom == f"p([{zeros}], {sums})"
