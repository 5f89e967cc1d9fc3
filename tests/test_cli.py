import io
import sys
from types import SimpleNamespace

import pytest

from colp import cli
from colp.engine import BUDGET_EXHAUSTED, COMPLETE
from colp.equations import solve
from colp.parser import parse_term_text
from colp.terms import NIL, Compound, Num

from conftest import PROGRAMS_DIR

OMEGA = str(PROGRAMS_DIR / "omega.colp")
OMEGA_U = str(PROGRAMS_DIR / "omega.univ")
LISTS = str(PROGRAMS_DIR / "lists.colp")
LISTS_U = str(PROGRAMS_DIR / "lists.univ")
LTL = str(PROGRAMS_DIR / "ltl.colp")


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- run -------------------------------------------------------------------

def test_run_prints_first_answer_without_status():
    code, out, err = run_cli(["run", LISTS, "member(X, [0,1])."])
    # the cap cut enumeration short, so no completion claim is made
    assert (code, out, err) == (0, "X = 0\n", "")


def test_run_enumerates_under_answer_cap():
    code, out, err = run_cli(
        ["run", LISTS, "member(X, [0,1]).", "--answers", "3"])
    assert (code, out) == (0, "X = 0\nX = 1\nno (more) answers\n")


def test_run_reports_finite_failure():
    code, out, err = run_cli(["run", LISTS, "member(3, [0,1])."])
    assert (code, out, err) == (1, "failed\n", "")


def test_run_reports_budget_exhaustion():
    code, out, err = run_cli(["run", OMEGA, "p(z).", "--budget", "50"])
    assert (code, out, err) == (2, "budget exhausted\n", "")


def test_undefined_predicates_are_warned_about(tmp_path):
    """run, check and repl warn, before each query, about each predicate
    that the query or a clause body calls and no clause or coclause
    defines, the query's first; stdout and the exit code stay as they
    were."""
    prog = tmp_path / "undef.colp"
    prog.write_text("p :- q.\nr(X) :- s(X, X), X = a.\nr(b) :~ t.\n")
    univ = tmp_path / "ab.univ"
    univ.write_text("a\nb\n")
    warned = ("warning: q/0 is undefined\nwarning: s/2 is undefined\n"
              "warning: t/0 is undefined\n")
    assert run_cli(["run", str(prog), "p."]) == (1, "failed\n", warned)
    assert run_cli(["run", str(prog), "r(X), u."]) == (
        1, "failed\n", "warning: u/0 is undefined\n" + warned)
    assert run_cli(["check", str(prog), str(univ), "r(X)."]) == (
        0, "PASS\n", warned)
    assert run_cli(["repl", str(prog)], stdin="p.\nr(b).\n") == (
        0, "?- failed\n?- failed\n?- \n", warned * 2)
    assert run_cli(["run", LISTS, "member(X, [0])."])[2] == ""


def test_run_a_true_body_prints_true(tmp_path):
    prog = tmp_path / "true.colp"
    prog.write_text("p :- true.\n")
    assert run_cli(["run", str(prog), "p."]) == (0, "true\n", "")


def test_run_dfs_strategy():
    code, out, err = run_cli(
        ["run", OMEGA, "p(X).", "--strategy", "dfs", "--budget", "32"])
    assert (code, out) == (0, "X = s(X)\n")


def test_run_type_errors_exit_3():
    code, out, err = run_cli(["run", LISTS, "X is 1 + a."])
    assert code == 3
    assert out == "failed\n"
    assert err == "type error: not arithmetic: a/0 in X is 1+a\n"


def test_run_missing_file_exits_3():
    code, out, err = run_cli(["run", "no/such/file.colp", "p."])
    assert code == 3 and out == ""
    assert err.startswith("cannot read no/such/file.colp")


def test_run_program_syntax_error_exits_3(tmp_path):
    bad = tmp_path / "bad.colp"
    bad.write_text("p(.\n")
    code, out, err = run_cli(["run", str(bad), "p."])
    assert code == 3 and out == ""
    assert err.startswith(f"{bad}:1:") and err.count("\n") == 1


def test_run_query_syntax_error_exits_3():
    code, out, err = run_cli(["run", LISTS, "member(X"])
    assert code == 3 and out == ""
    assert err.startswith("<query>:1:")


def test_lexer_errors_name_their_origin_and_recover(tmp_path):
    bad = tmp_path / "bad.colp"
    bad.write_text("p(a).\nq($).\nr(b) :- p(X.\ns(\u00b2).\n")
    code, out, err = run_cli(["run", str(bad), "p(X)."])
    assert (code, out) == (3, "")
    # the clauses after the bad characters are still checked
    assert err == (f"{bad}:2:3: unexpected character '$'\n"
                   f"{bad}:3:12: expected ')', found '.'\n"
                   f"{bad}:4:3: unexpected character '\u00b2'\n")


def test_undecodable_files_end_in_a_located_error(tmp_path):
    program = tmp_path / "bad.colp"
    program.write_bytes(b"p(a).\nq(\xff).\n")
    universe = tmp_path / "bad.univ"
    universe.write_bytes(b"z\ns(\xc3\xa9\xff)\n")  # \xc3\xa9 is one column
    cases = [(["run", str(program), "p(X)."], f"{program}:2:3: "),
             (["semantics", OMEGA, str(universe)], f"{universe}:2:4: ")]
    for argv, where in cases:
        assert run_cli(argv) == (3, "", where + "byte 0xff is not UTF-8\n")


def test_superscript_digit_and_huge_literal_are_parse_errors():
    code, out, err = run_cli(["run", LISTS, "member(\u00b2, [0])."])
    assert (code, out, err) == (
        3, "", "<query>:1:8: unexpected character '\u00b2'\n")
    code, out, err = run_cli(["run", LISTS, "X = " + "1" * 5000 + "."])
    assert (code, out, err) == (
        3, "", "<query>:1:5: integer literal of 5000 digits is too long\n")


def test_internal_errors_exit_3_with_one_line(monkeypatch):
    # a list longer than the recursion limit is no internal error: it prints
    zeros = ",".join(["0"] * 3000)
    code, out, err = run_cli(["run", LISTS, f"X = [{zeros}]."])
    assert (code, out, err) == (0, f"X = [{zeros}]\n", "")

    def broken(*args, **kwargs):
        raise RuntimeError("two\nlines")

    monkeypatch.setattr(cli, "run_query", broken)
    code, out, err = run_cli(["run", LISTS, "member(X, [0])."])
    assert (code, out, err) == (
        3, "", "internal error: RuntimeError: two lines\n")


def test_cyclic_answers_name_the_variable_that_closes_the_cycle():
    # Y's value re-enters X's binding, so X prints with X as the cycle name
    code, out, err = run_cli(["run", LISTS, "X = [1|Y], Y = [1|Y]."])
    assert (code, out, err) == (0, "X = [1|X]\nY = [1|Y]\n", "")


def test_run_trace_goes_to_stderr():
    code, out, err = run_cli(["run", LISTS, "member(1, [0,1]).", "--trace"])
    assert (code, out) == (0, "true\n")
    assert "STEP" in err and "EMPTY" in err


def test_run_trace_on_a_list_longer_than_the_recursion_limit():
    zeros = ",".join(["0"] * 3000)
    code, out, err = run_cli(["run", LISTS, f"member(0, [{zeros}]).",
                              "--trace"])
    assert (code, out) == (0, "true\n")
    assert err.splitlines() == [f"STEP member(0, [{zeros}]) via c1", "EMPTY"]


def test_flag_validation():
    code, _, err = run_cli(["run", LISTS, "p.", "--budget", "0"])
    assert code == 3 and err == "--budget must be at least 1\n"
    code, _, err = run_cli(["run", LISTS, "p.", "--answers", "0"])
    assert code == 3 and err == "--answers must be at least 1\n"


def test_unknown_subcommand_exits_3(capsys):
    assert run_cli(["frobnicate"])[0] == 3


def test_help_exits_0(capsys):
    assert run_cli(["--help"])[0] == 0


# --- semantics ----------------------------------------------------------------

def test_semantics_successor_loop_tables():
    code, out, err = run_cli(["semantics", OMEGA, OMEGA_U])
    assert code == 0
    assert out == "Ind: (empty)\nCoInd: p(omega)\nReg: p(omega)\n"
    assert err == "warning: instance escapes the universe: p on s(s(z))\n"


def test_semantics_prints_zero_ary_atoms_by_name(tmp_path):
    prog = tmp_path / "props.colp"
    prog.write_text("p :- true.\nq :- p, true.\nr :- r.\nr :~ true.\n")
    univ = tmp_path / "a.univ"
    univ.write_text("a\n")
    assert run_cli(["semantics", str(prog), str(univ)]) == (
        0, "Ind: p, q\nCoInd: p, q, r\nReg: p, q, r\n", "")


def test_semantics_inductive_mode_empties_reg():
    code, out, _ = run_cli(["semantics", OMEGA, OMEGA_U, "--mode", "inductive"])
    assert code == 0
    assert out == "Ind: (empty)\nCoInd: p(omega)\nReg: (empty)\n"


def test_semantics_without_coclauses_has_reg_equal_ind():
    code, out, _ = run_cli(["semantics", LISTS, LISTS_U])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["Reg"] == lines["Ind"] != "(empty)"


def test_universe_errors_name_the_file_once(tmp_path):
    shapes = [("Bad := f(a)\n", "{}:1: bad universe name 'Bad'\n"),
              ("a\nx := f(\n",
               "{}:2:8: expected a term, found 'end of input'\n"),
              ("1\n   [1,2 | ]\n", "{}:2:11: expected a term, found ']'\n"),
              ("x := f(Y)\n", "{}:1: element 'x' is not ground\n"),
              ("a := 1\n% a comment\na := 2\n",
               "{}:3: definitions have no solution\n")]
    for text, message in shapes:
        bad = tmp_path / "bad.univ"
        bad.write_text(text)
        code, out, err = run_cli(["semantics", OMEGA, str(bad)])
        assert (code, out, err) == (3, "", message.format(bad))


def test_semantics_evaluates_long_arithmetic_within_the_recursion_limit(
        tmp_path):
    prog = tmp_path / "long.colp"
    prog.write_text("q(0). q(1). p(X) :- q(X), X > "
                    + "+".join(["1"] * 2000) + ".\n")
    univ = tmp_path / "01.univ"
    univ.write_text("0\n1\n")
    code, out, err = run_cli(["semantics", str(prog), str(univ)])
    assert (code, out, err) == (
        0, "Ind: q(0), q(1)\nCoInd: q(0), q(1)\nReg: q(0), q(1)\n", "")


ONES = "+".join(["1"] * 2000)


def test_run_and_check_long_arithmetic_within_the_recursion_limit(tmp_path):
    prog = tmp_path / "long.colp"
    prog.write_text(f"q(0). q(1). q(2001). p(X) :- q(X), X > {ONES}.\n")
    univ = tmp_path / "long.univ"
    univ.write_text("0\n1\n2001\n")
    assert run_cli(["run", str(prog), "p(X)."]) == (0, "X = 2001\n", "")
    assert run_cli(["check", str(prog), str(univ), "p(X)."]) == (
        0, "PASS\n", "")
    assert run_cli(["run", LISTS, f"X is {ONES}."]) == (0, "X = 2000\n", "")


def test_semantics_over_long_elements_within_the_recursion_limit(tmp_path):
    prog = tmp_path / "long.colp"
    prog.write_text("big(X) :- X > 1999.\nzeros([0|T]) :- zeros(T).\n"
                    "const(z).\n")
    univ = tmp_path / "long.univ"
    univ.write_text(f"d := {ONES}\nl := [{','.join(['0'] * 3000)}]\nz\n")
    code, out, err = run_cli(["semantics", str(prog), str(univ)])
    assert (code, out) == (0, "Ind: big(d), const(z)\n"
                              "CoInd: big(d), const(z)\n"
                              "Reg: big(d), const(z)\n")
    assert err == (
        "warning: dropped instance of >/2: not arithmetic: ./2\n"
        "warning: dropped instance of >/2: not arithmetic: z/0\n"
        "warning: instance escapes the universe: zeros on "
        "[0|...+...+1+1+1+1+1+1]\n"
        "warning: instance escapes the universe: zeros on "
        "[0,0,0,0,0,0,0,...|...]\n"
        "warning: instance escapes the universe: zeros on [0|z]\n")


def test_deep_terms_parse_and_run_under_a_recursion_limit_of_150(tmp_path):
    """Terms are parsed on a stack, so nesting depth is bounded by memory,
    not by the recursion limit."""
    n = 10 ** 4
    fs = "f(" * n + "0" + ")" * n
    prog = tmp_path / "deep.colp"
    prog.write_text(f"neg(X) :- X is {'-' * n}1.\n"
                    "nat(z).\nnat(s(X)) :- nat(X).\nloop(X) :- loop(X).\n")
    univ = tmp_path / "deep.univ"
    univ.write_text("z\nd := " + "s(" * n + "z" + ")" * n + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        query = run_cli(["run", LISTS, f"X = {fs}."])
        minus = run_cli(["run", str(prog), "neg(X)."])
        tables = run_cli(["semantics", str(prog), str(univ)])
        check = run_cli(["check", str(prog), str(univ), "nat(X).",
                         "--budget", "4"])
        lists = parse_term_text("[" * 10 ** 5 + "]" * 10 ** 5)
        parens = parse_term_text("(" * 10 ** 5 + "0" + ")" * 10 ** 5)
    finally:
        sys.setrecursionlimit(limit)
    assert query == (0, f"X = {fs}\n", "")
    assert minus == (0, "X = 1\n", "")
    assert tables == (
        0, "Ind: nat(z)\nCoInd: loop(d), loop(z), nat(z)\nReg: nat(z)\n",
        "warning: instance escapes the universe: nat on s(z)\n"
        "warning: instance escapes the universe: nat on "
        "s(s(s(s(s(s(s(s(...))))))))\n")
    assert check == (
        0, "PASS\n",
        "".join(f"not checked: X = {'s(' * k}z{')' * k} has no instance in "
                "the universe\n" for k in (1, 2, 3)))
    assert parens == Num(0)
    for _ in range(10 ** 5 - 1):
        assert lists.functor == "." and lists.args[1] == NIL
        lists = lists.args[0]
    assert lists == NIL


def test_unifying_long_equal_lists_within_the_recursion_limit():
    zeros = "[" + ",".join(["0"] * 3000) + "]"
    assert run_cli(["run", LISTS, f"{zeros} = {zeros}."]) == (0, "true\n", "")


def test_hypotheses_on_long_equal_lists_within_the_recursion_limit(tmp_path):
    """A body atom equal to its own hypothesis, but built apart from it, is
    collapsed into it by a syntactic comparison."""
    zeros = "[" + ",".join(["0"] * 3000) + "]"
    prog = tmp_path / "long.colp"
    prog.write_text(f"p({zeros}) :- p({zeros}).\np(X) :~.\n")
    assert run_cli(["run", str(prog), f"p({zeros})."]) == (0, "true\n", "")


def test_integer_results_too_long_to_print_are_type_errors(tmp_path):
    nines = "9" * 3000
    square = f"{nines} * {nines}"
    code, out, err = run_cli(["run", LISTS, f"X is {square}."])
    assert (code, out) == (3, "failed\n")
    assert err.startswith("type error: integer result has more than ")
    # the atom is cut to 200 characters, not printed with both operands
    cut = f"X is {nines}*{nines}"[:197] + "..."
    assert err.count("\n") == 1 and err.endswith(f" in {cut}\n")
    assert run_cli(["run", LISTS, f"X is {square} - {square}."]) == (
        0, "X = 0\n", "")
    prog = tmp_path / "big.colp"
    prog.write_text(f"q(0). big(X) :- q(X), X is {square}.\n")
    univ = tmp_path / "0.univ"
    univ.write_text("0\n")
    code, out, err = run_cli(["semantics", str(prog), str(univ)])
    assert (code, out) == (0, "Ind: q(0)\nCoInd: q(0)\nReg: q(0)\n")
    assert err.startswith("warning: dropped instance of is/2: integer result "
                          "has more than ")


def test_not_equal_compares_the_values_of_both_sides():
    code, out, _ = run_cli(["run", LISTS, "X = [1|X], Y = [1,1|Y], X \\= Y."])
    assert (code, out) == (1, "failed\n")
    code, out, _ = run_cli(["run", LISTS, "X = [1|X], Y = [1,2|Y], X \\= Y."])
    assert (code, out) == (0, "X = [1|X]\nY = [1,2|Y]\n")


def test_empty_universe_is_loaded_not_taken_for_a_failure(tmp_path):
    empty = tmp_path / "empty.univ"
    empty.write_text("")
    code, out, err = run_cli(["semantics", LISTS, str(empty)])
    assert (code, out) == (0, "Ind: (empty)\nCoInd: (empty)\nReg: (empty)\n")
    assert err == ("warning: instance escapes the universe: append on []\n"
                   "warning: instance escapes the universe: all_pos on []\n")
    code, out, err = run_cli(["check", LISTS, str(empty), "member(X, [0])."])
    assert (code, out, err) == (
        0, "PASS\n", "not checked: X = 0 has no instance in the universe\n")


# --- check ---------------------------------------------------------------------

def test_check_notes_an_answer_with_no_instance_in_the_universe():
    """[0] is not an element of lists.univ, so the answer X = [0], Y = [1]
    has no instance to judge: check says so on stderr, once, and its
    verdict stands on the other answers."""
    code, out, err = run_cli(
        ["check", LISTS, LISTS_U, "append(X, Y, [0,1])."])
    assert (code, out) == (0, "PASS\n")
    assert err == ("not checked: X = [0], Y = [1] has no instance in the "
                   "universe\n")


def test_check_passes_on_successor_loop():
    code, out, _ = run_cli(
        ["check", OMEGA, OMEGA_U, "p(X).", "--budget", "32"])
    assert (code, out) == (0, "PASS\n")


def test_check_open_query_with_many_free_leaves():
    # the 16th answer of member(X, L) leaves about 17 variables free
    code, out, _ = run_cli(
        ["check", LISTS, LISTS_U, "member(X, L).", "--budget", "64"])
    assert (code, out) == (0, "PASS\n")


def stub_outcome(answers, exhaustion):
    return SimpleNamespace(answers=iter(answers), diagnostics=[],
                           exhaustion=exhaustion)


def test_check_reports_missing_answers(monkeypatch):
    monkeypatch.setattr(
        cli, "run_query", lambda *a, **k: stub_outcome([], COMPLETE))
    code, out, _ = run_cli(["check", OMEGA, OMEGA_U, "p(X)."])
    assert code == 1
    assert out == "missing: X = omega\nFAIL\n"


def test_check_reports_unsound_answers(monkeypatch):
    def fake(prog, query, cfg, trace=None):
        x = query.variables[0]
        return stub_outcome([solve([(x, Compound("z", ()))])], COMPLETE)

    monkeypatch.setattr(cli, "run_query", fake)
    code, out, _ = run_cli(["check", OMEGA, OMEGA_U, "p(X)."])
    assert code == 1
    assert out == ("unsound: X = z instantiates to X = z outside Reg\n"
                   "missing: X = omega\nFAIL\n")


def test_check_leaves_instances_outside_the_universe_unjudged(tmp_path):
    """p(f(a)) holds, but f(a) is not in the universe {a}."""
    prog, univ = tmp_path / "p.colp", tmp_path / "a.univ"
    prog.write_text("p(_).\n")
    univ.write_text("a\n")
    assert run_cli(["check", str(prog), str(univ), "p(f(X))."]) == (
        0, "PASS\n", "not checked: X = a leaves the universe\n")


def test_check_judges_the_instances_inside_the_universe(monkeypatch,
                                                         tmp_path):
    prog, univ = tmp_path / "p.colp", tmp_path / "u.univ"
    prog.write_text("p(f(a)).\n")
    univ.write_text("a\nb\nf(a)\nf(b)\n")
    # X stays free; X = b falsifies the builtin, so it is judged and unsound
    monkeypatch.setattr(
        cli, "run_query", lambda *a, **k: stub_outcome([solve([])], COMPLETE))
    assert run_cli(["check", str(prog), str(univ), "p(f(X)), X \\= b."]) == (
        1, "unsound: X = _ instantiates to X = b outside Reg\nFAIL\n",
        "not checked: X = f(a) leaves the universe\n"
        "not checked: X = f(b) leaves the universe\n")


def test_check_notes_budget_exhaustion_on_fail(monkeypatch):
    monkeypatch.setattr(
        cli, "run_query", lambda *a, **k: stub_outcome([], BUDGET_EXHAUSTED))
    code, out, _ = run_cli(["check", OMEGA, OMEGA_U, "p(X)."])
    assert code == 1
    assert out == ("missing: X = omega\n"
                   "note: enumeration was budget exhausted\nFAIL\n")


def test_check_reports_a_missing_ground_answer_as_true(tmp_path):
    prog = tmp_path / "chain.colp"
    prog.write_text("p :- q.\nq :- s.\ns.\n")
    univ = tmp_path / "a.univ"
    univ.write_text("a\n")
    assert run_cli(["check", str(prog), str(univ), "p.", "--budget", "1"]) == (
        1, "missing: true\nnote: enumeration was budget exhausted\nFAIL\n",
        "")


def test_check_notes_the_answer_cap_on_fail():
    args = ["check", LISTS, LISTS_U, "member(X, [0,1])."]
    code, out, _ = run_cli(args + ["--answers", "1"])
    assert code == 1
    assert out == ("missing: X = 1\n"
                   "note: enumeration stopped at the answer cap of 1\n"
                   "FAIL\n")
    assert run_cli(args + ["--answers", "2"])[:2] == (0, "PASS\n")


def test_check_trace_goes_to_stderr():
    code, out, err = run_cli(["check", OMEGA, OMEGA_U, "p(X).",
                              "--budget", "4", "--trace"])
    assert (code, out) == (0, "PASS\n")
    assert "STEP p(X) via c1" in err


# --- repl -----------------------------------------------------------------------

def test_repl_enumerates_with_semicolons():
    code, out, err = run_cli(["repl", LISTS],
                             stdin="member(X, [0,1]).\n;\n;\n")
    assert code == 0 and err == ""
    assert out == "?- X = 0\nX = 1\nno (more) answers\n?- \n"


def test_repl_stop_reply_ends_enumeration():
    code, out, _ = run_cli(["repl", LISTS],
                           stdin="member(X, [0,1]).\n.\n:quit\n")
    assert code == 0
    assert out == "?- X = 0\n?- "


def test_repl_end_of_input_after_an_answer_prints_no_status():
    code, out, err = run_cli(["repl", LISTS], stdin="member(X, [0,1]).\n")
    assert (code, out, err) == (0, "?- X = 0\n?- \n", "")


def test_repl_type_error_reports_and_fails():
    code, out, err = run_cli(["repl", LISTS], stdin="X is foo + 1.\n:quit\n")
    assert (code, out) == (0, "?- failed\n?- ")
    assert err == "type error: not arithmetic: foo/0 in X is foo+1\n"


def test_repl_empty_line_reprompts():
    code, out, _ = run_cli(["repl", LISTS], stdin="\n:quit\n")
    assert code == 0 and out == "?- ?- "


def test_repl_directives_and_error_recovery():
    session = ":mode inductive\np(X).\n:budget 5\n:wat\n)(\n:quit\n"
    code, out, err = run_cli(["repl", OMEGA], stdin=session)
    assert code == 0
    assert out == "?- ?- budget exhausted\n?- ?- ?- ?- "
    assert "unknown directive: :wat\n" in err
    assert "<query>:1:" in err


def test_repl_budget_beyond_the_digit_limit_is_unknown():
    session = ":budget " + "9" * 5000 + "\n:budget 3\np(z).\n:quit\n"
    code, out, err = run_cli(["repl", OMEGA], stdin=session)
    assert code == 0
    assert out == "?- ?- ?- budget exhausted\n?- "
    assert err == "unknown directive: :budget " + "9" * 5000 + "\n"


def test_repl_budget_that_is_not_a_number_is_unknown():
    code, out, err = run_cli(["repl", OMEGA], stdin=":budget x\n:quit\n")
    assert (code, out, err) == (0, "?- ?- ", "unknown directive: :budget x\n")


def test_repl_trace_toggle():
    code, out, err = run_cli(["repl", OMEGA],
                             stdin=":trace\n:budget 5\np(z).\n:quit\n")
    assert code == 0
    assert out == "?- ?- ?- budget exhausted\n?- "
    assert "STEP" in err


@pytest.mark.parametrize("arg", ["x", "of"])
def test_repl_trace_takes_only_on_or_off(arg):
    """Any other argument is an unknown directive, and tracing stays on."""
    session = f":trace on\n:trace {arg}\n:budget 5\np(z).\n:quit\n"
    code, out, err = run_cli(["repl", OMEGA], stdin=session)
    assert code == 0
    assert out == "?- ?- ?- ?- budget exhausted\n?- "
    assert err.startswith(f"unknown directive: :trace {arg}\nSTEP p(z)")


def test_repl_temporal_queries():
    session = ("W = [0|W], sat(W, always(zero)).\n.\n"
               "sat([1,1,0|W], until(one, zero)), W = [1|W].\n.\n"
               ":quit\n")
    code, out, _ = run_cli(["repl", LTL], stdin=session)
    assert code == 0
    assert out == "?- W = [0|W]\n?- W = [1|W]\n?- "


def test_repl_missing_program_exits_3():
    code, out, err = run_cli(["repl", "no/such/file.colp"])
    assert code == 3 and out == ""
