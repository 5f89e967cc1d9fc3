import itertools

import pytest

from colp.terms import (MODES, NIL, Atom, Clause, Compound, Num, Template, Var,
                        cons, fresh_rename, is_builtin, ordered_vars)

from conftest import PROGRAMS_DIR, apply_mode, load_program, make_list, vars_of


def test_make_list_builds_cons_chain():
    t = make_list([Num(1), Num(2)])
    assert t == cons(Num(1), cons(Num(2), NIL))


def test_make_list_with_tail():
    tail = Var("L", 0)
    t = make_list([Num(1)], tail)
    assert t == Compound(".", (Num(1), tail))


def test_vars_of_deduplicates():
    x, y = Var("X", 0), Var("Y", 0)
    a = Atom("p", (x, Compound("f", (y, x))))
    assert vars_of(a) == {x, y}


def test_ordered_vars_first_appearance():
    x, y, z = Var("X", 0), Var("Y", 0), Var("Z", 0)
    t = Compound("f", (y, x, z, y))
    assert ordered_vars(t) == [y, x, z]


def test_fresh_rename_keeps_structure_changes_vars():
    x = Var("X", 0)
    code = Template(Clause(Atom("p", (x,)), (Atom("q", (x, Var("Y", 0))),)))
    counter = itertools.count(7)
    renamed = fresh_rename(code, counter)
    rx = renamed.head.args[0]
    assert rx.name == "X" and rx.index == 7
    assert renamed.body[0].args[0] == rx
    assert renamed.body[0].args[1] != Var("Y", 0)
    # a second rename must not collide with the first
    again = fresh_rename(code, counter)
    assert again.head.args[0] != rx


def test_is_builtin_by_name_and_arity():
    assert is_builtin(Atom("=", (Var("X", 0), Num(1))))
    assert is_builtin(Atom("true", ()))
    assert is_builtin(Atom("is", (Var("X", 0), Num(1))))
    assert not is_builtin(Atom("member", (Num(1), NIL)))


def test_var_display_uses_index_stamp():
    assert Var("X", 0).display() == "X"
    assert Var("X", 4).display() == "X#4"


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_picks_the_clauses_of_the_reference(mode):
    for path in sorted(PROGRAMS_DIR.glob("*.colp")):
        prog = load_program(path.name)
        clauses, coclauses = prog.templates(mode)
        applied = apply_mode(prog, mode)
        assert [code.clause for code in clauses] == list(applied.clauses)
        assert [code.clause for code in coclauses] == list(applied.coclauses)
