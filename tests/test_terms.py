import itertools

import pytest

from colp.terms import (MODES, NIL, Atom, Clause, Compound, Num, Template, Var,
                        cons, fresh_rename, identical, is_builtin)

from conftest import (PROGRAMS_DIR, apply_mode, load_program, make_list,
                      ordered_vars, vars_of)


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


def fn(functor, *args):
    return Compound(functor, args)


def test_identical_compares_functors_arities_and_long_lists():
    a, b = Compound("a"), Compound("b")
    assert not identical(Atom("p", (fn("f", a),)), Atom("p", (fn("g", a),)))
    assert not identical(Atom("p", (fn("f", a),)),
                         Atom("p", (fn("f", a, b),)))
    assert identical(Atom("p", (fn("f", a),)), Atom("p", (fn("f", a),)))
    # equal but distinct lists deeper than the default recursion limit
    items = [Num(i % 3) for i in range(10_000)]
    assert identical(Atom("p", (make_list(items),)),
                     Atom("p", (make_list(items),)))


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


@pytest.mark.parametrize("name, index", [("X", 0), ("X", 3), ("_#1", 2)])
def test_var_equality_and_hash_follow_name_and_index(name, index):
    v = Var(name, index)
    assert v == Var(name, index) and hash(v) == hash(Var(name, index))
    assert hash(v) == hash((name, index))
    assert v != Var(name, index + 1) and v != Var(name + "Y", index)
    assert len({v, Var(name, index), Var(name, index + 1)}) == 2
    assert Var(name) == Var(name, 0)
    for other in (Num(index), Compound(name), Compound(name, (v,)),
                  (name, index), name):
        assert v != other and other != v and not v == other
    assert {v: 1}.get((name, index)) is None
    assert Var.__eq__(v, (name, index)) is NotImplemented
    assert repr(v) == f"Var(name={name!r}, index={index!r})"


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_picks_the_clauses_of_the_reference(mode):
    for path in sorted(PROGRAMS_DIR.glob("*.colp")):
        prog = load_program(path.name)
        clauses, coclauses = prog.templates(mode)
        applied = apply_mode(prog, mode)
        assert [code.clause for code in clauses] == list(applied.clauses)
        assert [code.clause for code in coclauses] == list(applied.coclauses)
