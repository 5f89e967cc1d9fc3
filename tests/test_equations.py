import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from colp import equations
from colp.equations import (EMPTY_SOLVED, match, rational_values, solve,
                            unfold, value_key, walk)
from colp.terms import Atom, Compound, Num, Var, cons

from conftest import (bisimilar, free_leaf_names, is_ground, make_list,
                      rational_value_by_recursion, renumbered, substitute,
                      value)

X, Y, Z = Var("X", 0), Var("Y", 0), Var("Z", 0)


def f(*args):
    return Compound("f", args)


def s(t):
    return Compound("s", (t,))


def raw_graph(solved, t):
    """Term graph of t under solved, root at 0, sharing a node per
    dereferenced term but not minimised: the reference side of the
    equality properties."""
    nodes, memo = [], {}

    def build(t):
        t = walk(solved, t)
        if t in memo:
            return memo[t]
        memo[t] = idx = len(nodes)
        nodes.append(None)
        if isinstance(t, Var):
            nodes[idx] = ("v", t.display(), ())
        elif isinstance(t, Num):
            nodes[idx] = ("n", t.value, ())
        else:
            nodes[idx] = ("f", t.functor, tuple(build(a) for a in t.args))
        return idx

    build(t)
    return tuple(nodes)


# --- solve ------------------------------------------------------------

def test_solve_binds_and_walks():
    solved = solve([(X, Num(1)), (Y, f(X))])
    assert walk(solved, X) == Num(1)
    assert walk(solved, Y) == f(X)


def test_solve_clash_returns_none():
    assert solve([(f(X), Compound("g", (X,)))]) is None
    assert solve([(Num(1), Num(2))]) is None
    assert solve([(f(X), f(X, Y))]) is None


def test_solve_var_var_then_binding():
    solved = solve([(X, Y), (Y, Num(3))])
    assert walk(solved, X) == Num(3)
    assert walk(solved, Z) == Z


def test_solve_extends_base_without_mutating_it():
    base = solve([(X, f(Y))])
    before = repr(base)  # prints the whole map
    ext = solve([(Y, Num(2)), (Z, X)], base)
    assert walk(ext, Y) == Num(2)
    assert walk(ext, Z) == f(Y)
    assert repr(base) == before
    assert walk(base, Y) == Y
    assert walk(base, Z) == Z


def test_var_var_binds_the_higher_variable():
    # either way round, the chain ends in the lower (name, index)
    for eqs in ([(X, Y)], [(Y, X)]):
        solved = solve(eqs)
        assert walk(solved, X) == X and walk(solved, Y) == X
    renamed = Var("X", 3)
    assert walk(solve([(X, renamed)]), renamed) == X


def test_solve_cyclic_lists_unify_up_to_bisimilarity():
    # X = [1,2|X] against Y = [1,2,1,2|Y]: same rational list
    lx = make_list([Num(1), Num(2)], X)
    ly = make_list([Num(1), Num(2), Num(1), Num(2)], Y)
    solved = solve([(X, lx), (Y, ly), (X, Y)])
    assert solved is not None
    assert value(solved, X) == value(solved, Y)


def test_solve_cyclic_mismatch_fails():
    lx = make_list([Num(1), Num(2)], X)
    ly = make_list([Num(2), Num(1)], Y)
    assert solve([(X, lx), (Y, ly), (X, Y)]) is None


def test_long_union_chain_stays_consistent():
    # adverse var-var union order; a find() bug here once looped forever
    chain = [Var("V", i) for i in range(40)]
    eqs = [(chain[i], chain[i + 1]) for i in range(39)]
    solved = solve(eqs)
    solved = solve([(chain[0], Num(9))], solved)
    assert all(walk(solved, v) == Num(9) for v in chain)


# --- rational terms ----------------------------------------------------

def test_rational_value_of_unbound_var_is_leaf():
    r = value(EMPTY_SOLVED, X)
    assert r == (("v", "X", ()),)
    assert not is_ground(r)


def test_bisimilar_one_and_two_node_cycles():
    s1 = solve([(X, s(X))])
    s2 = solve([(Y, s(Z)), (Z, s(Y))])
    r1 = value(s1, X)
    r2 = value(s2, Y)
    assert bisimilar(r1, r2)
    assert r1 == r2


def test_rotated_cycle_is_not_bisimilar():
    s1 = solve([(X, make_list([Num(1), Num(2)], X))])
    s2 = solve([(Y, make_list([Num(2), Num(1)], Y))])
    r1, r2 = value(s1, X), value(s2, Y)
    assert not bisimilar(r1, r2)
    assert r1 != r2


def test_hash_agrees_on_bisimilar_values_from_different_graphs():
    # a := f(b), b := f(a) is a two-node cycle; c := f(c) has one node
    a, b, c = Var("A", 0), Var("B", 0), Var("C", 0)
    two = solve([(a, Compound("f", (b,))), (b, Compound("f", (a,)))])
    one = solve([(c, Compound("f", (c,)))])
    assert len(raw_graph(two, a)) == 2
    assert len(raw_graph(one, c)) == 1
    ra, rc = value(two, a), value(one, c)
    assert ra == rc and hash(ra) == hash(rc)
    assert {ra: "a"}[rc] == "a"


def test_is_ground_under():
    solved = solve([(X, f(Y)), (Y, Num(1))])
    assert is_ground(value(solved, X))
    assert not is_ground(value(solved, Z))
    assert not is_ground(value(solved, f(X, Z)))
    cyc = solve([(X, s(X))])
    assert is_ground(value(cyc, X))


# --- instantiating ----------------------------------------------------

def test_match_returns_the_sub_value_at_each_leaf():
    # lz = [0|lz] is the node table  0: [1|0]  1: 0
    lz = value(solve([(X, cons(Num(0), X))]), X)
    assert lz == (("f", ".", (1, 0)), ("n", 0, ()))
    assert match(value(EMPTY_SOLVED, cons(Y, Z)), 0, lz, 0) == {
        "Y": 1, "Z": 0}
    # a cyclic pattern walks the cycle of the value
    assert match(value(solve([(X, cons(Y, X))]), X), 0, lz, 0) == {
        "Y": 1}
    assert match(lz, 0, lz, 0) == {}
    # a repeated leaf must land on one value
    assert match(value(EMPTY_SOLVED, cons(Y, Y)), 0, lz, 0) is None
    # matching starts at the given root
    assert match(value(EMPTY_SOLVED, Y), 0, lz, 1) == {"Y": 1}
    assert match(value(EMPTY_SOLVED, cons(Y, Z)), 0, lz, 1) is None
    two = value(EMPTY_SOLVED, f(Num(0), Num(0)))
    assert match(value(EMPTY_SOLVED, f(Y, Y)), 0, two, 0) == {"Y": 1}
    assert two[1] == ("n", 0, ())
    assert match(value(EMPTY_SOLVED, s(Y)), 0, two, 0) is None


# --- atom-level helpers -------------------------------------------------

def test_arg_equations_and_unifiable():
    a = Atom("p", (X, Num(1)))
    b = Atom("p", (Num(2), Y))
    assert solve(zip(a.args, b.args)) is not None
    assert solve(zip(a.args, b.args), solve([(X, Num(3))])) is None


# --- properties ---------------------------------------------------------

variables = st.sampled_from([X, Y, Z])
numbers = st.builds(Num, st.integers(-2, 2))
atoms_ = st.sampled_from([Compound("a", ()), Compound("b", ())])


def _compounds(children):
    return st.builds(
        Compound, st.sampled_from(["f", "g"]),
        st.one_of(st.tuples(children), st.tuples(children, children)))


terms_strategy = st.recursive(
    st.one_of(variables, numbers, atoms_), _compounds, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(terms_strategy, terms_strategy),
                min_size=1, max_size=4))
def test_solve_makes_both_sides_bisimilar(eqs):
    solved = solve(eqs)
    if solved is None:
        return
    for lhs, rhs in eqs:
        assert value(solved, lhs) == value(solved, rhs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(terms_strategy, terms_strategy),
                min_size=1, max_size=4), st.randoms())
def test_solve_ignores_equation_order_and_sides(eqs, rng):
    """A permutation with some sides swapped solves alike and gives X, Y
    and Z the same values, free leaves included: var-var bindings are
    oriented by name, not by the order they are met in."""
    other = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in eqs]
    rng.shuffle(other)
    s1, s2 = solve(eqs), solve(other)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        for v in (X, Y, Z):
            assert value(s1, v) == value(s2, v)


@settings(max_examples=150, deadline=None)
@given(terms_strategy, terms_strategy)
def test_solve_is_symmetric(t1, t2):
    assert (solve([(t1, t2)]) is None) == (solve([(t2, t1)]) is None)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(terms_strategy, terms_strategy),
                min_size=1, max_size=3),
       st.lists(st.tuples(terms_strategy, terms_strategy),
                min_size=1, max_size=3))
def test_extending_preserves_earlier_equations(first, second):
    s1 = solve(first)
    if s1 is None:
        return
    snapshot = {v: value(s1, v) for v in (X, Y, Z)}
    s2 = solve(second, s1)
    if s2 is None:
        return
    # anything the base equated stays equated in the extension
    for lhs, rhs in first:
        assert value(s2, lhs) == value(s2, rhs)
    # and the base itself is untouched
    assert snapshot == {v: value(s1, v) for v in (X, Y, Z)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(terms_strategy, terms_strategy), max_size=3),
       st.lists(st.tuples(terms_strategy, terms_strategy), max_size=3))
def test_solve_copies_its_base_before_the_first_write(first, second):
    """solve leaves its base as it was, whether it succeeds or fails, and
    returns the base itself when it binds nothing; with no equations in
    first, the base is the shared EMPTY_SOLVED."""
    base = solve(first)
    assume(base is not None)
    before = dict(base)
    solve(second, base)
    assert dict(base) == before
    assert solve([], base) is base
    assert solve([(X, X)], base) is base
    assert solve([(t, t) for t, _ in second], base) is base
    assert dict(base) == before
    assert len(EMPTY_SOLVED) == 0


def test_the_shared_empty_solved_form_cannot_be_written():
    with pytest.raises(TypeError):
        EMPTY_SOLVED[X] = Compound("a", ())
    assert len(EMPTY_SOLVED) == 0


@settings(max_examples=100, deadline=None)
@given(terms_strategy)
def test_self_unification_succeeds(t):
    solved = solve([(t, t)])
    assert solved is not None


@settings(max_examples=100, deadline=None)
@given(terms_strategy)
def test_value_ignores_one_unfolding(t):
    solved = solve([(X, t)])
    if solved is None:  # t contains X in a clashing way; cannot happen
        return
    r1 = value(solved, X)
    r2 = value(solved, t)
    assert bisimilar(r1, r2)
    assert r1 == r2


leaves = st.one_of(variables, numbers, atoms_)


def _leaf_paths(t, path=()):
    if isinstance(t, Compound) and t.args:
        for i, a in enumerate(t.args):
            yield from _leaf_paths(a, path + (i,))
    else:
        yield path


def _replace_at(t, path, leaf):
    if not path:
        return leaf
    i = path[0]
    args = t.args[:i] + (_replace_at(t.args[i], path[1:], leaf),) + t.args[i + 1:]
    return Compound(t.functor, args)


def _equal_exactly_when_bisimilar(solved, pairs):
    for a, b in pairs:
        ra, rb = value(solved, a), value(solved, b)
        # the canonical value denotes the same tree as the raw graph
        assert bisimilar(ra, raw_graph(solved, a))
        assert (ra == rb) == bisimilar(raw_graph(solved, a),
                                       raw_graph(solved, b))
        if ra == rb:
            assert hash(ra) == hash(rb)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(variables, terms_strategy), min_size=1, max_size=3),
       terms_strategy, terms_strategy, st.data())
def test_value_equality_is_bisimilarity(eqs, t1, t2, data):
    """Random pairs, a variable against one unfolding of its (often cyclic)
    binding, and against that unfolding with one leaf changed."""
    solved = solve(eqs)
    assume(solved is not None)
    pairs = [(t1, t2)]
    for v in (X, Y, Z):
        unfolded = walk(solved, v)
        if not isinstance(unfolded, Compound):
            continue
        path = data.draw(st.sampled_from(list(_leaf_paths(unfolded))))
        changed = _replace_at(unfolded, path, data.draw(leaves))
        pairs += [(v, unfolded), (v, changed)]
    _equal_exactly_when_bisimilar(solved, pairs)


@settings(max_examples=100, deadline=None)
@example([1, 2], 1)
@example([1, 2, 1, 2], 2)
@given(st.lists(st.integers(1, 2), min_size=1, max_size=4),
       st.integers(0, 3))
def test_rotated_cycles_equal_exactly_when_bisimilar(digits, shift):
    shift %= len(digits)
    rotated = digits[shift:] + digits[:shift]
    solved = solve([(X, make_list([Num(d) for d in digits], X)),
                    (Y, make_list([Num(d) for d in rotated], Y))])
    _equal_exactly_when_bisimilar(solved, [(X, Y)])


# --- value_key remembers cyclic keys --------------------------------------

def _key(eqs, terms, store):
    nodes, roots = unfold(solve(eqs), terms)
    return value_key(nodes, roots, store)


def test_a_remembered_cyclic_key_is_the_key_a_fresh_store_gives(monkeypatch):
    """A store minimises a cyclic table once and gives it the same key
    again, the key any fresh store gives it; X = s(X) and X = s(s(X)) key
    alike, X = s(t(X)) does not."""
    t = Compound("t", (X,))
    once, twice, other = [(X, s(X))], [(X, s(s(X)))], [(X, s(t))]
    fresh = [_key(eqs, [X], {}) for eqs in (once, twice, other)]
    assert fresh[0] == fresh[1] != fresh[2]
    refined, refine = [], equations._refine
    monkeypatch.setattr(equations, "_refine",
                        lambda nodes: refined.append(1) or refine(nodes))
    store: dict = {}
    _key([], [f(Num(1), Compound("a"))], store)  # finite ids come first
    for _ in range(3):
        got = [_key(eqs, [X], store) for eqs in (once, twice, other)]
        assert got == fresh
    assert len(refined) == 3  # once per raw table
    assert _key(once, [Num(1), X], store) == _key(once, [Num(1), X], {})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(variables, terms_strategy), min_size=1, max_size=3),
       st.lists(st.lists(terms_strategy, min_size=1, max_size=3),
                min_size=1, max_size=4))
def test_keys_in_a_used_store_are_the_keys_in_a_fresh_one(eqs, rows):
    """A cyclic key is exact whatever the store has keyed before: each row
    keyed twice in one store gets the key a fresh store gives it."""
    solved = solve(eqs)
    assume(solved is not None)
    store: dict = {}
    for terms in rows + rows:
        nodes, roots = unfold(solved, terms)
        key = value_key(nodes, roots, store)
        if isinstance(key[-1], tuple):  # cyclic: a canonical table
            assert key == value_key(nodes, roots, {})


# --- rational_values against the recursive reference ---------------------

@settings(max_examples=200, deadline=None)
@example([(X, f(X)), (Y, f(f(Y)))], [X, Y, f(X)])     # one cycle, three ways
@example([(X, Y), (Y, Z), (Z, s(X))], [X, s(Y), Z])   # a chain into a cycle
@example([(X, f(Num(1), X))], [f(Num(1), Num(1)), X, Num(1), Num(1)])
@given(st.lists(st.tuples(variables, terms_strategy), min_size=1, max_size=4),
       st.lists(terms_strategy, min_size=1, max_size=4))
def test_rational_values_agree_with_the_recursive_reference(eqs, terms):
    """Solved forms with cyclic bindings and variable chains: the joint
    table gives each term the reference value, and one id to two terms
    exactly when their reference values are equal."""
    solved = solve(eqs)
    assume(solved is not None)
    nodes, roots = rational_values(solved, terms)
    expected = [rational_value_by_recursion(solved, t) for t in terms]
    for root, want in zip(roots, expected):
        assert renumbered(nodes, root) == want
    for (r1, v1), (r2, v2) in itertools.combinations(zip(roots, expected), 2):
        assert (r1 == r2) == (v1 == v2)


@settings(max_examples=200, deadline=None)
@example([], [f(Compound("b")), Compound("a"), f(Compound("b"))])
@example([(X, f(X)), (Y, f(f(Y)))], [f(Num(1)), X, Y, Num(1)])
@given(st.lists(st.tuples(variables, terms_strategy), min_size=1, max_size=4),
       st.lists(terms_strategy, min_size=1, max_size=4))
def test_rational_values_number_the_roots_first(eqs, terms):
    """The distinct values at the roots get ids 0, 1, ... in order of first
    appearance, before any node below them: a universe's element e is the
    value at id e of its store."""
    solved = solve(eqs)
    assume(solved is not None)
    _, roots = rational_values(solved, terms)
    first: dict = {}
    assert roots == [first.setdefault(rational_value_by_recursion(solved, t),
                                      len(first)) for t in terms]
