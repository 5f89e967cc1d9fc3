import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from colp.parser import SyntaxErrors, parse_program, parse_query, render
from colp.semantics import (GroundRule, Universe, compute_semantics,
                            ground_instances, greatest_consistent_within,
                            immediate_consequences, least_model,
                            regular_answers, universe_instantiations)
from colp.equations import EMPTY_SOLVED, match, solve
from colp.terms import (MODES, NIL, Atom, Clause, Compound, Num, Template, Var,
                        cons)

from conftest import (CUT, PROGRAMS_DIR, LoopProver, apply_mode, elements,
                      free_leaf_names, ground_instances_by_enumeration,
                      herbrand_base, instantiations_by_enumeration,
                      is_ground, load_program, loop_matches_regular,
                      make_list, rational_value_by_recursion,
                      regular_by_enumeration, substitute,
                      term_str_by_recursion, truncate, value)


def load_universe(name):
    return Universe.from_text((PROGRAMS_DIR / name).read_text("utf-8"),
                              origin=name)


def rule(conclusion, *premises):
    return GroundRule(frozenset(premises), conclusion)


# --- universes ---------------------------------------------------------

def test_universe_parses_names_and_bare_terms():
    u = Universe.from_text("z\ns(z)\nomega := s(omega)\n")
    assert [u.display(i) for i in range(len(u))] == ["z", "s(z)", "omega"]


def test_universe_deduplicates_bisimilar_terms():
    u = Universe.from_text("a := f(b)\nb := f(a)\nc := f(c)\n")
    # a, b, c all denote the same one-cycle of f
    assert len(u) == 1 and u.display(0) == "a"


def test_universe_definitions_may_be_mutually_recursive():
    u = load_universe("maxelem.univ")
    assert [u.display(i) for i in range(len(u))] == ["1", "2", "lw", "lt"]
    rt = value(EMPTY_SOLVED, Num(1))
    assert u.index_of(rt) == 0


def test_universe_rejects_nonground_elements():
    with pytest.raises(SyntaxErrors):
        Universe.from_text("f(X)\n")


def test_universe_rejects_bad_names():
    with pytest.raises(SyntaxErrors):
        Universe.from_text("Bad := f(a)\n")


@pytest.mark.parametrize("sep", ["\x0c", "\u2028", "\x1c", "\x85"])
def test_universe_lines_end_at_newline_alone(sep):
    """Only "\\n" ends a line, as in a program, so the bad name is on the
    second line whatever other line separator the first holds."""
    with pytest.raises(SyntaxErrors) as e:
        Universe.from_text(f"z{sep}s(z)\nBad := a\n")
    assert [str(i) for i in e.value.issues] == [
        "2: bad universe name 'Bad'"]


def test_universe_rejects_clashing_definitions():
    with pytest.raises(SyntaxErrors):
        Universe.from_text("a := f(a)\na := g(a)\n")


def succ(t):
    return Compound("s", (t,))


def element_ids(u):
    return {u.display(e): u.roots[e] for e in range(len(u))}


def test_store_gives_lz_unfolded_once_the_id_of_lz():
    u = load_universe("lists.univ")
    lz = element_ids(u)["lz"]
    zero = u.ids[("n", 0, ())]
    assert u.ids[("f", ".", (zero, lz))] == lz


def test_store_shares_the_node_common_to_lw_and_lt():
    u = load_universe("maxelem.univ")
    ids = element_ids(u)
    one, two = ids["1"], ids["2"]
    # lw = [1|lt] and lt = [2|lw]: four trees, four ids
    assert len(u.store) == 4
    assert u.store[ids["lw"]] == ("f", ".", (one, ids["lt"]))
    assert u.store[ids["lt"]] == ("f", ".", (two, ids["lw"]))


def test_escaping_value_gets_an_id_no_element_has():
    u = load_universe("omega.univ")
    ids = element_ids(u)
    roots = list(u.roots)
    assert u.intern(("f", "s", (ids["z"],))) == ids["s(z)"]
    assert u.intern(("f", "s", (ids["omega"],))) == ids["omega"]
    ssz = u.intern(("f", "s", (ids["s(z)"],)))
    assert ssz not in u.element_at and ssz > max(roots)
    assert u.intern(("f", "s", (ids["s(z)"],))) == ssz
    assert render(u.store, ssz, 8) == "s(s(z))"
    assert len(u.store) == len(u.ids) == 4  # appended to the store once
    assert len(set(u.store)) == len(u.store)  # which stays minimal
    assert u.roots == roots and len(u) == 3


@pytest.mark.parametrize("name", ["omega", "maxelem", "lists"])
def test_semantics_twice_on_one_universe(name):
    """The store outlives a grounding pass: a second pass over the grown
    store gives the same models and warnings, and the elements stay."""
    prog = load_program(f"{name}.colp")
    u = load_universe(f"{name}.univ")
    roots, tables, size = list(u.roots), elements(u), len(u.store)
    first = compute_semantics(prog, u)
    grown = len(u.store)
    assert compute_semantics(prog, u) == first
    assert len(u.store) == grown  # every escape was interned the first time
    assert len(set(u.store)) == len(u.store)
    assert len(u) == len(roots) and u.roots == roots
    assert [u.index_of(t) for t in tables] == list(range(len(u)))
    if name == "omega":  # p(s(s(z))) escapes
        assert first.warnings and grown > size


def fn(*args):
    return Compound("f", args)


W, X, Y = (Var(n, 0) for n in "WXY")
ONE, TWO, Z_, D_ = Num(1), Num(2), Compound("z"), Compound("d")


# universes, each with equations and terms written by hand whose values are
# its elements in order (duplicates left out)
ELEMENTS_BY_HAND = {
    "z\ns(z)\nomega := s(omega)\n":
        ([(W, succ(W))], [Z_, succ(Z_), W]),
    "a := f(b)\nb := f(a)\nc := f(c)\nf(f(d))\nd\n":
        ([(W, fn(W))], [W, fn(fn(D_)), D_]),
    "1\n2\nlw := [1,2|lw]\nlt := [2|lw]\n[1,2,1|lt]\n":
        ([(W, cons(ONE, cons(TWO, W)))], [ONE, TWO, W, cons(TWO, W)]),
    "[0,1]\n1\nlz := [0|lz]\n[1,0|lz]\ns(s(z))\n":
        ([(W, cons(Num(0), W))], [cons(Num(0), cons(ONE, NIL)), ONE, W,
                                  cons(ONE, W), succ(succ(Z_))]),
}


@pytest.mark.parametrize("text", list(ELEMENTS_BY_HAND))
def test_store_agrees_with_elements(text):
    u = Universe.from_text(text)
    assert len(set(u.store)) == len(u.store)  # minimal: one id per tree
    assert all(c < len(u.store) for _, _, kids in u.store for c in kids)
    eqs, terms = ELEMENTS_BY_HAND[text]
    solved = solve(eqs)
    expected = [rational_value_by_recursion(solved, t) for t in terms]
    assert elements(u) == expected
    for e, rt in enumerate(expected):
        assert u.index_of(rt) == e
        assert u.element_at[u.roots[e]] == e
        assert match(rt, 0, u.store, u.roots[e]) == {}  # the same tree


def test_rt_to_str_truncates_cycles():
    u = load_universe("omega.univ")
    assert render(u.store, u.roots[2], 3) == "s(s(s(...)))"


# --- rendering: render against the recursive printer of truncate(...) -----

def test_solve_without_occurs_check():
    solved = solve([(X, succ(X))])
    assert solved is not None
    r = value(solved, X)
    assert is_ground(r)
    assert truncate(r, 3) == succ(succ(succ(CUT)))


def test_truncate_cyclic_list():
    solved = solve([(X, make_list([Num(1), Num(2)], X))])
    r = value(solved, X)
    # depth counts constructor levels; a cons spends one per element
    assert truncate(r, 3) == cons(Num(1), cons(Num(2), cons(CUT, CUT)))


def test_substitute_splices_values():
    w = solve([(X, succ(X))])
    omega = value(w, X)
    r = substitute(value(EMPTY_SOLVED, fn(Y, Num(1))), {"Y": omega})
    assert truncate(r, 3) == fn(succ(succ(CUT)), Num(1))
    # the result is canonical: s(omega) is omega again
    assert substitute(value(EMPTY_SOLVED, succ(Y)), {"Y": omega}) == omega


def test_free_leaf_names_order_and_substitute():
    r = value(EMPTY_SOLVED, fn(Y, X, Y))
    assert free_leaf_names([r]) == ["Y", "X"]
    one = value(EMPTY_SOLVED, Num(1))
    two = value(EMPTY_SOLVED, Num(2))
    filled = substitute(r, {"Y": one, "X": two})
    assert is_ground(filled)
    assert truncate(filled, 2) == fn(Num(1), Num(2), Num(1))


# nodes of any shape, so a table may be cyclic, unminimised, hold cons cells
# whose tail is not [] and operators nested on either side
FUNCTORS = [(".", 2), (".", 2), ("[]", 0), ("+", 2), ("-", 2), ("*", 2),
            ("-", 1), ("+", 1), ("s", 1), ("f", 3), ("a", 0), ("...", 0)]


@st.composite
def node_tables(draw):
    size = draw(st.integers(1, 8))
    kid = st.integers(0, size - 1)
    leaf = st.one_of(
        st.tuples(st.just("v"),
                  st.sampled_from(["X", "_Y", "L#2", "_#1", "_#17"]),
                  st.just(())),
        st.tuples(st.just("n"), st.integers(-12, 12), st.just(())))
    compound = st.sampled_from(FUNCTORS).flatmap(lambda fa: st.tuples(
        st.just("f"), st.just(fa[0]),
        st.lists(kid, min_size=fa[1], max_size=fa[1]).map(tuple)))
    nodes = draw(st.lists(st.one_of(leaf, compound, compound),
                          min_size=size, max_size=size))
    return tuple(nodes), draw(kid)


LZ = (("f", ".", (1, 0)), ("n", 0, ()))  # lz = [0|lz]
SUMS = (("f", "-", (1, 2)), ("f", "+", (3, 3)), ("f", "*", (4, 1)),
        ("n", -1, ()), ("f", "-", (3,)))  # -1+-1--(-1)*(-1+-1) at depth 9


@settings(max_examples=500, deadline=None)
@example((LZ, 0), 5)
@example((LZ, 0), 0)
@example(((("f", ".", (1, 2)), ("v", "_#3", ()), ("f", "s", (0,))), 0), 4)
@example(((("f", ".", (1, 2)), ("n", -2, ()), ("f", "[]", ())), 0), 2)
@example(((("f", ".", (1, 2)), ("n", -2, ()), ("f", "[]", ())), 0), 1)
@example((SUMS, 0), 9)
@example((SUMS, 2), 3)
@example((SUMS, 4), 1)  # -... : the cut number is not shown
@example((SUMS, 4), 2)  # -(-1)
@given(node_tables(), st.integers(0, 9))
def test_rt_to_str_is_term_to_str_of_truncate(table, depth):
    nodes, root = table
    assert render(nodes, root, depth) == term_str_by_recursion(
        truncate(nodes, depth, root))


# --- ground rule instances ----------------------------------------------

def test_ground_instances_filter_builtins():
    u = Universe.from_text("0\n1\n")
    prog = parse_program("pos(N) :- N > 0.\n")
    rules, warnings = ground_instances(prog.templates()[0], u)
    assert rules == frozenset({rule(("pos", (1,)))})
    assert warnings == ()


def test_ground_instances_warn_on_type_errors():
    u = Universe.from_text("0\na\n")
    prog = parse_program("pos(N) :- N > 0.\n")
    rules, warnings = ground_instances(prog.templates()[0], u)
    assert rules == frozenset()
    assert warnings == ("dropped instance of >/2: not arithmetic: a/0",)


def test_ground_instances_warn_on_escapes():
    u = Universe.from_text("z\n")
    prog = parse_program("p(X) :- p(s(X)).\n")
    rules, warnings = ground_instances(prog.templates()[0], u)
    assert rules == frozenset()
    assert warnings == ("instance escapes the universe: p on s(z)",)


def test_wide_and_deep_clauses_ground_within_the_recursion_limit():
    u = load_universe("omega.univ")
    wide = parse_program("p(" + ", ".join(["X"] * 1500) + ") :- q(X).\n")
    rules, warnings = ground_instances(wide.templates()[0], u)
    assert {r.conclusion[1] for r in rules} == {(e,) * 1500 for e in range(3)}
    assert warnings == ()
    deep = Var("X", 0)
    for _ in range(1500):
        deep = succ(deep)
    rules, warnings = ground_instances([Template(Clause(Atom("p", (deep,))))],
                                        u)
    assert rules == frozenset({rule(("p", (2,)))})  # only omega stays
    assert warnings == (
        "instance escapes the universe: p on s(s(s(s(s(s(s(s(...))))))))",)


def test_ground_instances_evaluate_builtins():
    u = Universe.from_text("1\n2\n")
    for body, holds in [("1 < 2", True), ("1 = 2", False), ("1 \\= 2", True),
                        ("2 is 1 + 1", True)]:
        prog = parse_program(f"p :- {body}.\n")
        rules, warnings = ground_instances(prog.templates()[0], u)
        assert rules == ({rule(("p", ()))} if holds else frozenset()), body
        assert warnings == ()


# --- fixpoints ------------------------------------------------------------

A, B, C = ("a", ()), ("b", ()), ("c", ())


def test_least_model_tiny():
    rules = frozenset({rule(A), rule(B, A), rule(C, C)})
    assert least_model(rules) == {A, B}


def test_greatest_consistent_within_keeps_cycles():
    rules = frozenset({rule(A), rule(B, C), rule(C, B)})
    full = frozenset({A, B, C})
    assert greatest_consistent_within(rules, full) == {A, B, C}
    assert greatest_consistent_within(rules, frozenset({A, B})) == {A}


def test_immediate_consequences_monotone_micro():
    rules = frozenset({rule(B, A), rule(C, A, B)})
    small = immediate_consequences(rules, frozenset({A}))
    large = immediate_consequences(rules, frozenset({A, B}))
    assert small <= large


# --- whole-program semantics -----------------------------------------------

def test_semantics_of_successor_loop():
    sem = compute_semantics(load_program("omega.colp"),
                            load_universe("omega.univ"))
    u = load_universe("omega.univ")
    omega_i = [u.display(i) for i in range(len(u))].index("omega")
    assert sem.ind == frozenset()
    assert sem.coind == {("p", (omega_i,))}
    assert sem.reg == {("p", (omega_i,))}
    # the cofact admits everything
    assert sem.ind_all == {("p", (i,)) for i in range(3)}
    assert sem.warnings == ("instance escapes the universe: p on s(s(z))",)


def test_semantics_without_coclauses_collapses_to_inductive():
    sem = compute_semantics(load_program("lists.colp"),
                            load_universe("lists.univ"))
    assert sem.reg == sem.ind
    assert sem.ind <= sem.coind


def test_maxelem_keeps_true_maximum_only():
    u = load_universe("maxelem.univ")
    sem = compute_semantics(load_program("maxelem.colp"), u)
    names = [u.display(i) for i in range(len(u))]
    lw, lt = names.index("lw"), names.index("lt")
    two, one = names.index("2"), names.index("1")
    assert ("maxElem", (lw, two)) in sem.reg
    assert ("maxElem", (lt, two)) in sem.reg
    assert ("maxElem", (lw, one)) not in sem.reg
    # the cofact instance is inductively admissible yet not regular
    assert ("maxElem", (lw, one)) in sem.ind_all
    assert ("all_pos", (lw,)) in sem.reg
    # spurious coinductive member stays out of the regular model
    assert ("member", (lt, lw)) in sem.coind
    assert ("member", (lt, lw)) not in sem.reg


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_has_the_semantics_of_the_reference(mode):
    for path in sorted(PROGRAMS_DIR.glob("*.univ")):
        prog = load_program(f"{path.stem}.colp")
        u = load_universe(path.name)
        assert compute_semantics(prog, u, mode) == \
            compute_semantics(apply_mode(prog, mode), u)


# --- the cycle prover vs the fixpoint definition ----------------------------

def corpus_semantics():
    """Each shipped pair's semantics and full Herbrand base."""
    out = []
    for name in ("omega", "maxelem", "lists"):
        prog = load_program(f"{name}.colp")
        u = load_universe(f"{name}.univ")
        out.append((compute_semantics(prog, u), herbrand_base(prog, u)))
    return out


def test_loop_prover_agrees_on_corpus():
    for sem, base in corpus_semantics():
        assert loop_matches_regular(sem, base)


def test_brute_force_enumeration_agrees_on_corpus():
    for sem, _ in corpus_semantics():
        assert regular_by_enumeration(sem.rules, sem.ind_all) == sem.reg


def test_loop_prover_needs_hypotheses_for_mutual_cycles():
    rules = frozenset({rule(A, B), rule(B, A)})
    ind_all = frozenset({A, B})
    prover = LoopProver(rules, ind_all)
    assert prover.derivable(frozenset(), A)
    assert prover.derivable(frozenset(), B)
    # without the cycle in ind_all nothing is derivable
    bare = LoopProver(rules, frozenset())
    assert not bare.derivable(frozenset(), A)


# --- randomized oracle properties -------------------------------------------

def random_rules(rng, atoms):
    n_rules = rng.randint(1, 2 * len(atoms))
    rules = set()
    for _ in range(n_rules):
        concl = rng.choice(atoms)
        k = rng.choice([0, 0, 1, 1, 2])
        rules.add(rule(concl, *rng.sample(atoms, k)))
    return frozenset(rules)


@pytest.mark.parametrize("seed", range(6))
def test_random_fixpoint_properties(seed):
    rng = random.Random(seed)
    for _ in range(10):
        atoms = [(p, (i,)) for p in ("p", "q") for i in range(rng.randint(1, 4))]
        rules = random_rules(rng, atoms)
        coclause_rules = random_rules(rng, atoms)
        base = frozenset(atoms)

        i1 = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        i2 = i1 | frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        assert immediate_consequences(rules, i1) <= \
            immediate_consequences(rules, i2)

        lfp = least_model(rules)
        assert immediate_consequences(rules, lfp) == lfp

        gfp = greatest_consistent_within(rules, base)
        assert gfp == base & immediate_consequences(rules, gfp)

        ind_all = least_model(rules | coclause_rules)
        reg = greatest_consistent_within(rules, ind_all)
        assert reg == ind_all & immediate_consequences(rules, reg)
        assert reg == regular_by_enumeration(rules, ind_all)

        prover = LoopProver(rules, ind_all)
        assert all(prover.derivable(frozenset(), a) == (a in reg)
                   for a in atoms)

        # no coclauses: the regular model is the inductive one
        assert greatest_consistent_within(rules, lfp) == lfp


def test_word_concatenation_answer_is_regular():
    """Independent confirmation that matching 01 against cat(0,1) is in the
    regular model, over the smallest universe containing the derivation."""
    u = Universe.from_text("0\n1\n[]\n[0]\n[1]\n[0,1]\ncat(0,1)\n")
    sem = compute_semantics(load_program("regex.colp"), u)
    names = [u.display(i) for i in range(len(u))]
    word, rx = names.index("[0,1]"), names.index("cat(0,1)")
    assert ("match", (word, rx)) in sem.reg


# --- query-level oracle helpers ----------------------------------------------

def test_regular_answers_for_successor_loop():
    u = load_universe("omega.univ")
    sem = compute_semantics(load_program("omega.colp"), u)
    q = parse_query("?- p(X).")
    assert regular_answers(q, u, sem.reg) == {(2,)}
    assert u.display(2) == "omega"


def test_regular_answers_project_named_variables():
    u = load_universe("lists.univ")
    sem = compute_semantics(load_program("lists.colp"), u)
    got = regular_answers(parse_query("?- member(X, [0,1])."), u, sem.reg)
    assert {u.display(i) for (i,) in got} == {"0", "1"}
    # anonymous variables are enumerated but not reported
    got = regular_answers(parse_query("?- member(_, [0,1])."), u, sem.reg)
    assert got == {()}


def test_universe_instantiations_of_answers():
    from colp.engine import Config, run_query
    u = load_universe("omega.univ")
    prog = load_program("omega.colp")
    q = parse_query("?- p(X).")
    out = run_query(prog, q, Config(budget=32, max_answers=1))
    ans = next(iter(out.answers))
    assert universe_instantiations(ans, q.variables, u) == {(2,)}


def test_universe_instantiations_enumerate_unbound_variables():
    from colp.engine import Config, run_query
    u = Universe.from_text("a\nb\n")
    prog = parse_program("p(_).\n")
    q = parse_query("?- p(X).")
    out = run_query(prog, q, Config())
    ans = next(iter(out.answers))
    assert universe_instantiations(ans, q.variables, u) == {(0,), (1,)}


def test_universe_instantiations_skip_escaping_values():
    from colp.engine import Config, run_query
    u = Universe.from_text("z\n")
    prog = load_program("omega.colp")
    q = parse_query("?- p(X).")
    out = run_query(prog, q, Config(budget=16, max_answers=1))
    ans = next(iter(out.answers))  # X = s(X), not in {z}
    assert universe_instantiations(ans, q.variables, u) == frozenset()


# answer values over the function symbols of the shipped universes; A, B and
# C stay free, X and Y are the query variables and may be bound cyclically
A, B, C = (Var(n, 0) for n in "ABC")
UNIVERSES = {name: load_universe(name)
             for name in ("lists.univ", "maxelem.univ", "omega.univ")}
# not closed under subterms, so some leaves land outside it
UNIVERSES["open"] = Universe.from_text(
    "[0,1]\n1\nlz := [0|lz]\n[1,0|lz]\ns(s(z))\n")
# a negative number, a cyclic arithmetic term (1 occurs only inside it) and
# a non-number
UNIVERSES["arith"] = Universe.from_text("-1\n0\n2\nc := c + 1\nz\n")
answer_terms = st.recursive(
    st.one_of(st.sampled_from([X, Y, A, B, C]),
              st.sampled_from([Compound("z"), NIL, Num(0), Num(1), Num(2)])),
    lambda inner: st.one_of(st.builds(lambda t: Compound("s", (t,)), inner),
                            st.builds(cons, inner, inner)),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@example("omega.univ", Compound("s", (A,)), A)        # A = omega or z
@example("omega.univ", Compound("s", (X,)), Compound("s", (A,)))
@example("lists.univ", cons(Num(0), X), A)            # X = lz, A free
@example("lists.univ", cons(A, X), cons(A, Y))        # A repeated
@example("lists.univ", cons(A, B), cons(B, NIL))      # [0|[1]] only
@example("maxelem.univ", cons(Num(1), cons(Num(2), X)), cons(A, X))
@example("maxelem.univ", cons(A, cons(B, Y)), cons(B, X))
@example("open", cons(A, B), Compound("s", (A,)))     # A = 0 is outside
@example("lists.univ", cons(Num(0), cons(Num(0), X)), A)  # unrolled lz
@given(st.sampled_from(sorted(UNIVERSES)), answer_terms, answer_terms)
def test_universe_instantiations_agree_with_enumeration(name, tx, ty):
    u = UNIVERSES[name]
    solved = solve([(X, tx), (Y, ty)])
    if solved is None:
        return
    free = free_leaf_names(value(solved, v) for v in (X, Y))
    if len(free) > 3:
        return
    assert (universe_instantiations(solved, (X, Y), u)
            == instantiations_by_enumeration(solved, (X, Y), u))


# clauses over X, Y and A with function symbols, repeated variables and
# builtins; arithmetic on non-numbers or cyclic terms raises type errors
clause_terms = st.recursive(
    st.one_of(st.sampled_from([X, Y, A]),
              st.sampled_from([Compound("z"), NIL, Num(0), Num(1), Num(2)])),
    lambda inner: st.one_of(
        st.builds(succ, inner), st.builds(cons, inner, inner),
        st.builds(lambda op, a, b: Compound(op, (a, b)),
                  st.sampled_from(["+", "-", "*"]), inner, inner)),
    max_leaves=4)
user_atoms = st.builds(lambda pred, args: Atom(pred, tuple(args)),
                       st.sampled_from(["p", "q"]),
                       st.lists(clause_terms, min_size=1, max_size=2))
builtin_atoms = st.one_of(
    st.builds(lambda op, a, b: Atom(op, (a, b)),
              st.sampled_from(["=", "\\=", "is", "<", ">", "=<", ">="]),
              clause_terms, clause_terms),
    st.just(Atom("true")))
clauses = st.builds(lambda head, body: Clause(head, tuple(body)), user_atoms,
                    st.lists(st.one_of(user_atoms, builtin_atoms), max_size=3))


@settings(max_examples=300, deadline=None)
@example("maxelem.univ", [Clause(Atom("p", (cons(Num(2), X),)))])  # [2|lw]
@example("lists.univ", [Clause(Atom("p", (cons(Num(0), X), Y)),
                               (Atom("q", (X,)),))])              # [0|lz]
@example("omega.univ", [Clause(Atom("p", (succ(succ(X)),)))])  # two escapes
@example("omega.univ", [Clause(Atom("p", (X, succ(Y))),
                               (Atom("q", (succ(X),)),))])
@example("open", [Clause(Atom("p", (cons(Num(1), cons(Num(0), X)),)))])
@example("omega.univ", [Clause(Atom("p", (X,)),
                               (Atom("is", (Y, Compound("+", (X, Num(1))))),
                                Atom(">", (X, Num(0)))))])
@example("lists.univ", [Clause(Atom("p", (X,)),
                               (Atom("=", (Y, cons(X, Y))), Atom("q", (Y,))))])
@example("arith", [Clause(Atom("p", (X,)), (Atom("=<", (X, Num(0))),))])
@example("arith", [Clause(Atom("p", (X,)), (Atom(">=", (
    Compound("*", (X, X)), Compound("-", (X, Num(1))))),))])
@example("lists.univ", [Clause(Atom("p", (X,)), (Atom("is", (
    Num(2), Compound("+", (X, Num(1))))),))])         # 2 is not an element
@given(st.sampled_from(sorted(UNIVERSES)), st.lists(clauses, min_size=1,
                                                   max_size=2))
def test_ground_instances_agree_with_enumeration(name, clause_list):
    u = UNIVERSES[name]  # shared, so its store may have grown before
    want = ground_instances_by_enumeration(clause_list, u)
    codes = [Template(c) for c in clause_list]
    assert ground_instances(codes, u) == want
    assert ground_instances(codes, u) == want  # over the grown store


# bare-variable arguments take the odometer's choice unchecked; each case
# mixes them with checked arguments, builtins and escapes
BARE_VARIABLE_CASES = [
    ("0\n1\ns(0)\n", "p(X, X) :- q(X).\nq(s(X)) :- p(X, X).\n"),
    ("0\n1\ns(0)\n", "p(X, Y) :- q(X).\np(Y, s(X)) :- q(X).\n"),
    ("0\n1\n2\n", "p(X) :- q(X), Y is X + 1.\np(X) :- Y > X, q(X).\n"),
    ("a\nb\nf(a)\n", "p(X, Y, Z) :- q(Z, X), r(Y), p(Y, X, X).\n"),
    ("z\ns(z)\nomega := s(omega)\n",
     "p(X, s(Y)) :- q(Y, s(s(X))), r(X, Y).\nq(Y, X) :- p(s(X), Y).\n"),
    ("0\n1\n[]\n[0]\n[1]\n[0,1]\ncat(0,1)\n",
     (PROGRAMS_DIR / "regex.colp").read_text("utf-8")),
]


@pytest.mark.parametrize("universe, text", BARE_VARIABLE_CASES, ids=[
    "repeated", "head-only", "builtin-only", "all-bare", "escapes", "regex"])
def test_bare_variable_arguments_agree_with_enumeration(universe, text):
    u = Universe.from_text(universe)
    prog = parse_program(text)
    for clause_list, codes in zip((prog.clauses, prog.coclauses),
                                  prog.templates()):
        rules, warnings = ground_instances(codes, u)
        want = ground_instances_by_enumeration(clause_list, u)
        assert rules == want[0]
        assert warnings == want[1]  # the same warnings in the same order
    assert ground_instances(prog.templates()[0], u)[0]
