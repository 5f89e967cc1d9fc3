import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from colp.parser import parse_program, parse_query
from colp.semantics import (GroundRule, LoopProver, Universe, UniverseError,
                            compute_semantics, eval_ground_builtin,
                            ground_instances, greatest_consistent_within,
                            immediate_consequences, least_model,
                            regular_answers, rt_to_str,
                            universe_instantiations)
from colp.equations import (EMPTY_SOLVED, free_leaf_names, rational_value,
                            solve)
from colp.terms import NIL, Compound, Num, Var, cons

from conftest import (PROGRAMS_DIR, instantiations_by_enumeration,
                      load_program, loop_matches_regular,
                      regular_by_enumeration)


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
    rt = rational_value(EMPTY_SOLVED, Num(1))
    assert u.index_of(rt) == 0


def test_universe_rejects_nonground_elements():
    with pytest.raises(UniverseError):
        Universe.from_text("f(X)\n")


def test_universe_rejects_bad_names():
    with pytest.raises(UniverseError):
        Universe.from_text("Bad := f(a)\n")


def test_universe_rejects_clashing_definitions():
    with pytest.raises(UniverseError):
        Universe.from_text("a := f(a)\na := g(a)\n")


def test_rt_to_str_truncates_cycles():
    u = load_universe("omega.univ")
    assert rt_to_str(u.elements[2], depth=3) == "s(s(s(...)))"


# --- ground rule instances ----------------------------------------------

def test_ground_instances_filter_builtins():
    u = Universe.from_text("0\n1\n")
    prog = parse_program("pos(N) :- N > 0.\n")
    rules, warnings = ground_instances(prog.clauses, u)
    assert rules == frozenset({rule(("pos", (1,)))})
    assert warnings == ()


def test_ground_instances_warn_on_type_errors():
    u = Universe.from_text("0\na\n")
    prog = parse_program("pos(N) :- N > 0.\n")
    rules, warnings = ground_instances(prog.clauses, u)
    assert rules == frozenset()
    assert warnings == ("dropped instance of >/2: not arithmetic: a/0",)


def test_ground_instances_warn_on_escapes():
    u = Universe.from_text("z\n")
    prog = parse_program("p(X) :- p(s(X)).\n")
    rules, warnings = ground_instances(prog.clauses, u)
    assert rules == frozenset()
    assert warnings == ("instance escapes the universe: p on s(z)",)


def test_eval_ground_builtin():
    one = rational_value(EMPTY_SOLVED, Num(1))
    two = rational_value(EMPTY_SOLVED, Num(2))
    assert eval_ground_builtin("<", (one, two))
    assert not eval_ground_builtin("=", (one, two))
    assert eval_ground_builtin("\\=", (one, two))
    plus = rational_value(EMPTY_SOLVED, Compound("+", (Num(1), Num(1))))
    assert eval_ground_builtin("is", (two, plus))


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
    assert sem.ind_all == sem.base  # the cofact admits everything
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


# --- the cycle prover vs the fixpoint definition ----------------------------

def corpus_semantics():
    return [
        compute_semantics(load_program("omega.colp"),
                          load_universe("omega.univ")),
        compute_semantics(load_program("maxelem.colp"),
                          load_universe("maxelem.univ")),
        compute_semantics(load_program("lists.colp"),
                          load_universe("lists.univ")),
    ]


def test_loop_prover_agrees_on_corpus():
    for sem in corpus_semantics():
        assert loop_matches_regular(sem)


def test_brute_force_enumeration_agrees_on_corpus():
    for sem in corpus_semantics():
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
X, Y = Var("X", 0), Var("Y", 0)
A, B, C = (Var(n, 0) for n in "ABC")
UNIVERSES = {name: load_universe(name)
             for name in ("lists.univ", "maxelem.univ", "omega.univ")}
# not closed under subterms, so some leaves land outside it
UNIVERSES["open"] = Universe.from_text(
    "[0,1]\n1\nlz := [0|lz]\n[1,0|lz]\ns(s(z))\n")
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
@given(st.sampled_from(sorted(UNIVERSES)), answer_terms, answer_terms)
def test_universe_instantiations_agree_with_enumeration(name, tx, ty):
    u = UNIVERSES[name]
    solved = solve([(X, tx), (Y, ty)])
    if solved is None:
        return
    free = free_leaf_names(rational_value(solved, v) for v in (X, Y))
    if len(free) > 3:
        return
    assert (universe_instantiations(solved, (X, Y), u)
            == instantiations_by_enumeration(solved, (X, Y), u))
