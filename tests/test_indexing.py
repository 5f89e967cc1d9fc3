"""The engine's compiled clauses, principal-functor prefilters and keyed
hypotheses against the unindexed reference engine in conftest: the same
trace text, `#n` stamps included, the same answers in the same order, the
same exhaustion and the same diagnostics."""
import io
import itertools
import random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from colp import engine
from colp.engine import (MODES, Config, _answer_key, _ground_key, _Hyp,
                         run_query)
from colp.equations import (EMPTY_SOLVED, rational_values, solve, unfold,
                            walk)
from colp.parser import parse_program, parse_query
from colp.semantics import Universe, compute_semantics
from colp.terms import (Atom, Compound, Num, Template, Var, fresh_rename,
                        principal)

from conftest import (PROGRAMS_DIR, answer_key_by_table, fresh_rename_by_walk,
                      is_ground, load_program, reference_run_query, vars_of)
from test_acceptance import random_ground_program
from test_equations import (X, Y, Z, _compounds, atoms_, numbers,
                            terms_strategy)


def transcript(run, prog, query_text, cfg):
    """Everything a run shows: trace, answer keys, exhaustion and
    diagnostics."""
    query = parse_query(query_text)
    trace = io.StringIO()
    outcome = run(prog, query, cfg, trace)
    keys = [answer_key_by_table(s, query.variables) for s in outcome.answers]
    return trace.getvalue(), keys, outcome.exhaustion, outcome.diagnostics


def assert_same_run(prog, query_text, cfg):
    got = transcript(run_query, prog, query_text, cfg)
    assert got == transcript(reference_run_query, prog, query_text, cfg)
    return got


QUERIES = [
    ("lists.colp", "member(X, [0,1])."),
    ("lists.colp", "append(X, Y, [1,2])."),
    ("lists.colp", "X = [1|Y], Y = [1|Y]."),
    ("lists.colp", "L = [0|L], member(1, L)."),
    ("lists.colp", "X is 1 + a."),
    ("lists.colp", "X \\= 1."),
    ("omega.colp", "p(z)."),
    ("omega.colp", "p(s(s(z)))."),
    ("omega.colp", "p(X)."),
    ("maxelem.colp", "L = [1,2|L], maxElem(L, M)."),
    ("maxelem.colp", "L = [1,2|L], all_pos(L)."),
    ("maxelem.colp", "member(X, [1,2])."),
    ("ltl.colp", "W = [0|W], sat(W, always(zero))."),
    ("ltl.colp", "W = [0|W], sat([0,0|W], always(zero))."),
    ("ltl.colp", "W = [1|W], sat(W, until(one, zero))."),
    ("ltl.colp", "W = [1|W], sat([1,1,0|W], until(one, zero))."),
    ("ltl.colp", "W = [0|W], sat([1,1|W], until(one, always(zero)))."),
    ("bigstep.colp", "E = seq(skip, E), eval(E, div, [])."),
    ("bigstep.colp", "E = seq(skip, E), eval(E, end, S)."),
    ("bigstep.colp", "E = seq(E, E), eval(seq(out(1), E), div, [1])."),
    ("bigstep.colp", "E = seq(out(1), E), S = [1|S], eval(E, div, S)."),
    ("bigstep.colp", "eval(seq(out(1), skip), R, S)."),
    ("regex.colp", "W = [0|W], match(W, omega(0))."),
    ("regex.colp", "match([0,1], cat(0,1))."),
]


@pytest.mark.parametrize("strategy, prefer",
                         itertools.product(("dfs", "iddfs"),
                                           ("cohyp", "step")))
def test_engine_matches_the_unindexed_reference(strategy, prefer):
    for name, text in QUERIES:
        prog = load_program(name)
        for budget in (5, 9):
            assert_same_run(prog, text, Config(strategy=strategy,
                                               prefer=prefer, budget=budget))


@pytest.mark.parametrize("mode", ["inductive", "coinductive"])
def test_engine_matches_the_reference_in_every_mode(mode):
    for name, text in QUERIES[::3]:
        assert_same_run(load_program(name), text,
                        Config(mode=mode, budget=8))


def test_engine_matches_the_reference_on_generated_ground_programs():
    """The 60 programs of acceptance criterion 8, at its budget."""
    rng = random.Random(8254)
    for _ in range(60):
        text, pred = random_ground_program(rng)
        assert_same_run(parse_program(text), f"{pred}(X).",
                        Config(budget=20))


@pytest.mark.parametrize("mode", MODES)
def test_the_engine_and_the_oracle_share_each_compiled_clause(mode):
    """Templates have no ==, so dict equality below is identity."""
    prog = load_program("maxelem.colp")
    clauses, coclauses = prog.templates(mode)
    outer, inner, has_co = engine._clause_tables(prog, mode)
    ids = {f"c{i}": code for i, code in enumerate(clauses, 1)}
    assert dict(e for codes in outer.values() for e in codes) == ids
    ids.update((f"co{i}", code) for i, code in enumerate(coclauses, 1))
    assert dict(e for codes in inner.values() for e in codes) == ids
    assert has_co == bool(coclauses)
    assert all(code.plan is None for code in ids.values())
    u = Universe.from_text((PROGRAMS_DIR / "maxelem.univ").read_text("utf-8"))
    compute_semantics(prog, u, mode)
    assert all(code.plan is not None for code in ids.values())


def test_keyed_hypotheses_close_exactly():
    """Keys decide ground pairs: in p(z), p(s^k(z)) differs from every
    earlier p(s^j(z)) by key, with no solve.  p(f(Y)) is
    made with Y free, so it has no key, and later frames meet it under
    Y = a and then, on backtracking, under Y = b."""
    prog = parse_program("p(X) :- p(s(X)).\np(X) :~.\n"
                         "q(f(Y)) :- c(Y), q(f(b)), q(f(b)).\nq(X) :~.\n"
                         "c(a).\nc(b).\n")
    for text in ("p(z).", "W = s(W), p(W).", "q(f(Y))."):
        assert_same_run(prog, text, Config(strategy="dfs", budget=12))


# q(f(Y)) picks Y = a and then, on backtracking, Y = b.  Under Y = a, a
# key remembers the store id of f(a) for the object f(Y); under Y = b that
# object is f(b).  The hypothesis q(f(Y)), made with Y free, is first keyed
# under Y = a, so its key must read no remembered id.
BRANCHES = ("p :- q(f(Y)).\n"
            "q(X) :- pick(X), r(X), q(X), ok(X).\n"
            "q(X) :~ pick(X).\n"
            "pick(f(a)).\n"
            "pick(f(b)).\n"
            "ok(f(b)).\n"
            "r(X) :- r(X).\n"
            "r(X) :~ .\n")


@pytest.mark.parametrize("strategy, prefer",
                         itertools.product(("dfs", "iddfs"),
                                           ("cohyp", "step")))
def test_a_remembered_id_never_leaks_into_another_branch(strategy, prefer):
    prog = parse_program(BRANCHES)
    for budget in (8, 10, 12, 14):
        trace = assert_same_run(prog, "p.", Config(
            strategy=strategy, prefer=prefer, budget=budget))[0]
        assert "COHYP q(f(b)) ~ q(f(b))" in trace


def test_failed_ground_hypotheses_are_told_apart_by_key(monkeypatch):
    """In p(z) under dfs, p(s^k(z)) and all its hypotheses are ground, so
    keys tell them apart with no solve, and a sweep makes at most two
    solves per step, not one per hypothesis."""
    calls = []

    def counted(eqs, base):
        calls.append(base)
        return solve(eqs, base)

    monkeypatch.setattr(engine, "solve", counted)
    outcome = run_query(load_program("omega.colp"), parse_query("p(z)."),
                        Config(strategy="dfs", budget=60))
    assert list(outcome.answers) == []
    assert len(calls) <= 2 * 61


def _spy_on_pairs(monkeypatch, pairs):
    """Record, for each solve the engine makes, which of the given pairs
    of ground values (name -> pair of terms) its equations hold."""
    want = {name: [rational_values(EMPTY_SOLVED, [t]) for t in pair]
            for name, pair in pairs.items()}
    met = []

    def spy(eqs, base):
        eqs = list(eqs)
        for pair in eqs:
            values = [rational_values(base, [t]) for t in pair]
            met.extend(name for name, w in want.items() if values == w)
        return solve(eqs, base)

    monkeypatch.setattr(engine, "solve", spy)
    return met


def g(n):
    return Compound("g", (Num(n), Num(0)))


def test_a_ground_pair_with_unequal_keys_skips_solve(monkeypatch):
    """Each s(g(-2, 0)) calls p(g(-2, 0)), which meets the hypothesis
    p(g(-1, 0)); the keys are exact, so they differ although hash(-1) ==
    hash(-2), and neither meeting calls solve."""
    prog = parse_program("p(g(A, B)) :- C is A - 1, s(g(C, B)), s(g(C, B)).\n"
                         "s(X) :- p(X).\ns(X).\np(X) :~.\n")
    text = "A is 0 - 1, p(g(A, 0))."
    for strategy in ("dfs", "iddfs"):
        assert_same_run(prog, text, Config(strategy=strategy, budget=8))
    store = {}
    assert key(EMPTY_SOLVED, (g(-2),), store) != key(EMPTY_SOLVED, (g(-1),),
                                                     store)
    met = _spy_on_pairs(monkeypatch, {"unequal": (g(-2), g(-1))})
    outcome = run_query(prog, parse_query(text),
                        Config(strategy="dfs", budget=8))
    assert len(list(outcome.answers)) == 1
    assert met == []


def test_a_ground_pair_with_equal_keys_closes_without_solve(monkeypatch):
    """The last s(g(-1, 0)) calls p(g(-1, 0)), which meets the hypothesis
    p(g(-1, 0)) with an equal key, so the loop closes under the current
    equations, and no solve is made on either ground pair."""
    prog = parse_program("p(g(A, B)) :- C is A - 1, s(g(C, B)), s(g(A, B)).\n"
                         "s(X) :- p(X).\ns(X).\np(X) :~.\n")
    text = "A is 0 - 1, p(g(A, 0))."
    for strategy in ("dfs", "iddfs"):
        trace = assert_same_run(prog, text,
                                Config(strategy=strategy, budget=8))[0]
        assert "COHYP p(g(-1, 0)) ~ p(g(-1, 0))" in trace
    met = _spy_on_pairs(monkeypatch, {"unequal": (g(-2), g(-1)),
                                      "equal": (g(-1), g(-1))})
    outcome = run_query(prog, parse_query(text),
                        Config(strategy="dfs", budget=8))
    assert list(outcome.answers)
    assert met == []


# --- keys ------------------------------------------------------------------

def key(solved, args, store):
    heads = tuple(principal(walk(solved, a)) for a in args)
    return _Hyp(Atom("p", args), heads, solved).key(store)


# a value for each of X, Y and Z, so every term over them is ground; the
# values may refer back to the variables, so they are often cyclic
bound_terms = st.one_of(numbers, atoms_, _compounds(terms_strategy))
term_pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.tuples(terms_strategy, terms_strategy)] * n))


@settings(max_examples=150, deadline=None)
@given(st.tuples(bound_terms, bound_terms, bound_terms), term_pairs)
def test_ground_keys_are_equal_when_solve_unifies(values, pairs):
    """Equal values have equal keys, in one store."""
    solved = solve(zip((X, Y, Z), values))
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    # the same values reached through one more binding
    unfolded = tuple(walk(solved, x) for x in a)
    store = {}
    ka = key(solved, a, store)
    assert ka
    assert key(solved, unfolded, store) == ka
    if solve(zip(a, b), solved) is not None:
        assert key(solved, b, store) == ka


@settings(max_examples=200, deadline=None)
@example((Num(0), Num(0), Num(0)),  # hash(-1) == hash(-2), unequal values
         ((Compound("g", (Num(-1), X)), Compound("g", (Num(-2), X))),))
# one open cyclic value, shared two ways: X = f(Z, X), Y = f(Z, f(Z, Y))
@example((Compound("f", (Z, X)), Compound("f", (Z, Compound("f", (Z, Y)))),
          None), ((X, Y),))
@example((None, None, None),  # f(A, A) against f(A, B)
         ((Compound("f", (X, X)), Compound("f", (X, Y))),))
@given(st.tuples(*[st.one_of(st.none(), bound_terms)] * 3), term_pairs)
def test_keys_in_one_store_are_equal_exactly_when_values_are(values, pairs):
    """Within one store, two tuples of terms get equal hypothesis keys
    exactly when their values' tables are equal, and equal answer keys
    exactly when the tables are equal up to renaming of free leaves.  The
    variables left unbound (None) make open values; a key made again is
    the same.  Ids from two stores are never compared."""
    solved = solve((v, t) for v, t in zip((X, Y, Z), values) if t is not None)
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    store = {}
    ka, kb = key(solved, a, store), key(solved, b, store)
    assert key(solved, a, store) == ka
    ta, tb = rational_values(solved, a), rational_values(solved, b)
    if is_ground(ta[0]) and is_ground(tb[0]):
        assert ka and kb and (ka == kb) == (ta == tb)
    else:
        assert not (ka and kb)
    answers = [_answer_key(solved, t, store) for t in (a, b, a)]
    assert answers[0] == answers[2]
    assert (answers[0] == answers[1]) == (
        answer_key_by_table(solved, a) == answer_key_by_table(solved, b))


def branch():
    """The memo of a run expanding a state, as _ground_key reads it."""
    return SimpleNamespace(known={}, trail=[], stack=[])


O = Var("O")
FINITE = Compound("f", (Compound("a"), Num(1)))


@pytest.mark.parametrize("eqs, atoms", [
    # a remembered value under a cycle: X = g(O, X)
    ([(X, Compound("g", (O, X)))], [(X,), (Compound("g", (O, X)),)]),
    # and above one: Y's list equals the list X is on
    ([(X, Compound(".", (O, X))), (Y, Compound(".", (O, X)))],
     [(X,), (Y,)]),
    # a finite value over it
    ([(Z, Compound("g", (O, Compound("g", (O, O)))))],
     [(Z,), (Compound("g", (O, Compound("g", (O, O)))),)]),
], ids=["under", "above", "finite"])
def test_keys_through_remembered_ids_are_exact(eqs, atoms):
    """O's id is remembered under O = f(a, 1), then read under more
    equations: each key equals the one a full unfold gives in the same
    store, a cyclic one also the one a fresh store gives, and the two
    atoms' values, which are equal, get one key."""
    store, run = {}, branch()
    solved = solve([(O, FINITE)])
    (_, sid) = _ground_key(Atom("p", (O,)), solved, store, run)
    assert run.known == {id(FINITE): sid}
    solved = solve(eqs, solved)
    keys = set()
    for args in atoms:
        assert ("i", sid, ()) in unfold(solved, args, run.known)[0]
        got = _ground_key(Atom("p", args), solved, store, run)
        assert got == _ground_key(Atom("p", args), solved, store)
        if got[1].__class__ is not int:  # cyclic
            assert got == _ground_key(Atom("p", args), solved, {})
        keys.add(got)
    assert len(keys) == 1


@settings(max_examples=200, deadline=None)
# X's id is remembered, then read under the cycle Y = g(X, Y)
@example((Compound("f", (Compound("a"),)), None, None),
         (None, Compound("g", (X, Y)), None), ((X, Y),))
@given(st.tuples(*[st.one_of(st.none(), bound_terms)] * 3),
       st.tuples(*[st.one_of(st.none(), bound_terms)] * 3), term_pairs)
def test_keys_through_the_memo_are_the_keys_of_a_full_unfold(first, then,
                                                             pairs):
    """Bindings only grow along a branch.  Keys taken through one memo,
    under the first equations and then under more, read the ids the
    earlier keys remembered; each is the key a full unfold gives in the
    same store, and a cyclic one also the key a fresh store gives.  Under
    the later equations, two ground keys are equal exactly when the
    values are."""
    early = solve((v, t) for v, t in zip((X, Y, Z), first) if t is not None)
    late = solve(((v, t) for v, t in zip((X, Y, Z), then)
                  if t is not None and walk(early, v) is v), early)
    assume(late is not None)
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    store, run = {}, branch()
    taken = [(solved, args, _ground_key(Atom("p", args), solved, store, run))
             for solved in (early, late) for args in (a, b)]
    for solved, args, got in taken:
        assert got == _ground_key(Atom("p", args), solved, store)
        if got and got[1].__class__ is not int:  # cyclic
            assert got == _ground_key(Atom("p", args), solved, {})
    ka, kb = taken[2][2], taken[3][2]
    if ka and kb:
        assert (ka == kb) == (rational_values(late, a) ==
                              rational_values(late, b))


def test_keys_are_empty_for_non_ground_arguments():
    solved = solve([(X, Compound("f", (Y,)))])
    store = {}
    assert key(solved, (X,), store) == ()
    assert key(solved, (Y,), store) == ()
    assert key(EMPTY_SOLVED, (Num(1), Compound("g", (Z,))), store) == ()


# --- compiled renaming ------------------------------------------------------

def renamed_values(clause):
    """Each atom's predicate and the table of its argument values: for
    finite trees, table equality is syntactic equality."""
    return [(a.pred, rational_values(EMPTY_SOLVED, a.args))
            for a in (clause.head, *clause.body)]


def assert_renames_like_the_reference(clause):
    code = Template(clause)
    mine, ref = itertools.count(3), itertools.count(3)
    for _ in range(2):
        got = fresh_rename(code, mine)
        want = fresh_rename_by_walk(clause, ref)
        assert renamed_values(got) == renamed_values(want)
        assert vars_of(got) == vars_of(want)
    assert next(mine) == next(ref)


def test_compiled_renaming_matches_the_reference_on_every_program():
    for path in sorted(PROGRAMS_DIR.glob("*.colp")):
        prog = load_program(path.name)
        for clause in prog.clauses + prog.coclauses:
            assert_renames_like_the_reference(clause)


def test_compiled_renaming_shares_ground_subterms():
    clause = parse_program("p(X, f(a, [1,2])) :- q(g(X, b)).\n").clauses[0]
    renamed = fresh_rename(Template(clause), itertools.count(1))
    assert renamed.head.args[1] is clause.head.args[1]
    assert renamed.body[0].args[0].args[1] is clause.body[0].args[0].args[1]
    ground = parse_program("p(f(a)) :- q(b).\n").clauses[0]
    assert fresh_rename(Template(ground), itertools.count(1)) is ground


def test_compiled_renaming_of_a_long_sum_within_the_recursion_limit():
    ones = "+".join(["1"] * 2000)
    clause = parse_program(f"p(X) :- q(X), X > {ones}.\n").clauses[0]
    assert_renames_like_the_reference(clause)
    deep = parse_program(f"p(Y, X) :- q(X), Y is X + {ones}.\n").clauses[0]
    assert_renames_like_the_reference(deep)
