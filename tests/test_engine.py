import io
import math
import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from colp import engine, equations
from colp.engine import (BUDGET_EXHAUSTED, COMPLETE, FINITELY_FAILED, MODES,
                         Config, eval_builtin, run_query)
from colp.equations import EMPTY_SOLVED, walk
from colp.parser import Query, parse_program, parse_query, print_answer
from colp.semantics import Universe, universe_instantiations
from colp.terms import Atom, Clause, Num, Program, Var, map_leaves

from conftest import (PROGRAMS_DIR, answer_key_by_table, answers, eq_vars,
                      load_program, value)


# --- plain SLD behaviour (no coclauses) ---------------------------------

def test_member_enumerates_in_clause_order(lists):
    q = parse_query("?- member(X, [0,1]).")
    out = run_query(lists, q, Config())
    got = [print_answer(a, q.variables) for a in out.answers]
    assert got == ["X = 0", "X = 1"]
    assert out.exhaustion == COMPLETE


def test_dfs_and_iddfs_agree_on_finite_trees(lists):
    for strategy in ("dfs", "iddfs"):
        got, status = answers(lists, "?- append(X, Y, [0,1]).",
                              strategy=strategy)
        assert got == ["X = [0,1]\nY = []",
                       "X = [0]\nY = [1]",
                       "X = []\nY = [0,1]"]
        assert status == COMPLETE


def test_finite_failure(lists):
    got, status = answers(lists, "?- member(5, [0,1]).")
    assert got == [] and status == FINITELY_FAILED


def test_budget_exhaustion_on_regress(omega):
    got, status = answers(omega, "?- p(z).", budget=40)
    assert got == [] and status == BUDGET_EXHAUSTED


def test_answers_deduplicate_across_proofs():
    prog = parse_program("p(X) :- q(X).\np(X) :- r(X).\nq(a).\nr(a).\n")
    got, status = answers(prog, "?- p(X).")
    assert got == ["X = a"] and status == COMPLETE


def test_max_answers_truncates_without_status(lists):
    q = parse_query("?- member(X, [0,1]).")
    out = run_query(lists, q, Config(max_answers=1))
    assert len(list(out.answers)) == 1
    assert out.exhaustion is None


# --- modes ---------------------------------------------------------------

def test_inductive_mode_drops_coclauses(maxelem):
    clauses, coclauses = maxelem.templates("inductive")
    assert clauses is maxelem.templates()[0] and coclauses == []
    got, status = answers(maxelem, "?- L = [1,2|L], all_pos(L).",
                          mode="inductive", budget=30)
    assert got == [] and status == BUDGET_EXHAUSTED


def test_coinductive_mode_adds_universal_cofacts(lists):
    cofacts = [code.clause for code in lists.templates("coinductive")[1]]
    sigs = {(c.head.pred, len(c.head.args)) for c in cofacts}
    assert sigs == {("member", 2), ("append", 3), ("all_pos", 1)}
    assert all(not c.body for c in cofacts)
    # the spurious coinductive success the plain program refuses
    got, _ = answers(lists, "?- L = [0|L], member(1, L).",
                     mode="coinductive", budget=30)
    assert got == ["L = [0|L]"]


def test_flexible_and_inductive_agree_without_coclauses(lists):
    for query in ("?- member(X, [0,1]).", "?- append(X, Y, [0,1])."):
        assert answers(lists, query) == \
            answers(lists, query, mode="inductive")


# --- coinductive hypotheses ----------------------------------------------

def test_cofact_closes_cycle(maxelem):
    got, _ = answers(maxelem, "?- L = [1,2|L], all_pos(L).", max_answers=1)
    assert got == ["L = [1,2|L]"]


def test_cohyp_requires_matching_hypothesis(maxelem):
    # member has no coclause: the cycle never closes even in flexible mode
    got, status = answers(maxelem, "?- L = [0|L], member(1, L).", budget=30)
    assert got == [] and status == BUDGET_EXHAUSTED


def test_intermediate_semantics_of_maxelem(maxelem):
    got, _ = answers(maxelem, "?- L = [1,2|L], maxElem(L, M).", budget=24)
    assert got == ["L = [1,2|L]\nM = 2"]


def test_nonground_query_finds_self_similar_answer(omega):
    q = parse_query("?- p(X).")
    out = run_query(omega, q, Config(budget=100, max_answers=1))
    ans = [print_answer(a, q.variables) for a in out.answers]
    assert ans == ["X = s(X)"]


def test_answer_set_is_exact_up_to_budget(omega):
    got, status = answers(omega, "?- p(X).", budget=32)
    assert got == ["X = s(X)"] and status == BUDGET_EXHAUSTED


# --- iterative deepening keys each answer once ---------------------------

DIGITS = "[" + ",".join(str(i % 10) for i in range(40)) + "]"


def _keyed(monkeypatch, prog, text, **kwargs):
    """The printed answers and the number of engine._answer_key calls."""
    calls = []
    key = engine._answer_key
    monkeypatch.setattr(engine, "_answer_key",
                        lambda *a: calls.append(1) or key(*a))
    q = parse_query(text)
    got = [print_answer(a, q.variables)
           for a in run_query(prog, q, Config(**kwargs)).answers]
    return got, len(calls)


@pytest.mark.parametrize("prog, text, budget, keys", [
    ("lists", f"append(X, Y, {list(range(24))}).", 1000, 25),
    ("lists", f"member(X, {DIGITS}).", 1000, 40),
    ("omega", "p(X).", 32, None),
], ids=["append", "member", "omega"])
def test_iddfs_keys_as_many_answers_as_dfs(monkeypatch, request, prog, text,
                                           budget, keys):
    """A sweep keys only the answers that cost more than the budget of the
    sweep before it, so iterative deepening keys as many as one dfs sweep."""
    prog = request.getfixturevalue(prog)
    got, keyed = _keyed(monkeypatch, prog, text, budget=budget)
    dfs_got, dfs_keyed = _keyed(monkeypatch, prog, text, budget=budget,
                                strategy="dfs")
    assert sorted(got) == sorted(dfs_got)
    assert keyed == dfs_keyed == (dfs_keyed if keys is None else keys)


@pytest.mark.parametrize("budget", [1, 4])
@pytest.mark.parametrize("text, answer", [
    ("X = a.", "X = a"),
    ("X = [1,2], Y = X.", "X = [1,2]\nY = [1,2]"),
], ids=["one", "two"])
def test_iddfs_answers_queries_of_builtins_alone(monkeypatch, lists, text,
                                                 answer, budget):
    """Builtins cost nothing, so the first sweep's floor is below 0."""
    assert _keyed(monkeypatch, lists, text, budget=budget) == ([answer], 1)


# --- growth in exact counts ----------------------------------------------

def _counted(counts, field, f):
    def counting(*args):
        counts[field] += 1
        return f(*args)
    return counting


def _work(monkeypatch, prog, text, cfg):
    """The calls a run that drains its answers makes to the engine's solve,
    _clash, fresh_rename, _ground_key and _answer_key, the cyclic keys it
    minimises (equations._refine), and the nodes unfold builds for it."""
    fields = ("solve", "clashes", "renames", "keys", "answer keys",
              "minimisations", "nodes")
    counts = dict.fromkeys(fields, 0)
    unfold = engine.unfold

    def unfolding(solved, terms, known=None):
        nodes, roots = unfold(solved, terms, known)
        counts["nodes"] += len(nodes)
        return nodes, roots

    with monkeypatch.context() as m:
        for name, field in (("solve", "solve"), ("_clash", "clashes"),
                            ("fresh_rename", "renames"),
                            ("_ground_key", "keys"),
                            ("_answer_key", "answer keys")):
            m.setattr(engine, name, _counted(counts, field,
                                             getattr(engine, name)))
        m.setattr(engine, "unfold", unfolding)
        m.setattr(equations, "_refine",
                  _counted(counts, "minimisations", equations._refine))
        list(run_query(prog, parse_query(text), cfg).answers)
    return counts


def _dfs(text):
    """A query run depth-first at budget n, the size doubled."""
    return lambda n: (text, Config(strategy="dfs", budget=n))


def _over_list(text, period):
    """A query about the list [0, 1, ..., period - 1, 0, 1, ...] of n
    items, run under the default Config."""
    return lambda n: (text.format(
        "[" + ",".join(str(i % period) for i in range(n)) + "]"), Config())


# Each count's exponent per doubling of the size when this test was
# written: the budget of an ltl or omega query that finds no answer, or
# the length of the list an answers query enumerates over.  A count fails
# once its exponent exceeds that by 0.25.  A change that lowers an exponent
# lowers its entry here; none is ever raised.  lists.colp has no
# coclauses, so its queries make no _ground_key call.
@pytest.mark.parametrize("name, query, size, exponents", [
    ("omega.colp", _dfs("p(z)."), 50,
     {"solve": 1.0, "clashes": 1.958, "renames": 0.986, "keys": 1.0,
      "nodes": 1.007}),
    ("ltl.colp", _dfs("W = [1|W], sat(W, until(one, zero))."), 16,
     {"solve": 1.767, "clashes": 1.589, "renames": 1.023, "keys": 2.147,
      "minimisations": 1.1, "nodes": 2.861}),
    ("lists.colp", _over_list("append(X, Y, {}).", 2), 12,
     {"solve": 0.942, "clashes": 0.931, "renames": 0.942,
      "answer keys": 0.943, "nodes": 1.914}),
    ("lists.colp", _over_list("member(X, {}).", 3), 20,
     {"solve": 0.961, "clashes": 0.948, "renames": 0.961,
      "answer keys": 1.0, "nodes": 1.0}),
], ids=["omega", "ltl", "append", "member"])
def test_work_grows_within_its_exponent(monkeypatch, name, query, size,
                                        exponents):
    prog = load_program(name)
    low = _work(monkeypatch, prog, *query(size))
    high = _work(monkeypatch, prog, *query(2 * size))
    got = {k: math.log2(high[k] / low[k]) for k in exponents}
    assert all(got[k] <= exponents[k] + 0.25 for k in exponents), got


# --- preference and tracing ----------------------------------------------

def _first_decision(prog, text, **kwargs):
    q = parse_query(text)
    buf = io.StringIO()
    out = run_query(prog, q, Config(max_answers=1, **kwargs), trace=buf)
    list(out.answers)
    return buf.getvalue().splitlines()


def test_trace_shape(maxelem):
    lines = _first_decision(maxelem, "?- L = [1,2|L], all_pos(L).",
                            strategy="dfs", budget=10)
    assert lines[0] == "STEP all_pos([1,2|L]) via c2"
    assert lines[1].startswith("  STEP all_pos(")
    assert any(line.lstrip().startswith("COHYP ") for line in lines)
    assert lines[-1] == "EMPTY"
    # after the co-hyp the inner rerun closes with the cofact
    assert any("via co1" in line for line in lines)


def test_prefer_orders_cohyp_before_steps(maxelem):
    text = "?- L = [1,1|L], all_pos(L)."
    cohyp_first = _first_decision(maxelem, text, prefer="cohyp",
                                  strategy="dfs", budget=8)
    step_first = _first_decision(maxelem, text, prefer="step",
                                 strategy="dfs", budget=8)
    assert cohyp_first != step_first
    # with cohyp preferred, the first revisit of all_pos(L) tries COHYP
    decisions = [l for l in cohyp_first
                 if l.strip().startswith(("STEP all_pos", "COHYP"))]
    assert "COHYP" in decisions[1]
    other = [l for l in step_first
             if l.strip().startswith(("STEP all_pos", "COHYP"))]
    assert "COHYP" not in other[1]


def test_trace_only_written_when_requested(maxelem):
    q = parse_query("?- all_pos([1]).")
    out = run_query(maxelem, q, Config())
    assert list(out.answers)  # no trace stream, must still succeed


# --- builtins --------------------------------------------------------------

def test_arithmetic_evaluation():
    prog = parse_program("calc(X, Y) :- Y is X * 3 + 1.\n")
    got, _ = answers(prog, "?- calc(2, Y).")
    assert got == ["Y = 7"]
    got, _ = answers(prog, "?- Y is max(2, 5), Z is min(Y, -4), W is -Z.")
    assert got == ["Y = 5\nZ = -4\nW = 4"]


def test_comparisons():
    prog = parse_program("positive(N) :- N > 0.\n")
    assert answers(prog, "?- positive(3).")[0] == ["true"]
    assert answers(prog, "?- positive(0).")[1] == FINITELY_FAILED
    got, _ = answers(prog, "?- 1 < 2, 2 =< 2, 3 >= 3, 4 > 1.")
    assert got == ["true"]


def test_equality_and_disequality():
    prog = parse_program("ok :- 1 \\= 2.\n")
    assert answers(prog, "?- ok.")[0] == ["true"]
    got, status = answers(prog, "?- 1 \\= 1.")
    assert got == [] and status == FINITELY_FAILED
    # rational equality: bisimilar cycles are equal
    got, _ = answers(prog, "?- X = [1,2|X], Y = [1,2,1,2|Y], X = Y.")
    assert len(got) == 1


def test_disequality_requires_ground_arguments():
    prog = parse_program("p(1).\n")
    q = parse_query("?- X \\= 1, p(X).")
    out = run_query(prog, q, Config())
    assert list(out.answers) == []
    assert any("\\=" in d for d in out.diagnostics)


def test_type_error_aborts_branch_not_query():
    prog = parse_program("p(X) :- X is 1 + a.\np(2).\n")
    q = parse_query("?- p(X).")
    out = run_query(prog, q, Config())
    got = [print_answer(a, q.variables) for a in out.answers]
    assert got == ["X = 2"]
    assert len(out.diagnostics) == 1


def test_cyclic_arithmetic_is_a_type_error():
    prog = parse_program("loop(X) :- L = 1 + L, X is L.\n")
    q = parse_query("?- loop(X).")
    out = run_query(prog, q, Config())
    assert list(out.answers) == []
    assert out.diagnostics


def test_eval_builtin_directly():
    solved = eval_builtin(Atom("is", (Var("X", 0), Num(3))), EMPTY_SOLVED)
    assert walk(solved, Var("X", 0)) == Num(3)
    assert eval_builtin(Atom(">", (Num(1), Num(2))), EMPTY_SOLVED) is None


# --- invariants -------------------------------------------------------------

def test_answers_extend_query_equations(maxelem):
    q = parse_query("?- L = [1,2|L], maxElem(L, M).")
    out = run_query(maxelem, q, Config(max_answers=1))
    ans = next(iter(out.answers))
    # the query's own equation still holds in the answer
    lhs, rhs = q.atoms[0].args
    assert value(ans, lhs) == value(ans, rhs)
    # every query variable is covered by the answer equations
    assert set(q.variables) <= eq_vars(ans)


def test_config_validation():
    with pytest.raises(ValueError):
        Config(budget=0)
    with pytest.raises(ValueError):
        Config(mode="other")
    with pytest.raises(ValueError):
        Config(max_answers=0)
    with pytest.raises(ValueError, match="unknown strategy 'bfs'"):
        Config(strategy="bfs")
    with pytest.raises(ValueError, match="unknown preference 'other'"):
        Config(prefer="other")


# --- metamorphic: the answer set ignores search order -------------------

# corpus queries whose search completes at budget 16
COMPLETING_QUERIES = [
    ("lists.colp", "member(X, [0,1,2])."),
    ("lists.colp", "append(X, Y, [1,2,3])."),
    ("lists.colp", "all_pos([1,2,0])."),
    ("maxelem.colp", "L = [1,2|L], member(X, L)."),
    ("bigstep.colp", "eval(seq(out(1), skip), R, S)."),
    ("regex.colp", "match([0,1], cat(0,1))."),
    ("regex.colp", "match(W, cat(0,1))."),
]


@pytest.mark.parametrize("name, text", COMPLETING_QUERIES)
def test_answer_set_ignores_strategy_preference_and_clause_order(name, text):
    prog = load_program(name)
    flipped = Program(prog.clauses[::-1], prog.coclauses[::-1])
    q = parse_query(text)
    for mode in MODES:
        sets = set()
        for p in (prog, flipped):
            for strategy in ("dfs", "iddfs"):
                for prefer in ("cohyp", "step"):
                    cfg = Config(mode=mode, strategy=strategy, budget=16,
                                 prefer=prefer)
                    outcome = run_query(p, q, cfg)
                    sets.add(frozenset(answer_key_by_table(a, q.variables)
                                       for a in outcome.answers))
                    assert outcome.exhaustion != BUDGET_EXHAUSTED
        assert len(sets) == 1, (mode, len(sets))


def _rename_atom(a: Atom) -> Atom:
    """The atom with every named variable X renamed to ZX."""
    def leaf(x):
        if isinstance(x, Var) and not x.name.startswith("_#"):
            return Var("Z" + x.name, x.index)
        return x
    return Atom(a.pred, tuple(map_leaves(t, leaf) for t in a.args))


def _rename_clauses(clauses):
    return tuple(Clause(_rename_atom(c.head), tuple(map(_rename_atom, c.body)))
                 for c in clauses)


@pytest.mark.parametrize("name, text", COMPLETING_QUERIES)
def test_answers_ignore_variable_names(name, text):
    prog = load_program(name)
    renamed = Program(_rename_clauses(prog.clauses),
                      _rename_clauses(prog.coclauses))
    q = parse_query(text)
    rq = Query(tuple(map(_rename_atom, q.atoms)),
               tuple(Var("Z" + v.name) for v in q.variables))
    for mode in MODES:
        for strategy in ("dfs", "iddfs"):
            for prefer in ("cohyp", "step"):
                cfg = Config(mode=mode, strategy=strategy, budget=16,
                             prefer=prefer)
                keys = [answer_key_by_table(a, q.variables)
                        for a in run_query(prog, q, cfg).answers]
                assert keys == [answer_key_by_table(a, rq.variables)
                                for a in run_query(renamed, rq, cfg).answers]


# --- answers name the query's variables, never a clause's ----------------

SMALL = "p(X, X). q(Y) :- p(Y, _). r(X, X, X)."
# every corpus query with variables, the open ones capped at a few answers
NAMED_QUERIES = [(name, text) for name, text in COMPLETING_QUERIES
                 if parse_query(text).variables] + [
    ("lists.colp", "append(X, Y, Z)."),
    ("lists.colp", "member(X, L)."),
    ("maxelem.colp", "maxElem(L, M)."),
    ("omega.colp", "p(X)."),
    (SMALL, "p(A, B)."),
    (SMALL, "q(A)."),
    (SMALL, "r(A, B, _)."),
]
# with names that sort above the corpus's clause variables (Y, Z) and above
# anonymous ones (_Foo, _Y)
NEW_NAMES = ["A", "L", "X", "Y", "Z", "_Foo", "_Y"]
_NAME = re.compile(r"(?<![\w#])[A-Z_]\w*(?![\w#])")  # not X#2's X


def _substituted(text, rename):
    return _NAME.sub(lambda m: rename.get(m.group(), m.group()), text)


def _printed(source, text):
    prog = (load_program(source) if source.endswith(".colp")
            else parse_program(source))
    q = parse_query(text)
    return [[print_answer(a, q.variables)
             for a in run_query(prog, q, Config(strategy=strategy, budget=12,
                                                max_answers=4)).answers]
            for strategy in ("dfs", "iddfs")]


@settings(max_examples=100, deadline=None)
@example((SMALL, "p(A, B)."), ["Y", "Z"])
@example((SMALL, "q(A)."), ["Z"])
@example((SMALL, "p(A, _)."), ["_Foo"])
@example((SMALL, "r(A, B, _)."), ["_Foo", "_Y"])
@given(st.sampled_from(NAMED_QUERIES), st.permutations(NEW_NAMES))
def test_answers_do_not_depend_on_query_variable_names(case, names):
    """A one-to-one renaming of the query variables renames the printed
    answers alike.  It keeps the order of the names, since of two equal
    query variables the one whose name sorts first is left unbound."""
    source, text = case
    old = sorted(v.name for v in parse_query(text).variables)
    rename = dict(zip(old, sorted(names[:len(old)])))
    assert _printed(source, _substituted(text, rename)) == [
        [_substituted(answer, rename) for answer in run]
        for run in _printed(source, text)]


def test_answers_name_the_oldest_query_variable():
    assert _printed(SMALL, "p(Y, Z).") == [["Y = _\nZ = Y"]] * 2
    assert _printed(SMALL, "q(Z).") == [["Z = _"]] * 2
    assert _printed(SMALL, "p(_Foo, _).") == [["_Foo = _"]] * 2
    # an anonymous variable, printed _, never stands for another one
    assert _printed(SMALL, "r(_A, _B, _).") == [["_A = _\n_B = _A"]] * 2


# --- metamorphic: coclauses only add instances ---------------------------

@pytest.mark.parametrize("name, text", [
    ("lists", "member(X, L)."),
    ("lists", "append(X, Y, Z)."),
    ("lists", "all_pos(L)."),
    ("maxelem", "all_pos(L)."),
    ("maxelem", "maxElem(L, M)."),
    ("maxelem", "member(X, L)."),
    ("omega", "p(X)."),
])
def test_modes_cover_inductive_then_flexible_then_coinductive(name, text):
    prog = load_program(f"{name}.colp")
    u = Universe.from_text((PROGRAMS_DIR / f"{name}.univ").read_text("utf-8"))
    q = parse_query(text)
    covered = []
    for mode in ("inductive", "flexible", "coinductive"):
        outcome = run_query(prog, q, Config(mode=mode, budget=16))
        covered.append(set().union(*(
            universe_instantiations(a, q.variables, u)
            for a in outcome.answers)))
    assert covered[0] <= covered[1] <= covered[2]
