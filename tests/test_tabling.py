"""The engine's failure table for co-hyp re-derivations of ground atoms
against the untabled reference engine in conftest: the same answers, the
same exhaustion and the same diagnostics, with the renamings that a table
hit skips counted."""
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colp import engine
from colp.engine import (BUDGET_EXHAUSTED, MODES, PREFERENCES, STRATEGIES,
                         Config, run_query)
from colp.parser import parse_program, parse_query

import conftest
from conftest import answer_key_by_table, load_program, reference_run_query
from test_acceptance import random_ground_program
from test_indexing import QUERIES, assert_same_run, transcript


def untabled(prog, query, cfg, trace):
    return reference_run_query(prog, query, cfg, trace, tabled=False)


def outcome(run, prog, query_text, cfg):
    """Answer keys, exhaustion and diagnostics of an untraced run."""
    query = parse_query(query_text)
    got = run(prog, query, cfg, None)
    keys = [answer_key_by_table(s, query.variables) for s in got.answers]
    return keys, got.exhaustion, got.diagnostics


def assert_same_outcome(prog, query_text, cfg):
    """The traces differ wherever the table skips a re-derivation."""
    assert (outcome(run_query, prog, query_text, cfg)
            == outcome(untabled, prog, query_text, cfg))


COINDUCTIVE_QUERIES = [(name, text) for name, text in QUERIES
                       if load_program(name).coclauses]


@pytest.mark.parametrize("mode", MODES)
def test_tabled_runs_match_the_untabled_reference(mode):
    """Budget 9 in the default mode only.  Inductive mode makes no co-hyp
    move, and in coinductive mode a universal cofact re-derives every atom
    at once, so only re-derivations at the wall are tabled, as at budget 5
    already.  At 13 the untabled reference's sweeps of seq(E, E), which
    grow as about budget^5, take 20 s; the generated programs below go to
    budget 20."""
    budgets = (5, 9) if mode == "flexible" else (5,)
    for (name, text), strategy, prefer, budget in itertools.product(
            COINDUCTIVE_QUERIES, STRATEGIES, PREFERENCES, budgets):
        assert_same_outcome(load_program(name), text,
                            Config(mode=mode, strategy=strategy,
                                   prefer=prefer, budget=budget))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(MODES),
       st.sampled_from(STRATEGIES), st.sampled_from(PREFERENCES),
       st.sampled_from((5, 9, 13, 20)))
def test_tabled_runs_match_the_untabled_reference_on_generated_programs(
        rng, mode, strategy, prefer, budget):
    text, pred = random_ground_program(rng)
    assert_same_outcome(parse_program(text), f"{pred}(X).",
                        Config(mode=mode, strategy=strategy, prefer=prefer,
                               budget=budget))


def random_open_program(rng):
    """Clauses over f/1, g/2, lists, the constants a and b and the
    variables X, Y and Z: one or two for each of p/1, q/2 and the 0-ary r,
    at most one of them with two body atoms, and one or two coclauses,
    which may have a body atom.  A body atom may be = or \\=, which raises a
    type error unless its operands are ground.  Returns the program text
    and a query."""
    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(("X", "Y", "Z", "a", "b"))
        if roll < 0.5:
            return "[]"
        if roll < 0.7:
            return f"f({term(depth - 1)})"
        if roll < 0.85:
            return f"g({term(depth - 1)}, {term(depth - 1)})"
        return f"[{term(depth - 1)}|{term(depth - 1)}]"

    def call(pred):
        if pred == "p":
            return f"p({term(2)})"
        return f"q({term(1)}, {term(2)})" if pred == "q" else "r"

    def clause(head, neck, sizes):
        body = []
        for _ in range(rng.choice(sizes)):
            if rng.random() < 0.15:
                op = rng.choice(("=", "=", "\\="))
                body.append(f"{term(1)} {op} {term(2)}")
            else:
                body.append(call(rng.choice("ppqqr")))
        if not body:
            return f"{head}." if neck == ":-" else f"{head} :~."
        return f"{head} {neck} {', '.join(body)}."

    heads = ["p", "q", "r"] + rng.sample(("p", "q", "r"), rng.randint(0, 2))
    rng.shuffle(heads)
    wide = rng.randrange(len(heads))
    lines = [clause(call(pred), ":-",
                    (0, 1, 1, 2) if i == wide else (0, 1, 1))
             for i, pred in enumerate(heads)]
    lines += [clause(call(rng.choice("pqr")), ":~", (0, 1, 1))
              for _ in range(rng.randint(1, 2))]
    query = rng.choice(("p(X).", "q(X, Y).", "r.", "X = f(X), p(X).",
                        "X = [a|X], q(X, Y).", f"p({term(2)})."))
    return "".join(line + "\n" for line in dict.fromkeys(lines)), query


def test_tabled_runs_match_the_reference_on_generated_open_programs(
        monkeypatch):
    """100 generated non-ground programs, each under both strategies and
    both preferences at budgets 5 and 9: the engine's trace, answers,
    exhaustion and diagnostics are those of the reference, which tables
    finite failures too and scans the hypotheses at the wall.  No ground
    re-derivation of the reference fails finitely, so the engine's table
    keeps walls alone, and no state at its wall has a co-hyp move but no
    step, so the engine scans no hypothesis there."""
    runs = []

    class Recorded(conftest.ReferenceRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(conftest, "ReferenceRun", Recorded)
    rng = random.Random(2024)
    for _ in range(100):
        text, query_text = random_open_program(rng)
        prog = parse_program(text)
        for strategy, prefer, budget in itertools.product(
                STRATEGIES, PREFERENCES, (5, 9)):
            cfg = Config(strategy=strategy, prefer=prefer, budget=budget)
            assert (transcript(run_query, prog, query_text, cfg)
                    == transcript(reference_run_query, prog, query_text,
                                  cfg)), (text, query_text, cfg)
    failures = [f for run in runs for f in run.failures]
    assert failures and all(walled for *_, walled in failures)
    assert sum(run.walls for run in runs) and not any(
        run.cohyps_alone for run in runs)


UNTIL = "W = [1|W], sat(W, until(one, zero))."


def renamings(monkeypatch, prog, query_text, cfg):
    """fresh_rename calls in one run that finds no answer."""
    calls = itertools.count()
    rename = engine.fresh_rename

    def counted(code, fresh):
        next(calls)
        return rename(code, fresh)

    monkeypatch.setattr(engine, "fresh_rename", counted)
    assert list(run_query(prog, parse_query(query_text), cfg).answers) == []
    monkeypatch.setattr(engine, "fresh_rename", rename)
    return next(calls)


def test_ltl_until_renames_linearly_in_the_budget(monkeypatch):
    """Every close re-derives sat_exists(omega, 1^omega, zero), which hits
    the wall; once that is tabled, a dfs sweep renames about 4 clauses
    per unit of budget, where it renamed about budget^3 / 6."""
    prog = load_program("ltl.colp")
    counts = [renamings(monkeypatch, prog, UNTIL,
                        Config(strategy="dfs", budget=budget))
              for budget in (32, 64)]
    assert counts[1] <= 2.5 * counts[0]


def test_a_table_hit_is_traced_and_prunes_the_sweep():
    """Each TABLED line follows its COHYP line, one level deeper."""
    prog = load_program("ltl.colp")
    for strategy in STRATEGIES:
        trace, keys, exhaustion, _ = assert_same_run(
            prog, UNTIL, Config(strategy=strategy, budget=8))
        assert keys == [] and exhaustion == BUDGET_EXHAUSTED
        lines = trace.splitlines()
        hits = [i for i, line in enumerate(lines) if "TABLED" in line]
        assert hits
        for i in hits:
            cohyp, hit = lines[i - 1], lines[i]
            assert cohyp.lstrip().startswith("COHYP sat_exists(")
            assert hit.startswith(" " * (len(cohyp) - len(cohyp.lstrip()) + 2)
                                  + "TABLED sat_exists(")
            assert " exhausted within " in hit


def test_a_type_error_below_a_re_derivation_keeps_it_untabled():
    """The coclause's body raises a type error, naming a fresh Y, at each
    level of every re-derivation of the ground p(a) that has budget left
    for a step.  A later re-derivation of p(a) has less budget, so a
    tabled one would be skipped and its diagnostics lost.  Only those at
    the wall, with no budget left, raise none and are tabled."""
    prog = parse_program("p(X) :- p(X).\np(X) :~ Y is X + 1.\n")
    for strategy in STRATEGIES:
        cfg = Config(strategy=strategy, budget=9)
        trace, _, _, diagnostics = assert_same_run(prog, "p(a).", cfg)
        hits = [line.strip() for line in trace.splitlines()
                if "TABLED" in line]
        assert hits and all(line == "TABLED p(a) exhausted within 0"
                            for line in hits)
        assert len(diagnostics) > 9
        assert_same_outcome(prog, "p(a).", cfg)


def test_closing_queries_run_as_untabled():
    """Up to its first answer, a closing query's re-derivations succeed,
    so nothing is tabled and the trace is the untabled reference's."""
    for name, text in (("ltl.colp", "W = [0|W], sat(W, always(zero))."),
                       ("omega.colp", "p(X)."),
                       ("maxelem.colp", "L = [1,2|L], maxElem(L, M).")):
        prog = load_program(name)
        cfg = Config(max_answers=1, budget=64)
        got = transcript(run_query, prog, text, cfg)
        assert "TABLED" not in got[0] and len(got[1]) == 1
        assert got == transcript(untabled, prog, text, cfg)
