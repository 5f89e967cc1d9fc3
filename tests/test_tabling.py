"""The engine's failure table for co-hyp re-derivations of ground atoms
against the untabled reference engine in conftest: the same answers, the
same exhaustion and the same diagnostics, with the renamings that a table
hit skips counted."""
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colp import engine
from colp.engine import (BUDGET_EXHAUSTED, MODES, PREFERENCES, STRATEGIES,
                         Config, run_query)
from colp.parser import parse_program, parse_query

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
