"""Release gate: one test per advertised behavior, one PASS/FAIL line each.

Run with -s (or -v) to see the lines; every criterion must finish in
under five seconds, and the reporter treats overruns as failures.
"""

import io
import random
import time

from colp import cli
from colp.engine import BUDGET_EXHAUSTED, Config, run_query
from colp.equations import solve
from colp.parser import parse_query, print_answer
from colp.semantics import (GroundRule, greatest_consistent_within,
                            immediate_consequences, least_model)
from colp.terms import Compound, Var

from conftest import (PROGRAMS_DIR, LoopProver, eq_vars, load_program,
                      regular_by_enumeration, value)

MAXELEM = str(PROGRAMS_DIR / "maxelem.colp")
MAXELEM_U = str(PROGRAMS_DIR / "maxelem.univ")
OMEGA = str(PROGRAMS_DIR / "omega.colp")
OMEGA_U = str(PROGRAMS_DIR / "omega.univ")
LISTS = str(PROGRAMS_DIR / "lists.colp")
LISTS_U = str(PROGRAMS_DIR / "lists.univ")


def report(num, label, failures, t0):
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures = failures + [f"took {elapsed:.1f}s (limit 5s)"]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({label}): {status} [{elapsed:.2f}s]")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def first_answer(prog, query_text, **cfg):
    q = parse_query(query_text)
    out = run_query(prog, q, Config(max_answers=1, **cfg))
    for ans in out.answers:
        return print_answer(ans, q.variables)
    return None


def all_answers(prog, query_text, **cfg):
    q = parse_query(query_text)
    out = run_query(prog, q, Config(**cfg))
    got = [print_answer(a, q.variables) for a in out.answers]
    return got, out.exhaustion


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_max_of_cyclic_list():
    t0 = time.perf_counter()
    bad = []
    got = first_answer(load_program("maxelem.colp"),
                       "?- L = [1,2|L], maxElem(L, M).")
    if got != "L = [1,2|L]\nM = 2":
        bad.append(f"first answer was {got!r}")
    report(1, "max of a cyclic list", bad, t0)


def test_criterion_2_successor_loop():
    t0 = time.perf_counter()
    bad = []
    omega = load_program("omega.colp")

    got = first_answer(omega, "?- p(X).", budget=100)
    if got != "X = s(X)":
        bad.append(f"first answer at budget 100 was {got!r}")

    # full enumeration: everything collapses to the one cyclic value
    q = parse_query("?- p(X).")
    x_var = Var("X", 0)
    cycle = value(solve([(x_var, Compound("s", (x_var,)))]), x_var)
    seen = []
    for ans in run_query(omega, q, Config(budget=32)).answers:
        seen.append(print_answer(ans, q.variables))
        if value(ans, q.variables[0]) != cycle:
            bad.append(f"answer not the successor cycle: {seen[-1]!r}")
    if seen != ["X = s(X)"]:
        bad.append(f"enumeration gave {seen!r}")

    got, status = all_answers(omega, "?- p(z).", budget=100)
    if got:
        bad.append(f"p(z) unexpectedly answered {got!r}")
    if status != BUDGET_EXHAUSTED:  # no deepening level ever finished
        bad.append(f"p(z) ended with {status!r}")

    code, out, _ = run_cli(["semantics", OMEGA, OMEGA_U])
    if code != 0 or "Reg: p(omega)" not in out.splitlines():
        bad.append(f"semantics said {out!r}")
    report(2, "successor loop and its one regular answer", bad, t0)


def test_criterion_3_mode_subsumption():
    t0 = time.perf_counter()
    bad = []
    lists = load_program("lists.colp")

    for mode in ("flexible", "inductive", "coinductive"):
        got = first_answer(lists, "?- member(1, [0,1]).", mode=mode)
        if got != "true":
            bad.append(f"ground member in {mode} mode gave {got!r}")

    cyc = "?- L = [0|L], member(1, L)."
    got = first_answer(lists, cyc, mode="coinductive", budget=64)
    if got != "L = [0|L]":
        bad.append(f"coinductive member on the cycle gave {got!r}")
    for mode in ("flexible", "inductive"):
        got, status = all_answers(lists, cyc, mode=mode, budget=64)
        if got or status != BUDGET_EXHAUSTED:
            bad.append(f"{mode} member on the cycle gave {got!r} ({status})")

    got = first_answer(load_program("maxelem.colp"),
                       "?- L = [1,2|L], all_pos(L).")
    if got != "L = [1,2|L]":
        bad.append(f"all_pos on the cycle gave {got!r}")
    report(3, "inductive/coinductive/flexible mode split", bad, t0)


def test_criterion_4_temporal_formulas():
    t0 = time.perf_counter()
    bad = []
    ltl = load_program("ltl.colp")
    positive = [
        ("?- W = [0|W], sat(W, always(zero)).", "W = [0|W]"),
        ("?- W = [1|W], sat([1,1,0|W], until(one, zero)).", "W = [1|W]"),
        ("?- W = [0|W], sat([1,1|W], until(one, always(zero))).",
         "W = [0|W]"),
    ]
    for query, want in positive:
        got = first_answer(ltl, query)
        if got != want:
            bad.append(f"{query} gave {got!r}")
    got, status = all_answers(ltl, "?- W = [1|W], sat(W, until(one, zero)).",
                              budget=50)
    if got or status != BUDGET_EXHAUSTED:
        bad.append(f"until on all-ones gave {got!r} ({status})")
    report(4, "temporal formulas over infinite words", bad, t0)


def test_criterion_5_divergent_evaluation():
    t0 = time.perf_counter()
    bad = []
    prog = load_program("bigstep.colp")
    cases = [
        ("?- E = seq(skip, E), eval(E, div, []).", "E = seq(skip, E)"),
        ("?- E = seq(E, E), eval(seq(out(1), E), div, [1]).", "E = seq(E, E)"),
        ("?- E = seq(out(1), E), S = [1|S], eval(E, div, S).",
         "E = seq(out(1), E)\nS = [1|S]"),
    ]
    for query, want in cases:
        got = first_answer(prog, query)
        if got != want:
            bad.append(f"{query} gave {got!r}")
    report(5, "diverging evaluations with infinite output", bad, t0)


def test_criterion_6_omega_regular_expressions():
    t0 = time.perf_counter()
    bad = []
    prog = load_program("regex.colp")
    got = first_answer(prog, "?- W = [0|W], match(W, omega(0)).")
    if got != "W = [0|W]":
        bad.append(f"omega(0) gave {got!r}")
    got = first_answer(prog, "?- match([0,1], cat(0,1)).")
    if got != "true":
        bad.append(f"cat(0,1) gave {got!r}")
    report(6, "omega-regular expression matching", bad, t0)


def random_rules(rng, atoms):
    out = set()
    for _ in range(rng.randint(1, 2 * len(atoms))):
        concl = rng.choice(atoms)
        k = rng.choice((0, 0, 1, 1, 2))
        out.add(GroundRule(frozenset(rng.sample(atoms, k)), concl))
    return frozenset(out)


def test_criterion_7_oracle_properties():
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(20260817)
    trials = 220
    for trial in range(trials):
        per = rng.randint(5, 6) if trial % 8 == 0 else rng.randint(2, 4)
        atoms = [(p, (i,)) for p in ("p", "q") for i in range(per)]
        rules = random_rules(rng, atoms)
        coclause_rules = random_rules(rng, atoms)
        base = frozenset(atoms)

        def flaw(msg):
            bad.append(f"trial {trial}: {msg}")

        small = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        large = small | frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        if not immediate_consequences(rules, small) <= \
                immediate_consequences(rules, large):
            flaw("consequence operator is not monotone")

        lfp = least_model(rules)
        if immediate_consequences(rules, lfp) != lfp:
            flaw("least model is not a fixed point")

        coind = greatest_consistent_within(rules, base)
        if coind != base & immediate_consequences(rules, coind):
            flaw("greatest comodel is not a fixed point")

        ind_all = least_model(rules | coclause_rules)
        reg = greatest_consistent_within(rules, ind_all)
        if reg != ind_all & immediate_consequences(rules, reg):
            flaw("regular model is not a fixed point")
        if reg != regular_by_enumeration(rules, ind_all):
            flaw("fixed-point and brute-force regular models differ")

        prover = LoopProver(rules, ind_all)
        if any(prover.derivable(frozenset(), a) != (a in reg) for a in atoms):
            flaw("cycle prover disagrees with the regular model")

        if greatest_consistent_within(rules, lfp) != lfp:
            flaw("without coclauses the regular model must equal the least")
        if len(bad) > 5:
            break
    report(7, f"oracle fixed-point properties ({trials} programs)", bad, t0)


def random_ground_program(rng):
    """Layered ground rules, one optional self-loop whose head has no other
    clause, and at least one coclause; constants only, so every instance
    stays inside the {a, b, c} universe."""
    atoms = [f"{p}({c})" for p in ("p", "q") for c in ("a", "b", "c")]
    rng.shuffle(atoms)
    lines = []
    seen = set()

    def emit(line):
        if line not in seen:
            seen.add(line)
            lines.append(line)

    defined = set()
    wide_bodies = 2
    for i, atom in enumerate(atoms):
        later = atoms[i + 1:]
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.5 or not later:
            emit(f"{atom}.")
            defined.add(atom)
            continue
        for _ in range(rng.choice((1, 1, 2))):
            k = 1
            if wide_bodies and len(later) >= 2 and rng.random() < 0.3:
                k = 2
                wide_bodies -= 1
            emit(f"{atom} :- {', '.join(rng.sample(later, k))}.")
            defined.add(atom)
    spare = [a for a in atoms if a not in defined]
    if spare and rng.random() < 0.8:
        loop = rng.choice(spare)
        emit(f"{loop} :- {loop}.")
    for a in rng.sample(atoms, rng.randint(1, 3)):
        emit(f"{a} :~.")
    return "\n".join(lines) + "\n", rng.choice(("p", "q"))


def test_criterion_8_engine_matches_oracle(tmp_path):
    t0 = time.perf_counter()
    bad = []
    fixed = [
        (MAXELEM, MAXELEM_U, "L = [1,2|L], maxElem(L, M).", "24", []),
        (OMEGA, OMEGA_U, "p(X).", "32", []),
        (OMEGA, OMEGA_U, "p(z).", "32", []),
        (LISTS, LISTS_U, "member(X, [0,1]).", "64", []),
        (LISTS, LISTS_U, "L = [0|L], member(1, L).", "64", []),
        (LISTS, LISTS_U, "L = [0|L], member(1, L).", "24",
         ["--mode", "coinductive"]),
        (MAXELEM, MAXELEM_U, "L = [1,2|L], all_pos(L).", "16", []),
    ]
    for prog, univ, query, budget, extra in fixed:
        code, out, _ = run_cli(
            ["check", prog, univ, query, "--budget", budget] + extra)
        if code != 0 or not out.endswith("PASS\n"):
            bad.append(f"{query!r} {extra}: exit {code}, {out!r}")

    upath = tmp_path / "abc.univ"
    upath.write_text("a\nb\nc\n", "utf-8")
    rng = random.Random(8254)
    runs = 60
    for i in range(runs):
        text, pred = random_ground_program(rng)
        ppath = tmp_path / f"gen{i}.colp"
        ppath.write_text(text, "utf-8")
        code, out, _ = run_cli(["check", str(ppath), str(upath),
                                f"{pred}(X).", "--budget", "20"])
        if (code, out) != (0, "PASS\n"):
            bad.append(f"generated program {i} ({pred}/1): "
                       f"exit {code}, {out!r}\n{text}")
        if len(bad) > 3:
            break
    report(8, f"engine/oracle cross-checks ({runs} generated programs)",
           bad, t0)


def test_criterion_9_answers_carry_their_equations():
    t0 = time.perf_counter()
    cases = [
        ("maxelem.colp", "?- L = [1,2|L], maxElem(L, M).", {}),
        ("maxelem.colp", "?- L = [1,2|L], all_pos(L).", {}),
        ("omega.colp", "?- p(X).", {"budget": 32, "max_answers": None}),
        ("lists.colp", "?- member(X, [0,1]).", {"max_answers": None}),
        ("lists.colp", "?- L = [0|L], member(1, L).",
         {"mode": "coinductive"}),
        ("ltl.colp", "?- W = [0|W], sat(W, always(zero)).", {}),
        ("ltl.colp", "?- W = [1|W], sat([1,1,0|W], until(one, zero)).", {}),
        ("ltl.colp", "?- W = [0|W], sat([1,1|W], until(one, always(zero))).",
         {}),
        ("bigstep.colp", "?- E = seq(skip, E), eval(E, div, []).", {}),
        ("bigstep.colp", "?- E = seq(E, E), eval(seq(out(1), E), div, [1]).",
         {}),
        ("bigstep.colp", "?- E = seq(out(1), E), S = [1|S], eval(E, div, S).",
         {}),
        ("regex.colp", "?- W = [0|W], match(W, omega(0)).", {}),
        ("regex.colp", "?- match([0,1], cat(0,1)).", {}),
    ]
    bad = []
    emitted = 0
    for name, query_text, overrides in cases:
        prog = load_program(name)
        q = parse_query(query_text)
        kw = {"max_answers": 1}
        kw.update(overrides)
        answered = False
        for ans in run_query(prog, q, Config(**kw)).answers:
            answered = True
            emitted += 1
            # the input equations survive into the answer
            for goal in q.atoms:
                if goal.pred != "=" or len(goal.args) != 2:
                    continue
                lhs, rhs = goal.args
                if value(ans, lhs) != value(ans, rhs):
                    bad.append(f"{query_text}: query equation dropped")
            # and the answer covers every query variable
            if not set(q.variables) <= eq_vars(ans):
                bad.append(f"{query_text}: unconstrained query variable")
        if not answered:
            bad.append(f"{query_text}: no answer emitted")
    if emitted < len(cases):
        bad.append(f"only {emitted} answers across {len(cases)} runs")
    report(9, "answers extend the query's equations", bad, t0)


def test_criterion_10_long_regress_within_the_time_limit():
    """One dfs sweep of omega's p(z) meets a growing ground hypothesis
    list at every step; it must exhaust budget 200 inside the limit."""
    t0 = time.perf_counter()
    bad = []
    got, status = all_answers(load_program("omega.colp"), "?- p(z).",
                              strategy="dfs", budget=200)
    if got or status != BUDGET_EXHAUSTED:
        bad.append(f"p(z) gave {got!r}, {status!r}")
    report(10, "omega regress under dfs at budget 200", bad, t0)
