"""The four workloads: what each request runs and what its output must be.

A workload is built in two steps.  `specs(seed)` makes plain-text request
descriptions from the seed without touching colp.  `prepare(colp, specs)`
reads and parses every program, query and universe the requests use; the
benchmark times it as set-up, so parse cost never lands in request latency.

Every expected value is written here by hand or computed here in plain
Python (list splits, maxima, fixed-point identities over the returned
rules), never taken from colp's own output.
"""
from __future__ import annotations

import io
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from inputs import (list_text, numeral, regex_universes,
                    renamed_ground_programs)

PROGRAMS = "programs"

BUDGET_EXHAUSTED = "budget-exhausted"
COMPLETE = "complete"


@dataclass
class Reply:
    answers: list[str]
    first_answer_at: Optional[float] = None
    detail: object = None  # what else the check needs: status, model, code


@dataclass
class Request:
    kind: str
    run: Callable[[], Reply]
    check: Callable[[Reply], Optional[str]]  # None, or what was wrong


@dataclass
class Workload:
    specs: Callable[[int], list[dict]]
    warmup_kinds: tuple[str, ...]  # one request of each runs before timing
    files: Optional[Callable[[list[dict]], dict[str, str]]] = None


# --- specs -----------------------------------------------------------------

OMEGA_BUDGET = 40   # p(T) under dfs: one sweep, cost ~ budget^3
LTL_BUDGET = 16     # until on all-ones under iddfs
APPEND_LENGTH = 24  # append(X, Y, L): LENGTH + 1 answers
MEMBER_LENGTH = 40  # member(X, L) over three digits: most solutions repeat
# per pass; odd pass lengths put the median inside one request's samples
APPENDS, MEMBERS = 16, 17
# every regex universe of this size, once per pass; with the shipped pairs
# they form one block of similar requests around the median and the 75th
# percentile, below the one 7-element request
REGEX_SMALL_SIZE = 3
REGEX_MID_SIZE = 4

REGEX7 = "0\n1\n[]\n[0]\n[1]\n[0,1]\ncat(0,1)\n"

FIRST_ANSWERS = [
    ("bigstep.colp", "E = seq(skip, E), eval(E, div, []).",
     "E = seq(skip, E)"),
    ("bigstep.colp", "E = seq(E, E), eval(seq(out(1), E), div, [1]).",
     "E = seq(E, E)"),
    ("bigstep.colp", "E = seq(out(1), E), S = [1|S], eval(E, div, S).",
     "E = seq(out(1), E)\nS = [1|S]"),
    ("regex.colp", "W = [0|W], match(W, omega(0)).", "W = [0|W]"),
    ("regex.colp", "match([0,1], cat(0,1)).", "true"),
    ("maxelem.colp", "L = [1,2|L], maxElem(L, M).", "L = [1,2|L]\nM = 2"),
]

# Hand-derived models of the shipped program/universe pairs.
SHIPPED_SEMANTICS = [
    ("omega.colp", "omega.univ",
     {"Ind": [], "CoInd": ["p(omega)"], "Reg": ["p(omega)"]}),
    ("maxelem.colp", "maxelem.univ",
     {"Reg": ["all_pos(lt)", "all_pos(lw)", "maxElem(lt, 2)",
              "maxElem(lw, 2)", "member(1, lt)", "member(1, lw)",
              "member(2, lt)", "member(2, lw)"]}),
    ("lists.colp", "lists.univ",
     {"Reg": ["all_pos([1])", "all_pos([])",
              "append([0,1], [], [0,1])", "append([1], [], [1])",
              "append([], 0, 0)", "append([], 1, 1)",
              "append([], [0,1], [0,1])", "append([], [1], [1])",
              "append([], [], [])", "append([], lz, lz)",
              "member(0, [0,1])", "member(0, lz)", "member(1, [0,1])",
              "member(1, [1])"]}),
]

CHECK_CORPUS = [
    ("maxelem.colp", "maxelem.univ", "L = [1,2|L], maxElem(L, M).", "24", []),
    ("omega.colp", "omega.univ", "p(X).", "32", []),
    ("omega.colp", "omega.univ", "p(z).", "32", []),
    ("lists.colp", "lists.univ", "member(X, [0,1]).", "64", []),
    ("lists.colp", "lists.univ", "L = [0|L], member(1, L).", "64", []),
    ("lists.colp", "lists.univ", "L = [0|L], member(1, L).", "24",
     ["--mode", "coinductive"]),
    ("maxelem.colp", "maxelem.univ", "L = [1,2|L], all_pos(L).", "16", []),
]


def _query(kind, program, query, answers, status, **config):
    return {"type": "query", "kind": kind, "program": program,
            "query": query, "config": config, "answers": answers,
            "status": status}


def loop_specs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    # p(s^k(z)) costs more as k grows, so every pass has each k three
    # times and the seed only orders them
    depths = [i % 3 for i in range(9)]
    rng.shuffle(depths)
    out = []
    for i, depth in enumerate(depths):
        out.append(_query("omega-exhaust", "omega.colp",
                          f"p({numeral(depth)}).", [],
                          BUDGET_EXHAUSTED, strategy="dfs",
                          budget=OMEGA_BUDGET))
        ones = list_text([1] * rng.randint(1, 4), "W")
        out.append(_query("ltl-exhaust", "ltl.colp",
                          f"W = [1|W], sat({ones}, until(one, zero)).", [],
                          BUDGET_EXHAUSTED, budget=LTL_BUDGET))
        if i % 3 == 0:
            out.append(_query("omega-close", "omega.colp", "p(X).",
                              ["X = s(X)"], None, max_answers=1))
        elif i % 3 == 1:
            zeros = list_text([0] * rng.randint(1, 4), "W")
            out.append(_query("ltl-close", "ltl.colp",
                              f"W = [0|W], sat({zeros}, always(zero)).",
                              ["W = [0|W]"], None, max_answers=1))
        else:
            items = [rng.randint(1, 9) for _ in range(3)]
            cyc = list_text(items, "L")
            out.append(_query("maxelem-close", "maxelem.colp",
                              f"L = {cyc}, maxElem(L, M).",
                              [f"L = {cyc}\nM = {max(items)}"], None,
                              max_answers=1))
    return out


def answers_specs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(APPENDS):
        word = [rng.randint(0, 1) for _ in range(APPEND_LENGTH)]
        splits = [f"X = {list_text(word[:i])}\nY = {list_text(word[i:])}"
                  for i in range(len(word) + 1)]
        out.append(_query("append-all", "lists.colp",
                          f"append(X, Y, {list_text(word)}).", splits,
                          COMPLETE))
    for _ in range(MEMBERS):
        items = [rng.randint(0, 2) for _ in range(MEMBER_LENGTH)]
        out.append(_query("member-dups", "lists.colp",
                          f"member(X, {list_text(items)}).",
                          [f"X = {d}" for d in sorted(set(items))],
                          COMPLETE))
    for program, query, answer in FIRST_ANSWERS:
        out.append(_query("first-answer", program, query, [answer], None,
                          max_answers=1))
    return out


def semantics_specs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = [{"type": "semantics", "kind": "regex-7", "program": "regex.colp",
            "universe": REGEX7, "size": 7,
            "tables": {}, "contains": ["match([0,1], cat(0,1))"]}]
    for text in regex_universes(rng, REGEX_SMALL_SIZE):
        out.append({"type": "semantics", "kind": "regex-small",
                    "program": "regex.colp", "universe": text,
                    "size": REGEX_SMALL_SIZE, "tables": {}, "contains": []})
    # one mid-sized universe, a seeded pick among all shapes of its size
    out.append({"type": "semantics", "kind": "regex-mid",
                "program": "regex.colp",
                "universe": rng.choice(regex_universes(rng, REGEX_MID_SIZE)),
                "size": REGEX_MID_SIZE, "tables": {}, "contains": []})
    for _ in range(2):
        for program, universe, tables in SHIPPED_SEMANTICS:
            out.append({"type": "semantics", "kind": program.split(".")[0],
                        "program": program, "universe_file": universe,
                        "size": None, "tables": tables, "contains": []})
    return out


CHECK_DIR = ".perfbench-work/check"


def check_specs(seed: int) -> list[dict]:
    out = []
    programs = renamed_ground_programs(random.Random(seed))
    for i, (text, open_query, ground_query) in enumerate(programs):
        for kind, query in (("check-open", open_query),
                            ("check-ground", ground_query)):
            out.append({"type": "check", "kind": kind,
                        "program_path": f"{CHECK_DIR}/gen{i}.colp",
                        "program_text": text,
                        "universe_path": f"{CHECK_DIR}/abc.univ",
                        "argv": [query, "--budget", "20"]})
    for program, universe, query, budget, extra in CHECK_CORPUS:
        out.append({"type": "check", "kind": "check-corpus",
                    "program_path": f"{PROGRAMS}/{program}",
                    "universe_path": f"{PROGRAMS}/{universe}",
                    "argv": [query, "--budget", budget] + extra})
    return out


def check_files(specs: list[dict]) -> dict[str, str]:
    files = {f"{CHECK_DIR}/abc.univ": "a\nb\nc\n"}
    for s in specs:
        if "program_text" in s:
            files[s["program_path"]] = s["program_text"]
    return files


# Why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json next to its name.
WORKLOADS = {
    "loop": Workload(loop_specs, ("omega-close", "ltl-close",
                                  "maxelem-close")),
    "answers": Workload(answers_specs, ("member-dups", "first-answer")),
    "semantics": Workload(semantics_specs, ("omega", "maxelem")),
    "check": Workload(check_specs, ("check-open", "check-ground"),
                      check_files),
}


# --- prepared requests -------------------------------------------------------

def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class _Stamped(io.StringIO):
    """Output stream that remembers when it was first written to."""

    first_write_at: Optional[float] = None

    def write(self, s: str) -> int:
        if self.first_write_at is None:
            self.first_write_at = perf_counter()
        return super().write(s)


def prepare(colp, specs: list[dict]) -> list[Request]:
    """Parse every program, query and universe the requests use."""
    parser, semantics = colp.parser, colp.semantics
    programs: dict[str, object] = {}
    universes: dict[str, object] = {}

    def program_file(path):
        if path not in programs:
            programs[path] = parser.parse_program(_read(path), origin=path)
        return programs[path]

    def universe_file(path):
        if path not in universes:
            universes[path] = semantics.Universe.from_text(_read(path),
                                                           origin=path)
        return universes[path]

    requests = []
    for s in specs:
        if s["type"] == "query":
            prog = program_file(f"{PROGRAMS}/{s['program']}")
            requests.append(_query_request(colp, s, prog))
        elif s["type"] == "semantics":
            if "universe_file" in s:
                u = universe_file(f"{PROGRAMS}/{s['universe_file']}")
            else:
                u = semantics.Universe.from_text(s["universe"])
            prog = program_file(f"{PROGRAMS}/{s['program']}")
            requests.append(_semantics_request(colp, s, prog, u))
        else:
            # the CLI reads and parses these itself on every call; parsing
            # them once here rejects a malformed input before timing starts
            program_file(s["program_path"])
            universe_file(s["universe_path"])
            requests.append(_check_request(colp, s))
    return requests


def _query_request(colp, s: dict, prog) -> Request:
    engine, parser = colp.engine, colp.parser
    query = parser.parse_query(s["query"])
    cfg = engine.Config(**s["config"])
    expected = sorted(s["answers"])

    def run() -> Reply:
        outcome = engine.run_query(prog, query, cfg)
        reply = Reply([])
        for answer in outcome.answers:
            reply.answers.append(parser.print_answer(answer, query.variables))
            if reply.first_answer_at is None:
                reply.first_answer_at = perf_counter()
        reply.detail = outcome.exhaustion
        return reply

    def check(reply: Reply) -> Optional[str]:
        if sorted(reply.answers) != expected:
            return f"{s['query']} answered {reply.answers!r}"
        if reply.detail != s["status"]:
            return f"{s['query']} ended {reply.detail!r}, not {s['status']!r}"
        return None

    return Request(s["kind"], run, check)


def _consequences(rules, interp) -> frozenset:
    return frozenset(r.conclusion for r in rules if r.premises <= interp)


def _semantics_request(colp, s: dict, prog, u) -> Request:
    semantics = colp.semantics
    names = [u.display(i) for i in range(len(u))]

    def run() -> Reply:
        result = semantics.compute_semantics(prog, u)
        tables = {}
        first = None
        for label, atoms in (("Ind", result.ind), ("CoInd", result.coind),
                             ("Reg", result.reg)):
            tables[label] = sorted(u.atom_str(a) for a in atoms)
            if first is None:
                first = perf_counter()
        return Reply(tables["Reg"], first, (result, tables))

    def check(reply: Reply) -> Optional[str]:
        result, tables = reply.detail
        rules = result.rules
        if s["size"] is not None and len(u) != s["size"]:
            return f"universe has {len(u)} elements, not {s['size']}"
        if result.ind != _consequences(rules, result.ind):
            return "Ind is not a fixed point"
        if result.reg != result.ind_all & _consequences(rules, result.reg):
            return "Reg != ind_all & T(Reg)"
        if result.coind != result.base & _consequences(rules, result.coind):
            return "CoInd != base & T(CoInd)"
        if not result.ind <= result.reg <= result.coind:
            return "Ind <= Reg <= CoInd fails"
        for label, want in s["tables"].items():
            if tables[label] != want:
                return f"{label} was {tables[label]!r}"
        must = list(s["contains"])
        if s["program"] == "regex.colp" and "[]" in names:
            # facts of regex.colp: concat([], W, W) for every W
            must += [f"concat([], {n}, {n})" for n in names]
        for atom in must:
            if atom not in tables["Reg"]:
                return f"{atom} missing from Reg"
        return None

    return Request(s["kind"], run, check)


def _check_request(colp, s: dict) -> Request:
    argv = ["check", s["program_path"], s["universe_path"]] + s["argv"]

    def run() -> Reply:
        out, err = _Stamped(), io.StringIO()
        code = colp.cli.main(argv, stdin=io.StringIO(), stdout=out,
                             stderr=err)
        return Reply(out.getvalue().splitlines(), out.first_write_at,
                     (code, err.getvalue()))

    def check(reply: Reply) -> Optional[str]:
        code, err = reply.detail
        if (code, reply.answers) != (0, ["PASS"]):
            return f"check {argv[1:]}: exit {code}, {reply.answers!r} {err!r}"
        return None

    return Request(s["kind"], run, check)
