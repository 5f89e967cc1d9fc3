"""CLI equivalence check: a fixed set of short commands run through
`cli.main` must reproduce a stored transcript of stdout, stderr and exit
code byte for byte, `#n` renaming stamps in traces and answers included.

A refactor that should not change behaviour keeps this test passing.  A
change that alters output on purpose regenerates the transcript with

    PYTHONPATH=src python tests/test_transcript.py

and its diff shows what changed.  Budgets stay small (maxelem under dfs at
the default budget runs for minutes).
"""
import io
import json
import os
from pathlib import Path

import pytest

from colp import cli

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"

P = "programs/"
REPL_SESSION = (
    "p(X).\n;\n;\n"
    ":budget 6\n:mode inductive\n:trace on\n"
    "p(X).\n"
    ":trace\n:mode coinductive\n"
    "p(z).\n\n"
    ":budget 0\n:mode weird\n"
    "p(X, .\n"
    "X is 1 + a.\n"
    ":quit\n")

# (argv, stdin)
COMMANDS = [
    # run
    (["run", P + "lists.colp", "member(X, [0,1]).", "--answers", "3"], ""),
    (["run", P + "lists.colp", "append(X, Y, [1,2]).", "--answers", "5",
      "--strategy", "dfs", "--budget", "24"], ""),
    (["run", P + "lists.colp", "X = [1|Y], Y = [1|Y]."], ""),
    (["run", P + "lists.colp", "member(3, [0,1])."], ""),
    (["run", P + "omega.colp", "p(z).", "--budget", "12"], ""),
    (["run", P + "omega.colp", "p(X).", "--prefer", "step", "--budget", "12",
      "--answers", "3"], ""),
    (["run", P + "omega.colp", "p(X).", "--mode", "inductive",
      "--budget", "8"], ""),
    (["run", P + "maxelem.colp", "L = [1,2|L], maxElem(L, M).",
      "--budget", "16", "--answers", "2"], ""),
    (["run", P + "maxelem.colp", "L = [1,2|L], maxElem(L, M).",
      "--budget", "24", "--strategy", "dfs", "--prefer", "step"], ""),
    (["run", P + "ltl.colp", "W = [0|W], sat(W, always(zero)).",
      "--budget", "12", "--trace"], ""),
    (["run", P + "bigstep.colp", "eval(seq(out(1), skip), R, S).",
      "--budget", "12", "--answers", "2", "--trace"], ""),
    (["run", P + "lists.colp", "X is 1 + a."], ""),
    (["run", P + "lists.colp", "X \\= 1."], ""),
    (["run", P + "lists.colp", "member(X, ."], ""),
    (["run", P + "missing.colp", "p."], ""),
    (["run", P + "lists.univ", "p."], ""),
    (["run", P + "lists.colp", "p.", "--budget", "0"], ""),
    # repl
    (["repl", P + "omega.colp", "--budget", "12"], REPL_SESSION),
    (["repl", P + "lists.colp"], "member(X, [0,1]).\n;\n"),
    # semantics
    (["semantics", P + "omega.colp", P + "omega.univ"], ""),
    (["semantics", P + "maxelem.colp", P + "maxelem.univ",
      "--mode", "inductive"], ""),
    (["semantics", P + "lists.colp", P + "lists.univ",
      "--mode", "coinductive"], ""),
    (["semantics", P + "lists.colp", P + "missing.univ"], ""),
    (["semantics", P + "lists.univ", P + "missing.univ"], ""),
    (["semantics", P + "lists.colp", P + "lists.colp"], ""),
    # check
    (["check", P + "omega.colp", P + "omega.univ", "p(X).",
      "--budget", "12"], ""),
    (["check", P + "omega.colp", P + "omega.univ", "p(X).",
      "--budget", "12", "--strategy", "dfs", "--prefer", "step"], ""),
    (["check", P + "lists.colp", P + "lists.univ", "member(X, [0]).",
      "--budget", "12"], ""),
    (["check", P + "maxelem.colp", P + "maxelem.univ", "all_pos(L).",
      "--budget", "24", "--strategy", "dfs", "--prefer", "step"], ""),
    (["check", P + "lists.colp", P + "lists.univ", "member(X, ."], ""),
    (["check", P + "missing.colp", P + "lists.univ", "member(X, ."], ""),
    (["check", P + "lists.colp", P + "missing.univ", "member(X, ."], ""),
    # traced runs that exhaust the budget
    (["run", P + "omega.colp", "p(z).", "--strategy", "dfs", "--budget", "10",
      "--trace"], ""),
    (["run", P + "ltl.colp", "W = [1|W], sat(W, until(one, zero)).",
      "--budget", "6", "--trace"], ""),
    (["run", P + "bigstep.colp", "E = seq(skip, E), eval(E, end, S).",
      "--budget", "10", "--trace"], ""),
    # semantics with some 200 escape warnings, in their order
    (["semantics", P + "regex.colp", P + "regex.univ"], ""),
    # equal query variables: the first answer is X = [], Y = _, Z = Y
    (["run", P + "lists.colp", "append(X, Y, Z).", "--answers", "3",
      "--budget", "12"], ""),
    # repeated answers are keyed by value ids and printed once
    (["run", P + "lists.colp", "member(X, [0,1,0,2,1]).", "--answers", "8"],
     ""),
    # a type error from arithmetic over an unminimised cyclic table
    (["run", P + "lists.colp", "X = 1 + (1 + X), Y is X."], ""),
    # one anonymous variable in two answer lines is named _1 in both
    (["run", P + "lists.colp", "X = f(_), Y = X."], ""),
    # a unary minus over a number prints as -(3), which reads back as it
    (["run", P + "lists.colp", "X = -Y, Y = 3."], ""),
    (["run", P + "lists.colp", "X = -Y, Y = -3, Z is X * 2."], ""),
    (["run", P + "lists.colp", "X = -(3), X = -3."], ""),
    # a warning for each called predicate that nothing defines
    (["run", P + "lists.colp", "member(X, [0]), q(X), r."], ""),
    # an omega regress and an ltl until loop at larger budgets
    (["run", P + "omega.colp", "p(z).", "--strategy", "dfs", "--budget", "40",
      "--trace"], ""),
    (["run", P + "ltl.colp", "W = [1|W], sat(W, until(one, zero)).",
      "--budget", "16", "--trace"], ""),
]


def transcribe(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return {"argv": argv, "stdin": stdin, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _stored():
    return {json.dumps([r["argv"], r["stdin"]]): r
            for r in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv, stdin", COMMANDS,
                         ids=[f"{i}-{argv[0]}"
                              for i, (argv, _) in enumerate(COMMANDS)])
def test_cli_output_matches_the_transcript(argv, stdin, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _stored()[json.dumps([argv, stdin])]
    assert transcribe(argv, stdin) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [transcribe(argv, stdin) for argv, stdin in COMMANDS]
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n",
                          encoding="utf-8")
