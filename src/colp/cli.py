"""Command-line front end: batch queries, a small REPL, semantics dumps
over finite universes, and engine-vs-oracle cross checks."""

from __future__ import annotations

import argparse
import functools
import sys
from typing import IO, Optional

from .engine import (BUDGET_EXHAUSTED, COMPLETE, FINITELY_FAILED, MODES,
                     PREFERENCES, STRATEGIES, Config, Outcome, run_query)
from .parser import (ParseIssue, SyntaxErrors, parse_program, parse_query,
                     print_answer)
from .semantics import (Universe, compute_semantics, regular_answers,
                        universe_instantiations)
from .terms import Atom, Clause, signatures

STATUS_LINES = {
    COMPLETE: "no (more) answers",
    FINITELY_FAILED: "failed",
    BUDGET_EXHAUSTED: "budget exhausted",
}

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_EXHAUSTED = 2
EXIT_ERROR = 3


def _read(path: str) -> str:
    """The file's text as a text-mode UTF-8 read gives it, or SyntaxErrors
    at its first byte that is not UTF-8, found by decoding it in one piece."""
    with open(path, "rb") as fh:
        data = fh.read()
    bad = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        text, bad = data[:e.start].decode("utf-8"), data[e.start]
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    if bad is None:
        return text
    line, col = text.count("\n") + 1, len(text) - text.rfind("\n")
    raise SyntaxErrors(path, [ParseIssue(
        f"byte {bad:#04x} is not UTF-8", line, col)])


def _load(err: IO[str], *files, query: Optional[str] = None) -> Optional[list]:
    """Each (parse, path) in turn as parse(text, origin=path) on the file's
    text, then the query text if given, in argv order; or None after
    reporting why the first of them could not be read or parsed."""
    loaded = []
    try:
        for parse, path in files:
            loaded.append(parse(_read(path), origin=path))
        if query is not None:
            loaded.append(parse_query(query))
        return loaded
    except OSError as e:
        err.write(f"cannot read {path}: {e.strerror}\n")
    except SyntaxErrors as exc:
        err.write("".join(f"{exc.origin}:{i}\n" for i in exc.issues))
    return None


def _run_query(args: argparse.Namespace, prog, query,
               max_answers: Optional[int], err: IO[str]) -> Outcome:
    """run_query under the flags, tracing to err under --trace, after a
    warning for each predicate that the query or a clause body calls and
    no clause or coclause defines."""
    written = prog.clauses + prog.coclauses
    defined = {(c.head.pred, len(c.head.args)) for c in written}
    # the query is the body of a clause whose head, a builtin, is skipped
    for pred, n in signatures((Clause(Atom("true"), query.atoms), *written)):
        if (pred, n) not in defined:
            err.write(f"warning: {pred}/{n} is undefined\n")
    config = Config(mode=args.mode, strategy=args.strategy, budget=args.budget,
                    max_answers=max_answers, prefer=args.prefer)
    return run_query(prog, query, config, trace=err if args.trace else None)


def _flush_diagnostics(diagnostics: list[str], err: IO[str]) -> None:
    for line in diagnostics:
        err.write(line + "\n")


def _print_answers(outcome, query, more, out: IO[str], err: IO[str]) -> int:
    """Print each answer until more() says stop, then the diagnostics, then
    the status line if enumeration ended; the number of answers printed.
    A stop leaves the answers suspended, with no status to print."""
    shown = 0
    for answer in outcome.answers:
        out.write(print_answer(answer, query.variables) + "\n")
        shown += 1
        if not more():
            break
    _flush_diagnostics(outcome.diagnostics, err)
    if outcome.exhaustion is not None:
        out.write(STATUS_LINES[outcome.exhaustion] + "\n")
    return shown


def cmd_run(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    loaded = _load(err, (parse_program, args.program), query=args.query)
    if loaded is None:
        return EXIT_ERROR
    prog, query = loaded
    cap = args.answers if args.answers is not None else 1
    outcome = _run_query(args, prog, query, cap, err)
    if _print_answers(outcome, query, lambda: True, out, err):
        return EXIT_OK
    if outcome.diagnostics:
        return EXIT_ERROR
    failed = outcome.exhaustion == FINITELY_FAILED
    return EXIT_FAILED if failed else EXIT_EXHAUSTED


def _budget_value(text: str) -> Optional[int]:
    """A positive decimal integer, or None."""
    if not text.isdecimal():
        return None
    try:
        value = int(text)
    except ValueError:  # beyond int()'s digit limit
        return None
    return value if value >= 1 else None


def cmd_repl(args: argparse.Namespace, inp: IO[str], out: IO[str],
             err: IO[str]) -> int:
    loaded = _load(err, (parse_program, args.program))
    if loaded is None:
        return EXIT_ERROR
    [prog] = loaded

    def directive(line: str) -> None:
        parts = line.split()
        name, rest = parts[0], parts[1:]
        if name == ":mode" and rest and rest[0] in MODES:
            args.mode = rest[0]
        elif name == ":budget" and rest and (value := _budget_value(rest[0])):
            args.budget = value
        elif name == ":trace":
            args.trace = rest[0] == "on" if rest else not args.trace
        else:
            err.write(f"unknown directive: {line}\n")

    while True:
        out.write("?- ")
        out.flush()
        line = inp.readline()
        if not line:
            out.write("\n")
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return EXIT_OK
        if line.startswith(":"):
            directive(line)
            continue
        loaded = _load(err, query=line)
        if loaded is None:
            continue
        [query] = loaded
        outcome = _run_query(args, prog, query, None, err)
        _print_answers(outcome, query,
                       lambda: inp.readline().strip() == ";", out, err)


def cmd_semantics(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    loaded = _load(err, (parse_program, args.program),
                   (Universe.from_text, args.universe))
    if loaded is None:
        return EXIT_ERROR
    prog, universe = loaded
    result = compute_semantics(prog, universe, args.mode)
    for label, atoms in (("Ind", result.ind), ("CoInd", result.coind),
                         ("Reg", result.reg)):
        names = sorted(universe.atom_str(a) for a in atoms)
        out.write(f"{label}: " + (", ".join(names) if names else "(empty)")
                  + "\n")
    for warning in result.warnings:
        err.write("warning: " + warning + "\n")
    return EXIT_OK


def _assignment_str(indexes: tuple[int, ...], query, universe: Universe) -> str:
    if not query.variables:
        return "true"
    pairs = zip(query.variables, indexes)
    return ", ".join(f"{v.display()} = {universe.display(i)}" for v, i in pairs)


def cmd_check(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    loaded = _load(err, (parse_program, args.program),
                   (Universe.from_text, args.universe), query=args.query)
    if loaded is None:
        return EXIT_ERROR
    prog, universe, query = loaded
    result = compute_semantics(prog, universe, args.mode)
    expected = regular_answers(query, universe, result.reg)

    cap = args.answers if args.answers is not None else 16
    outcome = _run_query(args, prog, query, cap, err)
    covered: set = set()
    unsound: list[str] = []
    unchecked: dict[str, None] = {}
    judged = None  # the instances the oracle judges, found on first need
    for answer in outcome.answers:
        insts = universe_instantiations(answer, query.variables, universe)
        covered |= insts
        for bad in sorted(insts - expected):
            if judged is None:
                judged = regular_answers(query, universe, None)
            text = _assignment_str(bad, query, universe)
            if bad not in judged:
                unchecked[f"not checked: {text} leaves the universe"] = None
                continue
            rendered = print_answer(answer, query.variables).replace("\n", ", ")
            unsound.append(
                f"unsound: {rendered} instantiates to {text} outside Reg")
    missing = [f"missing: {_assignment_str(sigma, query, universe)}"
               for sigma in sorted(expected - covered)]
    _flush_diagnostics(outcome.diagnostics + list(unchecked), err)
    for line in unsound + missing:
        out.write(line + "\n")
    if unsound or missing:
        if outcome.exhaustion == BUDGET_EXHAUSTED:
            out.write("note: enumeration was budget exhausted\n")
        elif outcome.exhaustion is None:  # cut off by max_answers
            out.write(f"note: enumeration stopped at the answer cap of {cap}\n")
        out.write("FAIL\n")
        return EXIT_FAILED
    out.write("PASS\n")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it as it is
def build_arg_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mode", choices=sorted(MODES), default="flexible")
    shared.add_argument("--strategy", choices=sorted(STRATEGIES),
                        default="iddfs")
    shared.add_argument("--budget", type=int, default=1000)
    shared.add_argument("--answers", type=int, default=None,
                        help="answer cap (default: 1 for run, 16 for check)")
    shared.add_argument("--prefer", choices=sorted(PREFERENCES),
                        default="cohyp")
    shared.add_argument("--trace", action="store_true")

    top = argparse.ArgumentParser(
        prog="colp",
        description="Logic programming with coclauses over rational terms.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", parents=[shared],
                           help="answer one query against a program")
    p_run.add_argument("program")
    p_run.add_argument("query")

    p_repl = sub.add_parser("repl", parents=[shared],
                            help="interactive query loop")
    p_repl.add_argument("program")

    p_sem = sub.add_parser("semantics", parents=[shared],
                           help="inductive/coinductive/regular models over a "
                                "finite universe")
    p_sem.add_argument("program")
    p_sem.add_argument("universe")

    p_check = sub.add_parser("check", parents=[shared],
                             help="cross-check engine answers against the "
                                  "ground-semantics oracle")
    p_check.add_argument("program")
    p_check.add_argument("universe")
    p_check.add_argument("query")
    return top


def main(argv: Optional[list[str]] = None, stdin: Optional[IO[str]] = None,
         stdout: Optional[IO[str]] = None,
         stderr: Optional[IO[str]] = None) -> int:
    inp = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    if args.budget < 1:
        err.write("--budget must be at least 1\n")
        return EXIT_ERROR
    if args.answers is not None and args.answers < 1:
        err.write("--answers must be at least 1\n")
        return EXIT_ERROR
    try:
        if args.subcommand == "run":
            return cmd_run(args, out, err)
        if args.subcommand == "repl":
            return cmd_repl(args, inp, out, err)
        if args.subcommand == "semantics":
            return cmd_semantics(args, out, err)
        return cmd_check(args, out, err)
    except Exception as exc:  # a fault in colp, reported without a traceback
        message = " ".join(str(exc).split())
        err.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_ERROR


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
