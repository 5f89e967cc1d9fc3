"""Growth report: how colp's cost grows with the search budget and the
universe size, with the fitted power-law exponent of each curve.

Run from the root of a colp checkout; name curves to run only those:

    python3 perfbench/growth.py                 # omega, ltl and regex
    python3 perfbench/growth.py omega regex

  omega  p(z) on omega.colp, one dfs sweep, budget 50 .. 400
  ltl    until(one, zero) on the all-ones word, iddfs, budget 25 .. 200
  regex  regex.colp semantics over a growing universe, 4 .. 7 elements

Each point is one run, timed in wall seconds and in reference seconds
(speed.py).  The exponent is the least-squares slope of log(reference
seconds) against log(size).  Not part of the gated benchmark: the largest
points take minutes.
"""
from __future__ import annotations

import json
import math
import os
import platform
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402

REGEX_UNIVERSE = ["0", "1", "[]", "[1]", "[0]", "[0,1]", "cat(0,1)"]


def _load(colp, name):
    path = f"programs/{name}"
    with open(path, encoding="utf-8") as fh:
        return colp.parse_program(fh.read(), origin=path)


def _query_runner(colp, program, query, **config):
    prog = _load(colp, program)
    parsed = colp.parse_query(query)

    def run(budget):
        outcome = colp.run_query(prog, parsed,
                                 colp.Config(budget=budget, **config))
        answers = list(outcome.answers)
        if answers or outcome.exhaustion != "budget-exhausted":
            raise RuntimeError(f"{query} at budget {budget} did not exhaust")
    return run


def _regex_runner(colp):
    prog = _load(colp, "regex.colp")

    def run(size):
        text = "\n".join(REGEX_UNIVERSE[:size]) + "\n"
        colp.compute_semantics(prog, colp.Universe.from_text(text))
    return run


def curves(colp) -> dict:
    return {
        "omega": ("budget", (50, 100, 200, 400),
                  _query_runner(colp, "omega.colp", "p(z).", strategy="dfs")),
        "ltl": ("budget", (25, 50, 100, 200),
                _query_runner(colp, "ltl.colp",
                              "W = [1|W], sat(W, until(one, zero)).")),
        "regex": ("universe", (4, 5, 6, 7), _regex_runner(colp)),
    }


def slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join("src", "colp", "__init__.py")):
        print("no colp sources under ./src; run from a colp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import colp

    table = curves(colp)
    names = argv or list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown curve(s) {unknown}; choose from {list(table)}",
              file=sys.stderr)
        return 2
    print(f"colp growth report: python {platform.python_version()}",
          flush=True)
    out = {}
    with SpeedProbe() as probe:
        for name in names:
            axis, sizes, run = table[name]
            points = []
            for size in sizes:
                stolen, start = probe.stolen, perf_counter()
                run(size)
                end = perf_counter()
                stolen = probe.stolen - stolen
                ref = probe.normalize(start, end, stolen)
                points.append([size, end - start - stolen, ref])
                print(f"  {name} {axis} {size:>4}  {points[-1][1]:9.3f} s "
                      f"wall  {ref:9.3f} s ref", flush=True)
            exponent = slope([p[0] for p in points], [p[2] for p in points])
            print(f"{name}: time ~ {axis}^{exponent:.2f}", flush=True)
            out[name] = {"axis": axis, "exponent": exponent,
                         "points": points}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
