"""Span tracing of colp from the outside.

`install(tracer)` wraps public functions of each `colp` module by rebinding
the name in every loaded `colp.*` module that holds it (the defining module
included, so internal calls are seen too).  The program's source is not
touched.  A wrapped call records a span (id, name, start, end, parent id,
request id); single-threaded code nests spans strictly, so a span's self
time is its duration minus the summed durations of its direct children.

Spans stay in memory, up to `SPAN_CAP` of them, and are written out once at
the end of the run.  Counts and self times are aggregated for every call,
also past the cap, so per-layer metrics never depend on the cap.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.request = 0
        self._open: list[list] = []  # [span id, child seconds, start]
        self._next_id = 1

    def enter(self) -> list:
        frame = [self._next_id, 0.0, perf_counter()]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def leave(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._open.pop()
        span_id, children, start = frame
        duration = end - start
        self.self_s[name] += duration - children
        self.counts[name] += 1
        parent = self._open[-1][0] if self._open else 0
        if self._open:
            self._open[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent,
                               self.request))
        else:
            self.dropped += 1

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that every call is one span; on_result(result) may add
        counts from the value the call returned."""
        def traced(*args, **kwargs):
            frame = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, frame)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn, on_result=None):
        """Wrap fn with a call count only, for calls too small or too many
        to be worth a span; their time stays in the caller's self time."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def drain(self, name: str, iterator, on_item=None):
        """Iterate lazily, timing each step as a span of its own."""
        while True:
            frame = self.enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.leave(name, frame)
            if on_item is not None:
                on_item(item)
            yield item

    def dump(self, path: str, header: dict) -> None:
        record = dict(header)
        record["span_fields"] = ["id", "name", "start", "end", "parent",
                                 "request"]
        record["spans"] = self.spans
        record["spans_dropped"] = self.dropped
        record["counts"] = dict(sorted(self.counts.items()))
        record["self_s"] = dict(sorted(self.self_s.items()))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _rebind(name: str, original, wrapper) -> None:
    """Point every colp module's `name` that is `original` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "colp" and mod is not None \
                and getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap colp's layer boundaries.  Span names are `<layer>.<what>`; the
    layer is the colp module that defines the function."""
    import colp.cli as cli
    import colp.engine as engine
    import colp.equations as equations
    import colp.parser as parser
    import colp.semantics as semantics
    import colp.terms as terms
    t = tracer
    c = t.counts

    # A function a later version of colp no longer has is left out, and its
    # metrics read 0, so that the benchmark still runs across refactors.
    def spanned(module, name, span_name, on_result=None):
        original = getattr(module, name, None)
        if original is not None:
            _rebind(name, original, t.span(span_name, original, on_result))

    def counted(module, name, count_name, on_result=None):
        original = getattr(module, name, None)
        if original is not None:
            _rebind(name, original,
                    t.counted(count_name, original, on_result))

    spanned(cli, "main", "cli.main")
    for fn in ("parse_program", "parse_query", "parse_term_text"):
        spanned(parser, fn, "parser.parse")
    spanned(parser, "print_answer", "parser.print_answer")
    spanned(terms, "fresh_rename", "terms.fresh_rename")

    def solve_result(result):
        if result is None:
            c["equations.solve.fail"] += 1
    spanned(equations, "solve", "equations.solve", solve_result)
    for fn in ("rational_value", "canonical_key", "compose"):
        spanned(equations, fn, f"equations.{fn}")

    def run_query_result(outcome):
        outcome.answers = t.drain(
            "engine.drain", outcome.answers,
            lambda _: c.update(("engine.answers_emitted",)))
    spanned(engine, "run_query", "engine.run_query", run_query_result)
    counted(engine, "eval_builtin", "engine.eval_builtin")
    # one call per solution a sweep derives, before deduplication
    counted(engine, "_answer_key", "engine.solutions_derived")

    universe = semantics.Universe
    universe.from_text = classmethod(
        t.span("semantics.universe", universe.from_text.__func__))

    def index_result(idx):
        if idx is not None:
            c["semantics.index_of.hit"] += 1
    universe.index_of = t.counted("semantics.index_of", universe.index_of,
                                  index_result)

    def semantics_result(result):
        c["semantics.warnings"] += len(result.warnings)
    spanned(semantics, "compute_semantics", "semantics.compute",
            semantics_result)

    def rules_result(result):
        c["semantics.rules"] += len(result[0])
    spanned(semantics, "ground_instances", "semantics.ground_instances",
            rules_result)
    counted(semantics, "rt_to_str", "semantics.rt_to_str")
    counted(semantics, "immediate_consequences", "semantics.fixpoint_round")
    for fn in ("least_model", "greatest_consistent_within"):
        spanned(semantics, fn, "semantics.fixpoint")
    for fn in ("regular_answers", "universe_instantiations"):
        spanned(semantics, fn, f"semantics.{fn}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, how to read it from a tracer)
LAYER_METRICS = {
    "cli.main_calls": ("count", lambda t: t.counts["cli.main"]),
    "cli.self_s": ("s", lambda t: t.self_s["cli.main"]),
    "parser.parse_s": ("s", lambda t: t.self_s["parser.parse"]),
    "parser.print_answer_calls":
        ("count", lambda t: t.counts["parser.print_answer"]),
    "parser.print_answer_s": ("s", lambda t: t.self_s["parser.print_answer"]),
    "terms.fresh_rename_calls":
        ("count", lambda t: t.counts["terms.fresh_rename"]),
    "terms.fresh_rename_s": ("s", lambda t: t.self_s["terms.fresh_rename"]),
    "equations.solve_calls": ("count", lambda t: t.counts["equations.solve"]),
    "equations.solve_s": ("s", lambda t: t.self_s["equations.solve"]),
    "equations.solve_fail_ratio":
        ("ratio", lambda t: _ratio(t.counts["equations.solve.fail"],
                                   t.counts["equations.solve"])),
    "equations.rational_value_calls":
        ("count", lambda t: t.counts["equations.rational_value"]),
    "equations.rational_value_s":
        ("s", lambda t: t.self_s["equations.rational_value"]),
    "equations.canonical_key_calls":
        ("count", lambda t: t.counts["equations.canonical_key"]),
    "equations.canonical_key_s":
        ("s", lambda t: t.self_s["equations.canonical_key"]),
    "equations.compose_calls":
        ("count", lambda t: t.counts["equations.compose"]),
    "equations.compose_s": ("s", lambda t: t.self_s["equations.compose"]),
    "engine.self_s":
        ("s", lambda t: t.self_s["engine.run_query"]
         + t.self_s["engine.drain"]),
    "engine.answers_emitted":
        ("count", lambda t: t.counts["engine.answers_emitted"]),
    "engine.dedup_keep_ratio":
        ("ratio", lambda t: _ratio(t.counts["engine.answers_emitted"],
                                   t.counts["engine.solutions_derived"])),
    "engine.eval_builtin_calls":
        ("count", lambda t: t.counts["engine.eval_builtin"]),
    "semantics.universe_s": ("s", lambda t: t.self_s["semantics.universe"]),
    "semantics.ground_instances_s":
        ("s", lambda t: t.self_s["semantics.ground_instances"]),
    "semantics.rules": ("count", lambda t: t.counts["semantics.rules"]),
    "semantics.index_of_calls":
        ("count", lambda t: t.counts["semantics.index_of"]),
    "semantics.index_of_hit_ratio":
        ("ratio", lambda t: _ratio(t.counts["semantics.index_of.hit"],
                                   t.counts["semantics.index_of"])),
    "semantics.rt_to_str_calls":
        ("count", lambda t: t.counts["semantics.rt_to_str"]),
    "semantics.warnings": ("count", lambda t: t.counts["semantics.warnings"]),
    "semantics.fixpoint_rounds":
        ("count", lambda t: t.counts["semantics.fixpoint_round"]),
    "semantics.fixpoint_s": ("s", lambda t: t.self_s["semantics.fixpoint"]),
    "semantics.regular_answers_s":
        ("s", lambda t: t.self_s["semantics.regular_answers"]),
    "semantics.universe_instantiations_s":
        ("s", lambda t: t.self_s["semantics.universe_instantiations"]),
}
