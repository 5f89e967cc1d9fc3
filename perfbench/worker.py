"""One workload, measured in one process.  Started by run.py, which pins
PYTHONHASHSEED; run from the root of a colp checkout.

  set-up   import colp from ./src and parse every program, query and
           universe the requests use; repeated SETUP_REPS times with a
           fresh import each time, reported as the median
  warm-up  one request of each kind named by the workload, checked, untimed
  measure  closed loop, one client, no threads: whole passes over the
           seeded request list until --seconds have passed
  trace    with --trace 1, afterwards: wrap colp's layers (tracer.py), parse
           the inputs once more and make exactly one more pass, so that every
           count depends on the seed alone

Prints a human-readable report, then one JSON line with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import LAYER_METRICS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SETUP_REPS = 11
TAIL_PERCENTILES = (99.9, 99, 90, 75, 50)
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
WORK_DIR = ".perfbench-work"

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "queries_per_s": "1/s", "first_answer_p50_s": "s",
    "answers_per_s": "1/s", "peak_rss_mb": "MB",
}


def import_colp(src: str) -> types.SimpleNamespace:
    """Import colp afresh, dropping any copy imported before."""
    for name in [n for n in sys.modules if n.split(".")[0] == "colp"]:
        del sys.modules[name]
    cli = importlib.import_module("colp.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"colp was imported from {cli.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=cli, engine=sys.modules["colp.engine"],
        parser=sys.modules["colp.parser"],
        semantics=sys.modules["colp.semantics"])


class Record:
    """What one client saw: a timing window per request, every failure."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        # (start, end, probe seconds inside, first answer at, answers, ok)
        self.windows: list[tuple] = []

    def serve(self, request) -> None:
        self.attempted += 1
        stolen, start = self.probe.stolen, perf_counter()
        reply = problem = None
        try:
            reply = request.run()
        except Exception as exc:  # a request that raises is a failure
            problem = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        stolen = self.probe.stolen - stolen
        if reply is not None:
            try:
                problem = request.check(reply)
            except Exception as exc:  # malformed output, e.g. a bad field
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{request.kind}: {problem}")
            self.windows.append((start, end, stolen, None, 0, False))
        else:
            self.windows.append((start, end, stolen, reply.first_answer_at,
                                 len(reply.answers), True))

    def timings(self) -> dict:
        """Reference-second timings (speed.py) of the requests served."""
        out = {"latencies": [], "first_answers": [], "answers": 0,
               "busy": 0.0, "raw_busy": 0.0}
        for start, end, stolen, first, answers, ok in self.windows:
            latency = self.probe.normalize(start, end, stolen)
            out["busy"] += latency
            out["raw_busy"] += end - start - stolen
            if not ok:
                continue
            out["latencies"].append(latency)
            out["answers"] += answers
            if first is not None:
                out["first_answers"].append(
                    latency * (first - start) / (end - start))
        return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile in TAIL_PERCENTILES with at least TAIL_BEYOND
    samples above it (nearest rank): (value, percentile, samples above)."""
    ordered = sorted(latencies) or [0.0]
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


def _median(values: list[float]) -> float:
    # 0 only when every request failed, and then the run is not correct
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times: list[float], rec: Record,
               peak_rss_mb: float) -> tuple:
    t = rec.timings()
    tail_s, pct, beyond = tail(t["latencies"])
    return {
        "setup_s": _median(setup_times),
        "latency_p50_s": _median(t["latencies"]),
        "latency_tail_s": tail_s,
        "queries_per_s": rec.attempted / t["busy"],
        "first_answer_p50_s": _median(t["first_answers"]),
        "answers_per_s": t["answers"] / t["busy"],
        "peak_rss_mb": peak_rss_mb,
    }, (pct, beyond, len(t["latencies"]), t["raw_busy"])


def write_files(files: dict[str, str]) -> None:
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "colp", "__init__.py")):
        print("no colp sources under ./src; run from a colp checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("PYTHONHASHSEED must be 0; start this through run.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    if workload.files is not None:
        write_files(workload.files(specs))

    with SpeedProbe() as probe:
        setup_windows = []
        for _ in range(SETUP_REPS):
            gc.collect()  # the last repetition's garbage is not set-up work
            stolen, begin = probe.stolen, perf_counter()
            colp = import_colp(src)
            requests = prepare(colp, specs)
            setup_windows.append((begin, perf_counter(),
                                  probe.stolen - stolen))
        gc.collect()

        warm = Record(probe)
        for kind in workload.warmup_kinds:
            warm.serve(next(r for r in requests if r.kind == kind))

        rec = Record(probe)
        begin = perf_counter()
        passes = 0
        while True:
            for request in requests:
                rec.serve(request)
            passes += 1
            if perf_counter() - begin >= args.seconds:
                break
        wall = perf_counter() - begin
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if args.trace:
            tracer = Tracer()
            install(tracer)
            prepare(colp, specs)  # request id 0: the parse and universe spans
            traced = Record(probe)
            for i, request in enumerate(requests, start=1):
                tracer.request = i
                traced.serve(request)

    setup_times = [probe.normalize(*w) for w in setup_windows]
    metrics, details = end_to_end(setup_times, rec, peak_kib / 1024)
    pct, beyond, samples, raw_busy = details
    attempted = warm.attempted + rec.attempted
    failures = warm.failures + rec.failures

    print(f"colp benchmark: workload={args.workload} seed={args.seed} "
          f"python={platform.python_version()} "
          f"({platform.python_implementation()}) "
          f"PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}")
    print(f"  {passes} passes x {len(requests)} requests in {wall:.1f} s "
          f"wall, {raw_busy:.1f} s serving; median probe "
          f"{probe.median_probe_s() * 1e3:.3f} ms (reference "
          f"{REFERENCE_S * 1e3:g} ms)")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"   (p{pct:g}, {beyond} of {samples} samples above)"
        print(f"  {name:<20} {value:>12.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'error_rate':<20} {len(failures) / attempted:>12.6g} ratio"
          f"   ({len(failures)} of {attempted} requests, warm-up included)")

    result = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
              for name, v in metrics.items()}
    if args.trace:
        attempted += traced.attempted
        failures += traced.failures
        result = {name: {"value": float(read(tracer)), "unit": unit}
                  for name, (unit, read) in LAYER_METRICS.items()}
        traced_qps = traced.attempted / traced.timings()["busy"]
        result["trace.overhead_qps"] = {
            "value": traced_qps - metrics["queries_per_s"], "unit": "1/s"}
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "python": platform.python_version()})
        print(f"  traced pass: {traced.attempted} requests, "
              f"{traced_qps:.4g} queries/s; spans in {path}")
        for name, entry in result.items():
            print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}")

    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
