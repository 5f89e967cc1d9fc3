"""Machine-speed probe, so that timings survive a shared, drifting CPU.

On a machine shared with other tenants the same pure-Python work can run
50% slower for minutes at a time, and process CPU time slows with it, so
neither wall nor CPU time alone is steady from run to run.  The probe times
a fixed pure-Python loop (PROBE_LOOPS iterations of dict, tuple and str
work, the kind of work the interpreter does) from a SIGALRM handler every
INTERVAL_S seconds, on the one benchmark thread.

`normalize(start, end, stolen)` turns a measured interval into reference
seconds: the interval minus the probe's own time inside it, scaled by
(REFERENCE_S / mean probe time around the interval) ** SENSITIVITY.  A
reference second is a second on a machine where one probe takes
REFERENCE_S.  SENSITIVITY is how much colp slows when the probe slows: the
slope of log(request time) against log(probe time) across the machine's
speed swings, measured at 0.78 to 0.90 for dfs search, answer enumeration
and first answers on a shared 2-CPU virtual machine with CPython 3.11.
The probe is benchmark code, so no change to colp can move it; a change
that makes colp 2x faster halves the normalized times just as it halves the
raw ones.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

PROBE_LOOPS = 1000
INTERVAL_S = 0.05
REFERENCE_S = 0.0005  # one probe on this code's reference machine
SENSITIVITY = 0.85
PAD_S = 0.1  # probes this close to an interval count for it


def _probe_work() -> int:
    table: dict = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        acc += len(str(i))
    return acc


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []      # probe midpoints, increasing
        self.durations: list[float] = []
        self.stolen = 0.0                 # total seconds spent probing

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        _probe_work()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.stolen += end - start

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def normalize(self, start: float, end: float, stolen: float) -> float:
        """Reference seconds for the interval [start, end], from which
        `stolen` seconds of probing are removed."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:  # no probe nearby: take the nearest one
            i = min(lo, len(self.times) - 1)
            lo, hi = i, i + 1
        window = self.durations[lo:hi]
        speed = REFERENCE_S * len(window) / sum(window)
        return (end - start - stolen) * speed ** SENSITIVITY

    def median_probe_s(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2]
