"""Gauge the machine's speed beside and during a timed call.

On a shared virtual machine the speed of the same code swings by up to
2x within seconds and drifts over minutes, so engine seconds from two runs
minutes apart are not comparable to within a few percent.  A SpeedProbe
times a small fixed pure-Python computation (the reference) AROUND times
before and after the call, and once per PROBE_INTERVAL_S of CPU time
during it, from a SIGPROF handler.  The call's own CPU time (its total
minus the time spent in the handler) divided by the median reference time
is its cost in references: a number that follows the program's speed but
much less the machine's.

The reference runs in the same thread as the call, so it sees the same
core, the same neighbours and the same clock speed at the same moment.
It touches a few hundred KiB built at import and allocates almost nothing,
so it does not depend on the heap the call leaves behind; a reference
that visited a table of about 2 MiB in scattered order tracked the
engines' speed much worse.

Times are thread CPU times: while an ITIMER_PROF timer is armed the
process CPU clock advances only at scheduler ticks, the thread clock does
not.  The worker is single-threaded, so the two agree otherwise.
"""
from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
AROUND = 16  # references run before and after the call
STEPS = 4000  # iterations of one reference, about 0.6 ms on a 2 GHz Xeon

# Built once, so that a reference allocates (almost) nothing.
_KEYS = tuple((i % 251, (i * 7) % 13, ("a", "b")[i & 1]) for i in range(STEPS))
_SEEN = frozenset(_KEYS[::3])
_COUNTS = dict.fromkeys(_KEYS, 0)


def reference() -> float:
    """CPU seconds of one fixed computation of the engines' kind (tuple
    hashing, set and dict lookups, small-integer arithmetic)."""
    start = time.thread_time()
    total = 0
    for key in _KEYS:
        if key in _SEEN:
            total += _COUNTS[key] + key[0]
        else:
            total ^= key[1]
    return time.thread_time() - start


class SpeedProbe:
    """Context manager timing the CPU of the code it encloses.

    After exit, `cpu_s` is the enclosed code's thread CPU seconds without
    the probes taken during it, `ref_s` the median reference time and
    `rel` their ratio.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.during_s = 0.0
        self.cpu_s = self.ref_s = self.rel = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.thread_time()
        self.refs.append(reference())
        self.during_s += time.thread_time() - start

    def __enter__(self) -> "SpeedProbe":
        self.refs.extend(reference() for _ in range(AROUND))
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._start = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_s = time.thread_time() - self._start - self.during_s
        signal.signal(signal.SIGPROF, self._previous)
        self.refs.extend(reference() for _ in range(AROUND))
        self.ref_s = statistics.median(self.refs)
        self.rel = self.cpu_s / self.ref_s
