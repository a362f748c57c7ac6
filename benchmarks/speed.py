"""Host-speed sampler: puts timings taken at different host speeds on one scale.

On a shared host the CPU speed of this process can switch between levels
about 1.5x apart for seconds to minutes at a time, so raw timings of the same
work vary by far more than the regressions a benchmark must catch.  While a
run measures, a SIGALRM handler times a fixed pure-Python reference
computation every ``PERIOD_S`` seconds.  A measured interval is then
rescaled by ``REFERENCE_S / (mean reference time around the interval)``,
after taking out the time the handler itself spent inside the interval.

The reference is benchmark code, so a change to omsr cannot change its work.
Its time must not depend on the state omsr leaves behind either, and the
handler must not move omsr's own timings.  So the handler runs with the
garbage collector off (a collection would walk omsr's live heap); the
reference allocates almost no objects the collector tracks (each would count
towards omsr's next collection and bring it forward by a varying amount);
and only a second call is timed, after a first one has brought the
reference's own code and data back into the CPU caches.  The raw timings are
kept alongside.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from operator import itemgetter

PERIOD_S = 0.05
# Reference samples within this many seconds of an interval set its speed.
WINDOW_S = 0.5
# Time of one warm reference computation on the 2-core x86-64 sandbox the
# benchmark was built on, at its faster speed level.  Normalised timings read
# as seconds on that host at that level.
REFERENCE_S = 0.000145


# Built once, so that a reference call allocates only two containers.
_ROWS = [tuple((i * 7 + j * 13) % 31 for j in range(6)) for i in range(240)]


def reference() -> int:
    """Fixed work shaped like the package's hot loops: hashing tuples,
    sorting, dict numbering and small-integer arithmetic."""
    index = {}
    for row in sorted(_ROWS, key=itemgetter(3)):
        index.setdefault(row, len(index))
    total = 0
    for row in _ROWS:
        number = index[row]
        for x in row:
            total += x * number % 7
    return total


class HostSpeed:
    """Samples the reference time from a timer signal while started."""

    def __init__(self):
        self.starts: list = []
        self.took: list = []   # time of the timed reference call
        self.own: list = []    # time of the whole handler

    def _tick(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()   # warms the caches; only the second call is timed
            t1 = time.perf_counter()
            reference()
            t2 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(t0)
        self.took.append(t2 - t1)
        self.own.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float, elapsed: float) -> float:
        """``elapsed`` (wall or CPU seconds measured over [start, end]) with
        the handler's own time removed, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = sum(self.own[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near a measured interval")
        return (elapsed - own) * REFERENCE_S / statistics.fmean(self.took[lo:hi])
