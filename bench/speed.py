"""Machine-speed probe: measured times scaled to a reference speed.

The machines this benchmark runs on are shared, and their speed for
single-threaded Python code switches between levels up to twice apart,
for tens of seconds at a time. A run then reads fast or slow as a whole,
and no amount of repetition inside a run makes two runs agree.

So a worker runs a fixed reference loop, which does not touch the program
under test, every ``INTERVAL`` seconds from a timer signal, and records
how long it took. Each timed interval is scaled by ``REFERENCE_S`` over
the mean probe time around it: a time reads as it would on the machine at
the speed where the probe takes ``REFERENCE_S``. The probes' own time is
taken out of every interval by measuring with ``Speed.clock``. Where a
signal could land inside a short timed call and leave its caches cold,
as with session steps, the caller stops the timer and probes between
calls instead.
"""

import bisect
import gc
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL = 0.05
#: Probe time at the reference speed: the probe's time on the 2-core
#: Xeon virtual machine the benchmark was defined on, in its faster state.
REFERENCE_S = 0.0009
#: Probes this far on either side of an interval also count for it.
HALO = 1.5 * INTERVAL


def reference_loop():
    """Fixed work of the kind the program does: tuples, strings, a dict,
    a set and a sort."""
    counts = {}
    for i in range(1000):
        key = ("s%d" % (i % 97), i % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(frozenset(counts)) + len(sorted(counts.items()))


class Speed:
    """Probes the machine's speed from a timer signal while started, and
    whenever ``probe`` is called."""

    def __init__(self):
        self.stamps = []     # clock() at each probe
        self.probes = []     # probe time, seconds
        self._spent = 0.0

    def clock(self):
        """Seconds, like ``time.perf_counter``, without the probes' time."""
        return time.perf_counter() - self._spent

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.probe()

    def probe(self):
        """Time the reference loop now."""
        enabled = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        best = None
        for _ in range(2):
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        self.stamps.append(entered - self._spent)
        self.probes.append(best)
        self._spent += time.perf_counter() - entered
        if enabled:
            gc.enable()

    def factor(self, start, end):
        """Reference speed over the speed around [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - HALO)
        hi = bisect.bisect_right(self.stamps, end + HALO)
        if lo == hi:
            # No probe near: the next one, or else the last.
            near = min(max(lo, 0), len(self.stamps) - 1)
            lo, hi = near, near + 1
        return REFERENCE_S / statistics.fmean(self.probes[lo:hi])

    def scaled(self, intervals):
        """Durations of (start, end) intervals, at the reference speed."""
        return [(end - start) * self.factor(start, end)
                for start, end in intervals]
