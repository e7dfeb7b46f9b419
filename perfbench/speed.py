"""Core-speed sampling, to express a run's time in reference seconds.

The benchmark runs on shared hosts whose cores slow down by 20-70 % for
stretches from a fraction of a second to minutes, as other tenants load the
same physical cores.  A run's wall time then measures the host as much as the
code.  ``SpeedSampler`` samples the speed of the core the run is on, while it
runs: a timer signal interrupts the run every ``period`` seconds, and the
handler times ``kernel()``, a fixed piece of pure-Python work of the same kind
as the package's (small integer matrices mod n, tuples, dict lookups).  Each
stretch of the run between two samples is rescaled by the speed the samples
on either side of it measured::

    reference seconds = stretch * REFERENCE_KERNEL_S / kernel duration

So a reference second is the time the run would take on a core on which one
``kernel()`` call takes ``REFERENCE_KERNEL_S``.  The time spent in the
samples themselves is not counted.  The kernel does not depend on the code
under test, so a change that makes the package faster lowers the reference
time in proportion.

This module imports nothing from the package.
"""

import signal
import time

# Duration of one kernel() call on an unloaded 2-vCPU x86-64 VM with
# Python 3.11; it fixes the scale of a reference second.
REFERENCE_KERNEL_S = 0.002

_clock = time.perf_counter


def kernel():
    """A fixed piece of pure-Python work; returns its duration in seconds."""
    start = _clock()
    n = 12
    a = [[(i * 7 + j * 3) % n for j in range(6)] for i in range(6)]
    b = [[(i * 5 + j * 11) % n for j in range(6)] for i in range(6)]
    seen = {}
    for _ in range(60):
        c = [[sum(a[i][k] * b[k][j] for k in range(6)) % n for j in range(6)] for i in range(6)]
        key = tuple(tuple(row) for row in c)
        seen[key] = seen.get(key, 0) + 1
        a, b = b, c
    return _clock() - start


class SpeedSampler:
    """Times ``kernel()`` every ``period`` seconds between ``start`` and ``stop``.

    The samples are taken by a ``SIGALRM`` handler, which Python runs in the
    main thread between bytecodes, so they run on the same core as the work
    and at nearly the same moment.  One more sample is taken just before
    ``start`` and one just after ``stop``, so every stretch has a sample on
    either side.  With ``period`` None only those two are taken.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []  # (start, duration)
        self.begin = self.end = None

    def _sample(self, *_):
        started = _clock()
        self.samples.append((started, kernel()))

    def start(self):
        self.samples = []
        self._sample()
        self.begin = _clock()
        if self.period is not None:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.end = _clock()
        self._sample()

    @property
    def wall_s(self):
        """Seconds from start to stop, the samples inside included."""
        return self.end - self.begin

    @property
    def reference_s(self):
        """Seconds from start to stop without the samples, in reference seconds."""
        total = 0.0
        position = self.begin
        before = self.samples[0][1]
        for started, duration in self.samples[1:]:
            stretch_end = min(started, self.end)
            speed = 2 * REFERENCE_KERNEL_S / (before + duration)
            total += max(stretch_end - position, 0.0) * speed
            position = started + duration
            before = duration
        return total

    @property
    def sampled_s(self):
        """Seconds spent in the samples taken between start and stop."""
        return sum(d for t, d in self.samples[1:-1])
