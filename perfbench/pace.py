"""The machine's momentary speed, sampled while a workload runs.

On a small shared machine the same code runs up to half again slower while
neighbours are busy, in phases of seconds to minutes, so raw timings of two
runs of the same code can differ by a third.  The pacer measures that speed
beside the workload: a fixed reference kernel is timed right before every
operation and, from an interval timer, every ``INTERVAL_S`` seconds during
it.  The time the timer's samples take is taken out of the operation's time.

A timing divided by the machine's slowdown, the median reference sample
over ``NOMINAL_S``, reads as the time the work would take at the reference
pace.  The kernel is the benchmark's own code and never changes with the
program, so paced timings of two versions of the program compare like raw
ones, with most of the machine's drift cancelled.

The kernel is a plain interpreter loop. Of the candidates tried on a 2-CPU
virtual machine (small numpy calls, a float32 product, a strided copy, the
loop), only the loop's time tracked the cycle times of all five workloads
roughly in proportion (fitted exponents 0.7 to 1.1 over two trials); small
numpy calls tracked them with exponents near 0.5 and cancelled less of the
drift.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
REFERENCE_STEPS = 10000
# the kernel's median time on an unloaded 2-CPU x86-64 virtual machine
# (CPython 3.11); it only sets the scale of paced timings
NOMINAL_S = 0.00055


class Pacer:
    """Samples the reference kernel before and during timed operations."""

    def __init__(self):
        self.samples = []
        self.interrupt_s = 0.0
        self._previous = None

    @staticmethod
    def reference():
        """Time one run of the fixed reference kernel."""
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_STEPS):
            total += i * i
        return time.perf_counter() - start

    def sample(self):
        self.samples.append(self.reference())

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.interrupt_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, since=0):
        """Median reference time of the samples from ``since`` on, over nominal."""
        return statistics.median(self.samples[since:]) / NOMINAL_S
