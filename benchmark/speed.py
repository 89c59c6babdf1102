"""Machine-speed sampling, so that timings from different minutes compare.

On a machine whose cores are shared with other work, the same solve can take
60% longer from one minute to the next (a fixed pure-Python loop varied from
0.14 to 0.27 s over 25 back-to-back repeats on the reference machine). While
the benchmark works, a SIGALRM handler times a small fixed kernel of rational
and big-integer arithmetic, the operations exactce's solves are made of,
every PERIOD_S seconds. An interval's time is then reported in reference
seconds: its wall time, less the time spent in the handler, times the mean
over the interval's samples of REFERENCE_KERNEL_S / (kernel time). On a
machine that runs the kernel in REFERENCE_KERNEL_S, reference seconds are
wall seconds.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
# kernel time at the reference speed; the reference machine ran it in 0.15 to
# 0.27 ms depending on its load (see README.md)
REFERENCE_KERNEL_S = 2.0e-4


# rationals of a few hundred digits, as wide as the product mixtures' entries
_WIDE = [Fraction(3 ** (200 + i), 7 ** (180 + i) + i) for i in range(8)]


def kernel():
    total = Fraction(0)
    for d in range(2, 40):
        total += Fraction(d % 7 + 1, d)
    wide = Fraction(0)
    for x in _WIDE:
        wide += x
    fixed = (1 << 255) + 12345
    for _ in range(40):
        fixed = ((fixed * fixed) >> 255) + 987654321
    return total, wide, fixed


class SpeedProbe:
    """Samples kernel times on a wall-clock timer while it is entered."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent taking samples

    def sample(self):
        # a collection triggered inside the kernel would bill the kernel for
        # the garbage of the work it interrupted
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """Wall time less the time spent sampling."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """Start of an interval."""
        return len(self.samples)

    def speed(self, mark: int) -> float:
        """Reference seconds per working second over the interval since mark
        (from one sample taken now if the interval holds none)."""
        if len(self.samples) == mark:
            self.sample()
        recent = self.samples[mark:]
        return sum(REFERENCE_KERNEL_S / k for k in recent) / len(recent)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
