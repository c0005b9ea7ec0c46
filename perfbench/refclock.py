"""Wall time rescaled to a reference speed of the machine.

The 2-core box of the baseline changes speed by up to 2x within seconds,
because other tenants share its host: a fixed loop of Python code took
7.5 ms and then 13.9 ms a second later.  A plain wall time then varies
more between runs than any regression worth catching.

While a `RefClock` runs, SIGALRM interrupts the program every PERIOD_S
seconds, between two bytecodes of the main thread, and times `kernel()`, a
fixed piece of pure-Python integer, Fraction and mpf arithmetic (the work
mpmath's pure-Python backend and the exact layers do).  Each stretch of
wall time between two samples is weighted by REF_KERNEL_S over the mean
kernel time at its two ends, so the sum is the time the same work would
take on a box where the kernel takes REF_KERNEL_S.  The kernel's own time
is left out of the stretches.  The kernel touches no state of the program,
so results are unchanged (the traced run checks this bit for bit).
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

from mpmath import libmp

PERIOD_S = 0.1
# warm kernel time on the 2-core box of the baseline, at its faster speed
REF_KERNEL_S = 0.0009
_MASK = (1 << 256) - 1
_X = libmp.from_rational(1, 3, 256)
_Y = libmp.from_rational(5, 7, 256)


def kernel() -> tuple:
    """Fixed work in the mix of the workloads: 256-bit integer products and
    Fraction arithmetic, as in the exact layers, and 192-bit mpf arithmetic
    through mpmath's libmp functions, which take the precision as an
    argument and so touch no global state of the program."""
    m, acc = 0x9E3779B97F4A7C15F39CC0605CEDC834, 0
    for i in range(800):
        m = (m * 0xD1342543DE82EF95 + i) & _MASK
        acc ^= m >> (i % 64)
    xs = []
    for k in range(2):
        x = Fraction(1, 3 + k)
        for i in range(1, 40):
            x = x * Fraction(i, i + 2) + Fraction(1, i)
        xs.append(x)
    x, y = _X, _Y
    for _ in range(75):
        x = libmp.mpf_add(libmp.mpf_mul(x, y, 192, "n"), _X, 192, "n")
        y = libmp.mpf_sub(y, libmp.mpf_div(x, _Y, 192, "n"), 192, "n")
    return acc, xs, x, y


def kernel_s() -> float:
    """Seconds of one kernel run, timed after a first run warmed the caches."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefClock:
    """Wall and reference seconds of the code run between start() and stop()."""

    def __init__(self):
        self.wall = self.ref = 0.0  # both without the kernel's own time
        self.elapsed = 0.0          # wall time with the kernel's interruptions
        self.cpu = 0.0              # process CPU time, without the kernel's
        self._start = self._mark = self._last = self._cpu_start = None
        self._kernel_cpu = 0.0

    def _sample(self, *_):
        end = time.perf_counter()
        c0 = time.process_time()
        k = kernel_s()
        self._kernel_cpu += time.process_time() - c0
        stretch = end - self._mark
        self.wall += stretch
        self.ref += stretch * REF_KERNEL_S / ((self._last + k) / 2)
        self._last = k
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._last = kernel_s()
        signal.signal(signal.SIGALRM, self._sample)
        self._cpu_start = time.process_time()
        self._start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.elapsed = time.perf_counter() - self._start
        self._sample()
        self.cpu = time.process_time() - self._cpu_start - self._kernel_cpu
