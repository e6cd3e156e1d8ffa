"""Contention-corrected timing for a shared, noisy CPU.

On a vCPU that shares a physical core with other tenants, the same Python
code runs at one of two speeds that switch every few milliseconds to
seconds: uncontended, or about 1.6-2x slower.  How much of a run falls in
the slow state drifts over minutes, so wall times of identical work spread
far more than a change worth measuring.

A ``Probe`` samples that speed while the work runs: every ``PERIOD_S`` a
``SIGALRM`` handler times a fixed piece of exact arithmetic (``_probe``,
owned by the benchmark, so no change to toriq can change it).
``corrected`` counts each stretch of work between two probes in units of
the probe: its wall time times ``REFERENCE_PROBE_S`` over the duration of
the probes at its ends.  The result is in seconds of a CPU on which the
probe takes ``REFERENCE_PROBE_S`` (0.1 ms, close to the uncontended
speed of the 2-core VM the benchmark was tuned on).  It moves in
proportion to the work itself, and no longer with how much of the run
the CPU spent contended.  Probe time is left out.

A fixed reference rather than the run's own uncontended probe time: the
latter reads 5-10% higher in a heavily contended run (the fast state is
not clean then), and work measured against it still spread by 10%.
Against the fixed reference the same work spread by 3%.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.003
REFERENCE_PROBE_S = 100e-6
# A probe is counted as at most this many times the run's uncontended probe
# time (``base``): the excess is an interrupt or descheduling, not the
# contended speed.  The lower limit guards against a clock glitch.
MAX_SLOWDOWN = 3.0
MIN_SLOWDOWN = 0.8

_MATRIX = ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3))


def _probe() -> Fraction:
    """Fraction elimination on a fixed 4x4 matrix, about 0.1 ms."""
    gc_was_on = gc.isenabled()
    gc.disable()  # a collection would time the run's heap, not the CPU
    a = [[Fraction(x) for x in row] for row in _MATRIX]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    if gc_was_on:
        gc.enable()
    return a[n - 1][n - 1]


class Probe:
    """Start and duration of every probe taken between ``start`` and ``stop``."""

    def __init__(self):
        self.starts = array("d")
        self.durs = array("d")
        self.busy = False

    def _on_alarm(self, signum, frame):
        if self.busy:  # a late signal inside a probe: keep the arrays in order
            return
        self.busy = True
        t0 = perf_counter()
        _probe()
        self.durs.append(perf_counter() - t0)
        self.starts.append(t0)
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def before(self, t: float) -> tuple[list[float], list[float]]:
        """The probes that started before ``t``, as two plain lists."""
        k = bisect_left(self.starts, t)
        return list(self.starts[:k]), list(self.durs[:k])


def base(durs) -> tuple[float, float]:
    """The run's uncontended probe duration and the share of probes near it.

    The fast cluster is every probe within 1.25x of the 0.5th percentile
    (the slow state is 1.6x or more); its median is the base."""
    xs = sorted(durs)
    low = xs[len(xs) // 200]
    fast = [x for x in xs if x <= 1.25 * low]
    return statistics.median(fast), len(fast) / len(xs)


def corrected(starts, durs, b: float, t0: float, t1: float) -> float:
    """Work time between ``t0`` and ``t1`` in seconds of the reference CPU.

    Each stretch between two probes counts at the mean speed of the probes
    at its ends, ``REFERENCE_PROBE_S`` over a probe's duration clipped to
    the run's uncontended probe time ``b`` times the slowdown limits.
    Probe time inside the interval is not work and is left out."""
    n = len(starts)
    if n == 0:
        return t1 - t0
    lo, hi = MIN_SLOWDOWN * b, MAX_SLOWDOWN * b

    def speed(k: int) -> float:
        k = min(max(k, 0), n - 1)
        return REFERENCE_PROBE_S / min(max(durs[k], lo), hi)

    i = bisect_left(starts, t0)
    j = bisect_left(starts, t1)
    total = 0.0
    t = t0
    for k in range(i, j + 1):
        end = starts[k] if k < j else t1
        total += max(end - t, 0.0) * (speed(k - 1) + speed(k)) / 2
        if k < j:
            t = starts[k] + durs[k]
    return total
