"""How fast the host runs Python right now, to factor out of the timings.

On a shared host the same process runs 1.4-1.9 times slower for seconds to
minutes at a time, when neighbours load the cores it shares.  The benchmark
times a fixed reference loop, interleaved with the work, and reports each
time as it would read on a host where the loop takes ``NOMINAL_S``::

    reported = measured * NOMINAL_S / reference time around the measurement

The loop does what the library spends its time on (``Fraction``
arithmetic and hashing tuples of them into a dict).  It imports
``fractions`` on its first run, so callers run it only after a timed
import or set-up, never before one.  While raw times of library calls
swung by up to 1.9 times, the scaled ones moved by about 10% at most.
"""

from __future__ import annotations

import os
import time

# One burst on the machine the benchmark was built on (2 vCPUs, Python
# 3.11.7) in its fast state: 2.4-2.6 ms.  Only a unit: it scales every
# time alike.
NOMINAL_S = 0.0025
ROUNDS = 250


def _loop() -> int:
    from fractions import Fraction  # here, so importing this module loads none
    table = {}
    x = Fraction(1, 3)
    for i in range(ROUNDS):
        key = (Fraction(i, 7) + x, Fraction(i % 5, 2))
        table[key] = table.get(key, 0) + 1
        x = x * Fraction(3, 4) + Fraction(1, 2)
        x = Fraction(x.numerator % 97, x.denominator % 89 + 1)
    return len(table)


def burst() -> float:
    """Wall seconds of one run of the reference loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(*bursts: float) -> float:
    """The factor that brings a time measured between these bursts to the
    nominal host."""
    return NOMINAL_S * len(bursts) / sum(bursts)


def pin() -> None:
    """Keep this process and its children on one CPU, so the reference loop
    runs where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Interleaved:
    """Reference bursts between ops, at least every ``every`` seconds.

    Call ``tick`` before each op; it returns the index of the burst that
    precedes the op.  ``close`` adds the closing burst, after which
    ``factor(k)`` scales an op that followed burst ``k`` by the bursts
    either side of it.
    """

    def __init__(self, every: float = 0.05) -> None:
        self.every = every
        self.bursts = [burst()]
        self.last = time.perf_counter()

    def tick(self) -> int:
        if time.perf_counter() - self.last >= self.every:
            self.bursts.append(burst())
            self.last = time.perf_counter()
        return len(self.bursts) - 1

    def close(self) -> None:
        self.bursts.append(burst())

    def factor(self, k: int) -> float:
        return scale(self.bursts[k], self.bursts[k + 1])
