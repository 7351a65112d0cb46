"""Time code at a fixed reference speed of the host.

The machine this benchmark was made on is shared: the speed it gives one
process drifts by up to half within a minute, for any Python code alike, and
CPU time drifts with wall time. So while a `RefClock` runs, a SIGALRM every
`PERIOD_S` of wall time interrupts the timed code between two bytecodes and
runs a calibration slice: a fixed piece of pure-Python work that does not use
`treechoice`, half `Fraction` sums, tuple hashing and a sort, half integer
arithmetic and lookups in a table built once. The slice runs with the garbage
collector off, so that a collection of the program's heap, which is large on
`ladder`, is not timed as part of it. No slice measures every kind of code
alike: on `falsify` the `Fraction` half tracks the program best, on `ladder`
the other half.

A timed region's raw time is its wall time less the time spent in the
handler. Its reference time is the raw time times `REFERENCE_SLICE_S` over the
median of the slices taken inside it and the one just before and just after
it. A program change makes its jobs faster or slower and leaves the slices
alone, so it moves reference times as it moves raw times; a host that slows
every process slows the slices too, and reference times hold still.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

PERIOD_S = 0.05
# One slice takes this long at the reference speed (on the machine the
# benchmark was made on, a shared 2-vCPU x86_64 host with CPython 3.11, one
# slice took 1.1 to 2.2 ms as the host's load varied).
REFERENCE_SLICE_S = 0.0012
FRACTION_ROUNDS = 250
LOOKUP_ROUNDS = 2500
_TABLE = {i: i for i in range(20_000)}


def calibration_slice() -> float:
    """Time one fixed piece of pure-Python work."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    counts = {}
    for i in range(FRACTION_ROUNDS):
        total += Fraction(i % 17 + 1, i % 13 + 2)
        key = (i % 97, i % 31)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    x = looked_up = 0
    for _ in range(LOOKUP_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        looked_up += _TABLE[x % len(_TABLE)] * (x % 7)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


@dataclass(frozen=True)
class Mark:
    at: float  # perf_counter
    stolen: float  # handler time so far
    slices: int  # slices taken so far


class RefClock:
    """Use as a context manager; `mark()` inside it, `raw` and `scaled`
    on two marks, anywhere after the second."""

    def __init__(self):
        self.slices: list[float] = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a slice is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.slices.append(calibration_slice())
        self.stolen += time.perf_counter() - start
        self._busy = False

    def mark(self) -> Mark:
        while True:  # retry if a slice ran while reading
            stolen, count = self.stolen, len(self.slices)
            at = time.perf_counter()
            if self.stolen == stolen and len(self.slices) == count:
                return Mark(at, stolen, count)

    @staticmethod
    def raw(begin: Mark, end: Mark) -> float:
        return (end.at - begin.at) - (end.stolen - begin.stolen)

    def scaled(self, begin: Mark, end: Mark) -> float:
        around = self.slices[max(begin.slices - 1, 0) : end.slices + 1]
        return self.raw(begin, end) * REFERENCE_SLICE_S / statistics.median(around)

    def slice_ms(self) -> float:
        """The median slice so far, in ms: the host's speed, the lower the faster."""
        return statistics.median(self.slices) * 1000
