"""How fast the host runs right now, read from a fixed reference kernel.

The shared host's speed moves between regimes about 1.6x apart, and it
stays in each for seconds to minutes, so two runs of the same code can
differ by more than any useful bound.  The benchmark therefore times a
fixed kernel of its own after every case and rescales the run's
wall times to a host that runs the kernel in :data:`NOMINAL_S`:

    scaled time = wall time * NOMINAL_S / mean kernel time of the run

The kernel is the benchmark's code, not the program's, and it runs with
the cyclic garbage collector off, so the size of the program's heap does
not change its time.  A change to the program therefore moves the scaled
times as much as the wall times; a change of host speed moves both the
case and the kernel and cancels out.  Its four parts are the kinds of
work the workloads do: integer arithmetic in the interpreter, small dicts,
lists and tuples, numpy calls on small arrays, and many small objects
built, read and sorted.
"""

from __future__ import annotations

import gc
from typing import List, Sequence

import numpy as np

from repro.obs.timing import perf_counter

#: The kernel's time on the reference host, in seconds: a round figure
#: within the range it takes on a 2-CPU "Intel Xeon Processor" VM at 2.1 GHz
#: (15-32 ms, depending on the regime the host is in).
NOMINAL_S = 0.025
#: Seconds of case time per kernel run (about 8% of a run goes to the kernel).
SAMPLE_EVERY_S = 0.3

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right


def _kernel() -> float:
    total = 0
    for value in range(60_000):
        total += value * value % 7
    table: dict = {}
    for value in range(20_000):
        key = value % 997
        table[key] = table.get(key, 0) + value
        pair = [value, (value, key)]
    ranked = sorted(table.items(), key=lambda item: -item[1])
    matrix = _MATRIX
    for _ in range(600):
        matrix = np.tanh(_MATRIX @ matrix.T) + matrix.mean(axis=0)
    pairs = [_Pair(value, value % 13) for value in range(11_000)]
    for item in pairs:
        total += item.left * item.right
    pairs.sort(key=lambda item: -item.right)
    return total + len(pair) + ranked[0][1] + float(matrix[0, 0]) + pairs[0].left


def reference_seconds() -> float:
    """Wall time of one run of the kernel, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_times(case_seconds: float) -> List[float]:
    """Kernel times taken right after a case.

    One kernel run per :data:`SAMPLE_EVERY_S` of the case, and at least
    one, so that every second of a run weighs about the same in its
    factor whether its cases are short or long.
    """
    return [reference_seconds() for _ in range(max(1, round(case_seconds / SAMPLE_EVERY_S)))]


def factor(reference_s: Sequence[float]) -> float:
    """``NOMINAL_S`` over the mean of a run's kernel times: the run's host factor.

    One factor for the whole run, from the mean, not the median: the
    kernel's time flickers between the host's regimes within a second,
    and only a mean over many kernel runs averages that flicker the way a
    run of many cases does.
    """
    return NOMINAL_S * len(reference_s) / sum(reference_s)


__all__ = ["NOMINAL_S", "SAMPLE_EVERY_S", "factor", "reference_seconds", "reference_times"]
