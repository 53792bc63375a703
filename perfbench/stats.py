"""Order statistics for the benchmark: percentiles that say how many samples back them.

A tail percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it, so a p99 from 200 samples (two samples beyond) is refused
instead of printed as if it meant something.

Latency percentiles are block percentiles: the samples, in the order they
were taken, are cut into consecutive blocks just large enough to resolve
the tail, and the percentile is the mean of the blocks' percentiles.  The
host's speed switches between regimes about 1.6x apart that last from
a fraction of a second to minutes, so a run's pooled latencies are a mixture of two copies of the
distribution.  A percentile of the pooled samples jumps from one copy to
the other when the mix crosses it; the mean of block percentiles moves
in proportion to the mix, as a throughput does.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


class InsufficientSamplesError(ValueError):
    """A percentile was requested from too few samples to resolve it."""


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def resolvable(n: int, q: float) -> bool:
    """True when ``n`` samples put at least :data:`MIN_BEYOND` beyond ``q``."""
    # Rounded so 100 samples resolve p90 despite float error in (100 - 90) / 100.
    return round(samples_beyond(n, q), 9) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation.

    Raises :class:`InsufficientSamplesError` when fewer than
    :data:`MIN_BEYOND` samples lie beyond ``q`` (the median of an empty
    sample is refused the same way).
    """
    n = len(samples)
    if n == 0 or (q > 50.0 and not resolvable(n, q)):
        raise InsufficientSamplesError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples leave "
            f"{samples_beyond(n, q):g}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def block_size(q: float) -> int:
    """The fewest samples that resolve the ``q``-th percentile (at least 1)."""
    if q <= 50.0:
        return 1
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - q), 9))


def block_percentile(samples: Sequence[float], q: float, size: int) -> float:
    """Mean of the ``q``-th percentiles of consecutive blocks of ``samples``.

    The samples are cut, in order, into ``len(samples) // size`` blocks of
    near-equal length, each at least ``size`` long (one block when there
    are fewer samples than that).  Raises :class:`InsufficientSamplesError`
    when a block cannot resolve ``q``.
    """
    values = np.asarray(samples, dtype=float)
    n_blocks = max(1, len(values) // size)
    return float(np.mean([percentile(block, q) for block in np.array_split(values, n_blocks)]))


def latency_summary(samples: Sequence[float], tail: float) -> Dict[str, float]:
    """Block median and block ``tail`` percentile of ``samples``, with the counts.

    Both use blocks of :func:`block_size` ``(tail)`` samples.
    """
    size = block_size(tail)
    return {
        "p50": block_percentile(samples, 50.0, size),
        "tail": block_percentile(samples, tail, size),
        "tail_q": tail,
        "n": len(samples),
        "blocks": max(1, len(samples) // size),
    }


__all__ = [
    "MIN_BEYOND",
    "InsufficientSamplesError",
    "samples_beyond",
    "resolvable",
    "percentile",
    "median",
    "block_size",
    "block_percentile",
    "latency_summary",
]
