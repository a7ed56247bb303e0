"""The calibration kernel: the benchmark's gauge of the host's speed.

On a shared host, other tenants slow the same Python code by 30 % and more,
in phases of seconds to minutes. Every job, and every set-up probe, is
therefore timed between runs of this fixed kernel. Its time over the
kernel's time around it is a number of kernel runs, which a slow phase
does not change: it stretches both alike. The benchmark reports that
number times REF_S, the kernel's time at a fixed reference speed, so
its times read as seconds at that speed.

The kernel does the kind of work monokit's hot paths do: a Python loop
over float tuples with dict inserts, and small numpy arrays built from
them. It uses nothing from monokit, so a change to the package cannot
move it. Changing the kernel changes the unit: results before and after
such a change are not comparable.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

_PTS = tuple((i * 0.1, -i * 0.2) for i in range(60))
_M = np.array([[0.0, 0.1], [0.4, 0.5]])
_ROUNDS = 10
# Seconds one kernel run takes at the reference speed: a round figure near
# its time on the two-vCPU Xeon VM the benchmark was tuned on. It only
# scales the reported times; the ratios carry the measurement.
REF_S = 300e-6


def kernel() -> float:
    acc = 0.0
    for _ in range(_ROUNDS):
        seen = {}
        for x, s in _PTS:
            v = x * s - abs(x) + (s if s > 0 else -s)
            seen[(x, s)] = v
            acc += v
        acc += float((np.array(_PTS) @ _M).max())
    return acc


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def timed_median(runs: int = 5) -> float:
    """Median seconds of a few kernel runs: the gauge around a sub-process."""
    return sorted(timed() for _ in range(runs))[runs // 2]
