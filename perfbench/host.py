"""Host-normalized timing: every timed sample is paired with a reference loop.

The benchmark's host is shared, and its speed drifts by tens of percent
over seconds to minutes while a run lasts.  A fixed reference loop that
uses no program code is timed right before and right after every sample;
the sample's wall time is scaled by ``NOMINAL_REF_S`` over the mean of the
two.  The result is in *reference-host seconds*: the wall time the sample
would take on a host that runs the reference loop in ``NOMINAL_REF_S``.
A program change moves the sample and not the reference, so it shows in
full; host drift moves both and cancels.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Callable, List, Tuple

import numpy as np

#: Reference-loop wall time that defines one reference-host second.
NOMINAL_REF_S = 0.075


def host_reference_s() -> float:
    """Wall time of a fixed pure-Python and numpy loop (no program code).

    The collector is paused so the loop's time does not depend on the
    size of the program's heap.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        counts = {}
        for i in range(60_000):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            counts[i % 512] = counts.get(i % 512, 0) + 1
            if len(heap) > 64:
                heapq.heappop(heap)
        a = np.arange(40_000, dtype=float).reshape(200, 200) / 4e4
        for _ in range(20):
            a = np.tanh(a @ a.T * 1e-3)
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Times samples in reference-host seconds (see the module docstring)."""

    def __init__(self) -> None:
        self.refs: List[float] = [host_reference_s()]
        #: Raw wall seconds and host scale of the last :meth:`timed` call;
        #: the scale also normalizes parts timed inside that call.
        self.last_raw_s = 0.0
        self.last_scale = 1.0

    def scale(self, before: float, after: float) -> float:
        return 2.0 * NOMINAL_REF_S / (before + after)

    def timed(self, fn: Callable[..., Any], *args, **kwargs) -> Tuple[float, Any]:
        """``(normalized wall seconds, result)`` of one call."""
        before = self.refs[-1]
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.last_raw_s = time.perf_counter() - start
        self.refs.append(host_reference_s())
        self.last_scale = self.scale(before, self.refs[-1])
        return self.last_raw_s * self.last_scale, out
