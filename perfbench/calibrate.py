"""Host-speed calibration for the benchmark's timings.

On a shared host the speed at which the same Python code runs drifts
(by up to 1.7x over minutes, measured on a 2-core container with other
tenants), far more than any change the benchmark must resolve.  So the
work's host times are scaled to a reference speed: a fixed pure-Python
kernel (a small generator-driven event loop, in the style of the
simulator's kernel but importing nothing from it, so no change to the
simulator can move it) is timed at regular intervals during the work,
and every timing of that stretch of work is multiplied by
``REF_S / mean(kernel time)``: over the samples of the whole pass for
a pass's time, over the samples nearest in time for one point's.  On a
host where the kernel takes ``REF_S`` the scaled and raw seconds
coincide.  Raw seconds are kept in the run record beside the scaled ones.

Set-up times are scaled the same way by a different reference: a fresh
interpreter that imports a fixed set of libraries (:data:`LAUNCH`),
because a set-up's time moves with process launch, dynamic loading and
import speed, which the kernel does not track.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List

#: Seconds the calibration kernel takes on the reference host.
REF_S = 0.0025
#: Work seconds between two calibration samples.
INTERVAL_S = 0.05
#: Generator processes in one kernel run.
PROCS = 150
#: Samples nearest in time that scale one point's latency.
NEAREST = 5
#: Arguments of the reference launch: ``python3`` importing libraries the
#: simulator uses, nothing from the repository, then printing ``ready``.
#: Over 30 set-ups each between two reference launches, log(set-up
#: seconds) moved by 1.13 of log(reference seconds) (correlation 0.75),
#: while against the kernel it moved by only 0.46, and two sets of ten
#: kernel-scaled runs differed by 0.18 in median set-up time.
LAUNCH = ("-c", "import argparse, concurrent.futures, dataclasses, heapq, json, numpy; "
          "print('ready', flush=True)")
#: Seconds the reference launch takes on the reference host.
LAUNCH_REF_S = 0.2


def kernel() -> Dict[int, int]:
    """The calibration workload: generator processes on a heap calendar."""
    heap: list = []
    counts: Dict[int, int] = {}

    def proc(i: int):
        x = 0
        for k in range(20):
            x = (x * 31 + k + i) & 0xFFFF
            counts[x & 63] = counts.get(x & 63, 0) + 1
            yield k % 5 + 1

    for i in range(PROCS):
        heapq.heappush(heap, (0, i, proc(i)))
    seq = PROCS
    while heap:
        t, _, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (t + delay, seq, gen))
    return counts


class Speed:
    """Calibration samples taken while the work runs."""

    def __init__(self) -> None:
        #: Kernel seconds, one per sample, and when each sample ended.
        self.samples: List[float] = []
        self.stamps: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        # The cyclic collector stays off while the kernel runs: its
        # allocations would otherwise trigger collections of the work's
        # garbage, whose cost belongs to the work, not to the host speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self.stamps.append(t1)
        self._due = t1 + INTERVAL_S

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` seconds have passed since the last."""
        if time.perf_counter() >= self._due:
            self.sample()

    def spent(self, start: int) -> float:
        """Seconds spent in samples taken since sample index ``start``."""
        return sum(self.samples[start:])

    def factor(self, start: int) -> float:
        """Scale from raw to reference seconds, over samples since ``start``."""
        return REF_S / statistics.mean(self.samples[start:])

    def local_factor(self, start: int, t0: float, t1: float) -> float:
        """Scale for work that ran from ``t0`` to ``t1``: over the
        ``NEAREST`` samples since ``start`` nearest in time to its midpoint."""
        mid = (t0 + t1) / 2
        idx = sorted(range(start, len(self.samples)),
                     key=lambda i: abs(self.stamps[i] - mid))[:NEAREST]
        return REF_S / statistics.mean(self.samples[i] for i in idx)
