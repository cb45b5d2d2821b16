"""Host-speed calibration: convert measured seconds into reference seconds.

The benchmark runs on shared hosts whose speed for the same Python work
drifts by a third over minutes, far more than a change to the program
moves it.  So every host timing is taken next to a fixed piece of pure
Python work (:func:`chunk`, which touches nothing of the program) and is
reported in *reference seconds*: measured seconds times
``REFERENCE_CHUNK_S / (CPU seconds one chunk took around it)``.  A run on
a slow stretch of the host then reads the same as one on a fast stretch,
while a faster program still reads faster.  On a 2-vCPU Xeon VM, the raw
TTIs per CPU-second of repeated identical cells varied 12-15% (IQR over
median, groups of 8-24 one-second cells) and their ratio to the chunk
3-5% (correlation 0.95-0.98).

The workload process takes one :func:`sample` after every 10-TTI step,
so the samples follow the host at the step's own pace; a setup probe
takes a block of samples before importing the program and another after
``session.start()``.
"""

from __future__ import annotations

import heapq
from time import process_time

#: CPU seconds :func:`chunk` takes on the reference host (Intel Xeon VM,
#: 2 vCPUs, CPython 3.11, quiet).  A constant of the benchmark: changing
#: it rescales every host timing.
REFERENCE_CHUNK_S = 6.0e-5
#: Samples a setup probe takes before and again after its timed interval.
PROBE_SAMPLES = 150


class _Item:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0

    def bump(self, x: int) -> int:
        self.hits += 1
        self.value = (self.value * 31 + x) % 1000003
        return self.value


#: Created once: a chunk allocates no container, so it never triggers the
#: cyclic garbage collector, whose cost depends on the program's heap.
_TABLE = {key: _Item(key) for key in range(512)}
_HEAP: list = []


def chunk(n: int = 150) -> int:
    """Fixed interpreter work: attribute access, calls, a dict and a heap."""
    table = _TABLE
    heap = _HEAP
    heap.clear()
    acc = 0
    for i in range(n):
        heapq.heappush(heap, table[(i * 7) & 511].bump(i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)
    return acc


def sample() -> float:
    """Run the chunk twice; return the CPU seconds of the second run.

    The first run brings the chunk's code and data back into the caches
    after program work, so the timed run measures the host, not how much
    of the cache the program's last step evicted.
    """
    chunk()
    c0 = process_time()
    chunk()
    return process_time() - c0


def speed_factor(sample_cpu_s: float, samples: int) -> float:
    """Reference seconds per measured second, from ``samples`` summed samples."""
    return REFERENCE_CHUNK_S * samples / sample_cpu_s

