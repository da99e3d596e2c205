"""Load normalisation of host timings.

The box this benchmark runs on is a few cores of a shared host.  What the
neighbours do slows a Python program on it by a factor of up to 1.9 for
seconds to an hour at a time, which no estimator over one run's
repetitions removes.  So a run samples a fixed
*calibration kernel* between its phases — a small event-queue simulation
written against the standard library only, with the allocation, heap and
dictionary traffic of the program's hot path but none of its code — and
reports its host timings in *normalised seconds*::

    load       = median(the run's kernel samples) / REFERENCE_S
    normalised = measured / load ** LOAD_EXPONENT

One load factor per run, not per repetition: the slowdown has a part that
changes within seconds, which a half-second sample beside a repetition
measures no better than the repetition does, and an envelope that lasts
minutes, which every sample of the run sees.

``REFERENCE_S`` is the kernel's time on this box in a calm hour, so on a
calm box a normalised second is a second.  ``LOAD_EXPONENT`` is how much of
the load the kernel sees a repetition feels: the bursts that fill a
half-second sample are diluted over a repetition ten times as long, and the
regression of measured seconds on kernel seconds, workload by workload,
reads 0.64 over 300 runs and 0.76 over 210 repetitions of one interpreter
(``README.md``).  Nothing under ``src/`` can make the kernel faster or
slower: a change to the program moves ``measured`` only.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: seconds of one kernel chunk on the reference box when nothing else runs
#: beside it; a constant of the benchmark — changing it rescales every
#: normalised timing
REFERENCE_S = 0.058

#: measured seconds grow as load ** LOAD_EXPONENT (fitted, see module doc)
LOAD_EXPONENT = 0.7

_CHUNK_EVENTS = 20_000
#: chunks per sample: the median chunk ignores a stray interrupt, which a
#: repetition a hundred times as long averages away, and still moves with
#: contention that lasts
CHUNKS = 7
#: at ``--scale smoke`` (check.sh promises half a minute for all seven)
SMOKE_CHUNKS = 3


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: object) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _chunk() -> float:
    started = time.perf_counter()
    queue: list[_Event] = []
    table: dict[tuple[int, int], _Event] = {}
    for seq in range(_CHUNK_EVENTS):
        event = _Event((seq * 7919) % 10007 * 1e-6, seq, (seq, seq + 1))
        heapq.heappush(queue, event)
        table[(seq % 5003, seq % 13)] = event
        if seq % 3 == 0:
            heapq.heappop(queue)
    while queue:
        heapq.heappop(queue)
    return time.perf_counter() - started


def kernel_seconds(chunks: int = CHUNKS) -> float:
    """One sample of the calibration kernel: median seconds per chunk
    (collector off: its cost must not depend on what the measured program
    left on the heap)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_chunk() for _ in range(chunks))
    finally:
        if was_enabled:
            gc.enable()


def normalised(measured: float, kernel_samples: list[float]) -> float:
    """``measured`` host seconds in normalised seconds (see module doc)."""
    load = statistics.median(kernel_samples) / REFERENCE_S
    return measured / load**LOAD_EXPONENT
