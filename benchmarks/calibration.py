"""Calibration loops: how fast the host runs the workload's kind of code now.

The speed of a shared host swings by half within seconds, and a slow
spell can outlast a whole run. A pass therefore times a fixed loop that
uses no plethabacus code before its first case and after every CHUNK_S
seconds of cases, and scales each chunk's time by the loop's reference
time over the mean of the two loop times around the chunk: the seconds
the chunk would take on a host where the loop takes its reference time.

Each workload gets the loop that does its kind of work. expand_sweep
and recursion_sweep run pure Python. oracle_check spends its time in the
vector steps of schur_decompose over int64 arrays larger than a core's
caches, whose speed follows the host's memory traffic, not Python's.
"""

from __future__ import annotations

import statistics
import time

CHUNK_S = 0.2


class PythonLoop:
    """Calls, dict lookups and integer arithmetic. It allocates nothing the
    garbage collector tracks, so the heap a pass has built does not change
    its time."""

    iterations = 60_000
    # its time on the seed entry's 2-vCPU Xeon VM in a fast spell
    ref_s = 0.0065

    def __init__(self):
        self._table = {i: (i * 7) % 64 for i in range(64)}
        self()  # the first call pays for the interpreter's specialisation

    def _step(self, x: int) -> int:
        return self._table[x & 63] + 1

    def __call__(self) -> float:
        step = self._step
        t = time.perf_counter()
        x = 0
        for i in range(self.iterations):
            x = step(x + i)
        return time.perf_counter() - t


class NumpyLoop:
    """The step of the oracle's schur_decompose: subtract a multiple of one
    int64 vector from another and find the nonzero entries, over 256 Ki
    values (2 MiB a vector), larger than a core's own caches. Its time is
    the median of several timings, as an oracle_check pass has few chunks
    and one slow timing would scale a whole long case."""

    size = 1 << 18
    timings = 7
    # the median timing on the seed entry's 2-vCPU Xeon VM in a fast spell
    ref_s = 0.005

    def __init__(self):
        import numpy as np

        self._np = np
        self._w = np.random.default_rng(0).integers(-3, 4, size=self.size)
        self._v = np.zeros(self.size, dtype=np.int64)
        self()  # the first call pays for page faults

    def __call__(self) -> float:
        np, v, w = self._np, self._v, self._w
        times = []
        for _ in range(self.timings):
            t = time.perf_counter()
            for c in (1, -2, 3, -2):
                v -= np.int64(c) * w
                np.flatnonzero(v)
            times.append(time.perf_counter() - t)
        return statistics.median(times)


LOOPS = {"expand_sweep": PythonLoop, "recursion_sweep": PythonLoop, "oracle_check": NumpyLoop}


def at_reference_speed(chunk_s: list[float], loop_s: list[float], ref_s: float) -> float:
    """Seconds the chunks take at the reference speed; loop_s[i] and
    loop_s[i + 1] are the loop times before and after chunk i."""
    return sum(c * 2 * ref_s / (a + b) for c, a, b in zip(chunk_s, loop_s, loop_s[1:]))
