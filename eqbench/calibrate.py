"""Reference-speed calibration of the benchmark's timings.

On a shared machine the same CPU-bound call can take 50% longer for tens
of seconds at a time. A sampler thread runs a fixed NumPy-and-Python kernel
every `PERIOD_S` on the same CPU as the workload and records its thread CPU
time. Each call's CPU time is then rescaled by the kernel's time around
that call:

    t_ref = t_call * NOMINAL_KERNEL_S / mean(kernel time near the call)

`t_ref` is the call's time on a core that runs the kernel in
`NOMINAL_KERNEL_S`. A slower eqspike still reads slower, because the kernel
is fixed and lives in the benchmark's own files. Thread CPU time leaves out
the moments the other thread holds the interpreter lock, and the moments
the CPU runs something else.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
PAD_S = 0.15             # samples this close to a call count as "near" it
# The reference speed: about the kernel's thread CPU time, while a workload
# runs, in the fast periods of the 2-core machine where the README's
# baseline was measured.  Only a scale; it moves every timing alike.
NOMINAL_KERNEL_S = 0.8e-3


def kernel() -> float:
    """Fixed work shaped like eqspike's: small matmuls, clips, softmaxes and
    Python-level dict building."""
    w = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 32.0
    a = np.full((12, 32), 0.5)
    acc = 0.0
    for _ in range(30):
        a = np.clip(a @ w + 0.5, 0.0, 1.0)
        e = np.exp(a - a.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        acc += sum({k: float(a[k % 12, k % 32]) for k in range(24)}.values())
    return acc


def mark():
    return time.perf_counter(), time.thread_time()


def interval(start, end):
    """(wall start, wall end, thread CPU seconds) between two `mark()`s."""
    return start[0], end[0], end[1] - start[1]


class Calibration:
    """Sampler thread plus the rescaling of measured CPU times."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at the end, thread CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="eqbench-calibration")

    def __enter__(self):
        self._thread.start()
        while not self.samples:  # a first sample before anything is timed
            time.sleep(PERIOD_S / 10)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._wall = [w for w, _c in self.samples]

    def _sample(self):
        while True:
            start = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - start))
            if self._stop.wait(PERIOD_S):
                return

    def scale(self, wall_start: float, wall_end: float, cpu_s: float) -> float:
        """`cpu_s`, spent between the two wall times, at the nominal speed.

        Valid once the sampler has stopped (after the `with` block).
        """
        lo = bisect.bisect_left(self._wall, wall_start - PAD_S)
        hi = bisect.bisect_right(self._wall, wall_end + PAD_S)
        near = [c for _w, c in self.samples[lo:hi]] or \
            [self.samples[min(lo, len(self.samples) - 1)][1]]
        return cpu_s * NOMINAL_KERNEL_S / statistics.fmean(near)

    def kernel_ms_p50(self) -> float:
        return statistics.median(c for _w, c in self.samples) * 1e3
